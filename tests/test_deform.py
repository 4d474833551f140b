"""Deformation sweeps: exact ratios and growth-exponent extraction."""

from fractions import Fraction

import pytest

from stasys import (
    DeformationFamily,
    Partition,
    circle,
    cubical_sphere,
    deformation_sweep,
    flat_torus,
    fundamental_class_mass,
    product_complex,
    sphere,
)
from stasys.deform import _exact_log

F = Fraction


def s1_x_s2_family():
    return DeformationFamily(product_complex(circle(3, kind="cubical"), cubical_sphere(2)))


def test_fundamental_class_mass_values():
    assert fundamental_class_mass(sphere(2)) == 4
    assert fundamental_class_mass(flat_torus(3)) == 9
    assert fundamental_class_mass(circle(3)) == 3


def test_fundamental_class_mass_needs_fundamental_class():
    from stasys import rp2
    with pytest.raises(ValueError):
        fundamental_class_mass(rp2())


def test_torus_sweep_is_bounded():
    fam = DeformationFamily(flat_torus(3))
    rep = deformation_sweep(fam, Partition((1, 1)), t_samples=(F(1), F(2), F(4), F(8)))
    assert rep.verdict == "bounded"
    assert not rep.diverges
    # systole product grows like t, volume like t^2: the ratio halves per doubling
    assert rep.growth_exponent == -1
    assert [s.ratio for s in rep.samples] == [F(1), F(1, 2), F(1, 4), F(1, 8)]


def test_s1_x_s2_sweep_diverges_quadratically():
    rep = deformation_sweep(
        s1_x_s2_family(), Partition((1, 1, 1)), t_samples=(F(1), F(2), F(4), F(8))
    )
    assert rep.diverges
    assert rep.verdict == "diverges(2)"
    assert rep.growth_exponent == 2


def test_s1_x_s2_good_partition_is_bounded():
    rep = deformation_sweep(
        s1_x_s2_family(), Partition((1, 2)), t_samples=(F(1), F(2), F(4))
    )
    assert rep.verdict == "bounded"


def test_sweep_validates_samples_and_partition():
    fam = DeformationFamily(flat_torus(3))
    with pytest.raises(ValueError, match="empty"):
        deformation_sweep(fam, Partition((1, 1)), t_samples=())
    with pytest.raises(ValueError):
        deformation_sweep(fam, Partition((1, 1)), t_samples=(F(2), F(1)))
    with pytest.raises(ValueError):
        deformation_sweep(fam, Partition((1, 1)), t_samples=(F(1, 2), F(1)))
    with pytest.raises(ValueError):
        deformation_sweep(fam, Partition((3,)), t_samples=(F(1), F(2)))


@pytest.mark.parametrize("parts", [(1,), ()], ids=["short", "empty"])
def test_sweep_partition_must_sum_to_the_dimension(parts):
    with pytest.raises(ValueError, match="sums to .*, not to the dimension 2"):
        deformation_sweep(DeformationFamily(flat_torus(3)), Partition(parts))


def test_one_sample_sweep_is_inconclusive():
    rep = deformation_sweep(DeformationFamily(flat_torus(3)), Partition((1, 1)), t_samples=(F(2),))
    assert [s.ratio for s in rep.samples] == [F(1, 2)]
    assert rep.growth_exponent is None
    assert rep.verdict == "inconclusive"


def test_exact_log():
    assert _exact_log(F(2), F(8)) == 3
    assert _exact_log(F(2), F(1, 4)) == -2
    assert _exact_log(F(2), F(1)) == 0
    assert _exact_log(F(2), F(3)) is None
    assert _exact_log(F(1), F(2)) is None


def test_exact_log_beyond_float_range():
    assert _exact_log(F(10**400), F(10**800)) == 2
    assert _exact_log(F(10**400), F(1, 10**400)) == -1
    # a base that rounds to the float 1.0 gives no guess from log(base)
    assert _exact_log(F(10**400 + 1, 10**400), F(2)) is None
