"""Partition arithmetic and category bounds for dimension profiles."""

import pytest

from stasys import (
    CategoryVerdict,
    DimensionProfile,
    Partition,
    catstsys_bounds,
    enumerate_partitions,
    kunneth_product,
    mod_condition,
    parse_product_expression,
    partition_verdicts,
    product_profile,
    profile_from_complex,
    sphere_profile,
    torus_triangulated,
)
from stasys.category import _max_admissible_size

T2 = DimensionProfile(n=2, betti=(1, 2, 1), max_cup_flag=True, name="T2")
P = DimensionProfile(n=5, betti=(1, 0, 1, 1, 0, 1), max_cup_flag=True, name="P")
Q = DimensionProfile(n=4, betti=(1, 0, 1, 0, 1), name="Q")


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def test_partition_validation():
    assert Partition((1, 1, 2)).n == 4
    assert Partition((2, 2)).duplicated_number(2) == 2
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))


def test_enumerate_partitions_full_set():
    parts = enumerate_partitions(4, {1, 2, 3, 4})
    assert [p.parts for p in parts] == [
        (1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,),
    ]


def test_enumerate_partitions_restricted_degrees():
    parts = enumerate_partitions(5, {2, 3})
    assert [p.parts for p in parts] == [(2, 3)]
    assert enumerate_partitions(3, {2}) == []


def test_mod_condition():
    assert mod_condition(2, 2, 3, 3)          # 0 + 0 < 3
    assert mod_condition(2, 2, 2, 2)          # 0 + 0 < 2
    assert not mod_condition(3, 2, 3, 2)      # 1 + 1 = 2
    assert mod_condition(1, 1, 2, 2)          # 0 + 0 < 2 (literal test only)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_sphere_profile_fields():
    p = sphere_profile(3)
    assert p.betti == (1, 0, 0, 1)
    assert p.lpd == 3 and p.homology_sphere and p.resolved_max_cup()


def test_profile_validation():
    with pytest.raises(ValueError):
        DimensionProfile(n=2, betti=(1, 0))  # wrong length
    with pytest.raises(ValueError):
        DimensionProfile(n=2, betti=(2, 0, 1))  # disconnected


def test_kunneth_product_betti_convolution():
    p = kunneth_product(sphere_profile(2), sphere_profile(2))
    assert p.betti == (1, 0, 2, 0, 1)
    assert p.n == 4 and len(p.factors) == 2


def test_profile_from_complex_torus():
    p = profile_from_complex(torus_triangulated(), name="T2")
    assert p.betti == (1, 2, 1)
    assert p.max_cup_flag is True and p.lpd == 1


def test_parse_product_expression():
    p = parse_product_expression("S2 x S3")
    assert p.n == 5 and [f.name for f in p.factors] == ["S2", "S3"]
    assert parse_product_expression("s1 * s1").n == 2
    with pytest.raises(ValueError):
        parse_product_expression("K3 x S1")


# ---------------------------------------------------------------------------
# Category bounds
# ---------------------------------------------------------------------------

def test_single_sphere_is_one():
    for m in (1, 2, 5):
        v = catstsys_bounds(sphere_profile(m))
        assert v.exact and v.value == 1


def test_sphere_products_equal_factor_count():
    cases = ["S1 x S2", "S1 x S3", "S2 x S2 x S7", "S1 x S1 x S1", "S3 x S4 x S5"]
    for expr in cases:
        p = parse_product_expression(expr)
        v = catstsys_bounds(p)
        assert v.exact and v.value == len(p.factors), expr


def test_torus_profile_equals_dimension():
    p = profile_from_complex(torus_triangulated(), name="T2")
    v = catstsys_bounds(p)
    assert v.exact and v.value == 2
    assert v.lower_rule == "cup-length lower bound (maximal cup length)"


def test_sum_rule_closes_s2_x_s3():
    v = catstsys_bounds(parse_product_expression("S2 x S3"))
    assert v.exact and v.value == 2
    assert any("factor-sum rule applies" in n for n in v.notes)


def test_sum_rule_closes_s2s2_x_s3():
    v = catstsys_bounds(parse_product_expression("S2 x S2 x S3"))
    assert v.exact and v.value == 3
    assert any("factor-sum rule applies to S2 x S2 x S3" in n for n in v.notes)


def test_sum_rule_reports_inapplicable_for_s1_x_s2():
    v = catstsys_bounds(parse_product_expression("S1 x S2"))
    assert v.exact and v.value == 2  # closed by the sphere-product rule anyway
    assert any("factor-sum rule inapplicable" in n for n in v.notes)


def test_factor_cup_length_sum_lower_bound():
    v = catstsys_bounds(kunneth_product(T2, sphere_profile(2)))
    assert (v.lower, v.upper) == (3, 4)
    assert v.lower_rule == "factor cup-length sum"


def test_factor_sum_rule_sets_the_upper_bound():
    v = catstsys_bounds(kunneth_product(P, sphere_profile(3)))
    assert v.exact and v.value == 3
    assert v.upper_rule == "factor-sum rule"


def test_factor_sum_rule_inapplicable_notes():
    v = catstsys_bounds(kunneth_product(P, P))
    assert (v.lower, v.upper) == (4, 5)
    assert "factor-sum rule inapplicable to (P) x (P): remainder condition fails" in v.notes
    v = catstsys_bounds(kunneth_product(Q, sphere_profile(2)))
    assert (v.lower, v.upper) == (1, 3)
    assert ("factor-sum rule inapplicable to (Q) x (S2): "
            "factor without known maximal cup length") in v.notes


def test_max_admissible_size_matches_enumeration():
    # every set of admissible degrees containing n, for n up to 8
    for n in range(1, 9):
        for mask in range(2 ** (n - 1)):
            betti = (1,) + tuple((mask >> (q - 1)) & 1 for q in range(1, n)) + (1,)
            p = DimensionProfile(n=n, betti=betti)
            parts = enumerate_partitions(n, p.admissible_degrees)
            assert _max_admissible_size(p) == parts[0].size, betti
    for p in (T2, P, Q, kunneth_product(P, Q), parse_product_expression("S2 x S3 x S5")):
        assert _max_admissible_size(p) == enumerate_partitions(p.n, p.admissible_degrees)[0].size


def test_two_hundred_circles():
    p = product_profile([sphere_profile(1)] * 200)
    assert _max_admissible_size(p) == 200
    v = catstsys_bounds(p)
    assert v.exact and v.value == 200


def test_nonorientable_profiles_rejected():
    p = DimensionProfile(n=2, betti=(1, 0, 0), orientable=False)
    with pytest.raises(ValueError):
        catstsys_bounds(p)


def test_bounds_never_cross():
    import itertools
    dims = [1, 2, 3, 4]
    for combo in itertools.combinations_with_replacement(dims, 2):
        v = catstsys_bounds(product_profile([sphere_profile(d) for d in combo]))
        assert v.lower <= v.upper


# ---------------------------------------------------------------------------
# Partition classification
# ---------------------------------------------------------------------------

def test_partition_verdicts_torus():
    p = profile_from_complex(torus_triangulated(), name="T2")
    verdicts = {part.parts: v for part, v in partition_verdicts(p).items()}
    assert verdicts[(1, 1)] == "categorical"
    assert verdicts[(2,)] == "categorical"


def test_partition_verdicts_s1_x_s2():
    p = parse_product_expression("S1 x S2")
    verdicts = {part.parts: v for part, v in partition_verdicts(p).items()}
    assert verdicts[(1, 2)] == "categorical"
    assert verdicts[(1, 1, 1)] == "ruled-out"  # size 3 > category 2
    assert verdicts[(3,)] == "categorical"


def test_partition_verdicts_without_known_ring():
    verdicts = {part.parts: v for part, v in partition_verdicts(Q).items()}
    assert verdicts == {(2, 2): "unknown", (4,): "categorical"}
