"""Round trips through the JSON and CSV serializers."""

from fractions import Fraction

import pytest

from stasys import (
    DeformationFamily,
    Partition,
    circle,
    complex_from_dict,
    complex_to_dict,
    csv_to_samples,
    deformation_sweep,
    flat_torus,
    homology,
    load_complex,
    load_profile,
    parse_product_expression,
    profile_from_dict,
    profile_to_dict,
    report_to_csv,
    rp2,
    save_complex,
    save_profile,
    sphere,
    stable_systole,
    torus_triangulated,
)

from conftest import weighted_circle

F = Fraction


@pytest.mark.parametrize("maker", [
    lambda: circle(4),
    lambda: weighted_circle(),
    lambda: sphere(2),
    lambda: rp2(),
    lambda: torus_triangulated(),
    lambda: flat_torus(3),
])
def test_complex_round_trip(maker):
    K = maker()
    K2 = complex_from_dict(complex_to_dict(K))
    assert K2.kind == K.kind
    assert K2.cell_ids == K.cell_ids
    assert K2.weights == K.weights
    assert K2.boundary_cols == K.boundary_cols
    assert K2.vertex_lists == K.vertex_lists
    assert K2.factor_degrees == K.factor_degrees
    assert homology(K2).betti == homology(K).betti


def test_complex_file_round_trip(tmp_path):
    K = weighted_circle()
    path = tmp_path / "k.json"
    save_complex(K, str(path))
    K2 = load_complex(str(path))
    assert K2.weights == K.weights
    assert stable_systole(K2, 1).value == F(7, 2)


def test_rescaled_product_keeps_tags_through_json(tmp_path):
    K = flat_torus(3)
    path = tmp_path / "t.json"
    save_complex(K, str(path))
    K2 = load_complex(str(path))
    assert K2.factor_degrees == K.factor_degrees
    DeformationFamily(K2)  # must stay usable as a family seed


def test_profile_round_trip(tmp_path):
    p = parse_product_expression("S2 x S2 x S3")
    p2 = profile_from_dict(profile_to_dict(p))
    assert p2.betti == p.betti
    assert [f.name for f in p2.factors] == [f.name for f in p.factors]
    path = tmp_path / "p.json"
    save_profile(p, str(path))
    p3 = load_profile(str(path))
    assert p3.n == p.n and p3.betti == p.betti


def test_profile_from_factors_only():
    data = {"factors": [{"name": "S1", "dimension": 1, "betti": [1, 1],
                         "homology_sphere": True, "max_cup_length": True},
                        {"name": "S2", "dimension": 2, "betti": [1, 0, 1],
                         "homology_sphere": True, "max_cup_length": True}]}
    p = profile_from_dict(data)
    assert p.n == 3 and p.betti == (1, 1, 1, 1)


@pytest.mark.parametrize("reader", [complex_from_dict, profile_from_dict])
def test_top_level_must_be_an_object(reader):
    with pytest.raises(ValueError):
        reader([complex_to_dict(circle(3))])


def _without(path, field):
    """circle(3) as a dict with `field` deleted from the object at `path`."""
    data = complex_to_dict(circle(3))
    obj = data
    for key in path:
        obj = obj[key]
    del obj[field]
    return data


@pytest.mark.parametrize("path, field, message", [
    ((), "top_dim", "complex JSON is missing field 'top_dim'"),
    ((), "cells", "complex JSON is missing field 'cells'"),
    (("cells",), "1", """complex JSON "cells" is missing field '1'"""),
    (("cells", "1", 0), "id", "a degree-1 cell in complex JSON is missing field 'id'"),
    (("cells", "0", 2), "weight", "is missing field 'weight'"),
])
def test_missing_complex_field_is_named(path, field, message):
    with pytest.raises(ValueError, match=message):
        complex_from_dict(_without(path, field))


def test_missing_profile_field_is_named():
    with pytest.raises(ValueError, match="profile JSON is missing field 'betti'"):
        profile_from_dict({"name": "X", "dimension": 2})


def test_csv_round_trip():
    fam = DeformationFamily(flat_torus(3))
    rep = deformation_sweep(fam, Partition((1, 1)), t_samples=(F(1), F(2), F(4)))
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0].startswith("t,systole_q1_part0,systole_q1_part1,product,volume,ratio")
    samples = csv_to_samples(text)
    assert samples == list(rep.samples)
