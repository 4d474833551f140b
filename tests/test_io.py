"""Round trips through the JSON and CSV serializers."""

import copy
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasys import (
    ComplexInvariantError,
    DeformationFamily,
    Partition,
    build_complex,
    circle,
    complex_from_dict,
    complex_to_dict,
    csv_to_samples,
    cubical_sphere,
    deformation_sweep,
    flat_torus,
    homology,
    load_complex,
    load_profile,
    parse_product_expression,
    point,
    product_complex,
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
from stasys.io import parse_frac

from conftest import permuted, profile_products, weighted_circle

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


WRITER_CASES = {
    "point": point,
    "circle": lambda: circle(4),
    "cubical-circle": lambda: circle(5, kind="cubical"),
    "sphere1": lambda: sphere(1),
    "sphere2": lambda: sphere(2),
    "sphere3": lambda: sphere(3),
    "cubical-sphere2": lambda: cubical_sphere(2),
    "T2_9": torus_triangulated,
    "rp2": rp2,
    "ft3": lambda: flat_torus(3),
    "C3xC4": lambda: product_complex(circle(3), circle(4)),
    "rescaled": lambda: torus_triangulated().rescale(F(7, 3)),
    "deformed": lambda: DeformationFamily(product_complex(circle(3), circle(4))).at(F(3, 2)),
    "integer-ids": lambda: build_complex("general", [[(0, F(1, 2), []), (1, 3, [])],
                                                     [(2, 1, [(1, 1), (0, -1)]), (3, 2, [(0, 1), (1, -1)])]]),
    # one vertex and a 2-cell on it: degree 1 holds no cell
    "empty-degree": lambda: build_complex("general", [[("v", 1, [])], [], [("f", 1, [])]]),
}


@pytest.mark.parametrize("maker", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_complex_file_holds_one_cell_per_line(maker, tmp_path):
    K = maker()
    data = complex_to_dict(K)
    save_complex(K, tmp_path / "k.json")
    text = (tmp_path / "k.json").read_text()
    with open(tmp_path / "k.json") as fh:
        assert json.load(fh) == data
    assert complex_to_dict(load_complex(tmp_path / "k.json")) == data
    # a header line, one line opening each degree, one per cell and a closing line
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == K.total_cells + K.top_dim + 3
    cells = [json.loads(line.removesuffix(",")) for line in lines if line.startswith('{"id": ')]
    assert cells == [cell for q in range(K.top_dim + 1) for cell in data["cells"][str(q)]]
    # a second save, and a save of what was loaded, write the same bytes
    save_complex(K, tmp_path / "again.json")
    save_complex(load_complex(tmp_path / "k.json"), tmp_path / "reloaded.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "reloaded.json").read_bytes() == text.encode()
    # a file indented as earlier versions wrote it still loads
    with open(tmp_path / "indented.json", "w") as fh:
        json.dump(data, fh, indent=1)
    assert complex_to_dict(load_complex(tmp_path / "indented.json")) == data


def test_loaded_complexes_are_pinned(tmp_path):
    # sha256 over the reprs of what load_complex returns for every writer case
    # and two seeded cell orders of it, as they were when the reader kept its
    # own table of factor tags beside the cell specs
    digest = hashlib.sha256()
    for maker in WRITER_CASES.values():
        K = maker()
        for L in (K, permuted(K, 3), permuted(K, 17)):
            save_complex(L, tmp_path / "k.json")
            M = load_complex(tmp_path / "k.json")
            for field in (M.kind, M.cell_ids, M.weights, M.boundary_cols, M.vertex_lists, M.factor_degrees):
                digest.update(repr(field).encode())
    assert digest.hexdigest() == (
        "c6d9fe264f5a58eac08acf2bf1e06615c278038ae851840911b1dc1396d05b37")


def _cell(data, cid):
    """The cell named ``cid`` in the complex dict ``data``."""
    return next(cell for cells in data["cells"].values() for cell in cells if cell["id"] == cid)


@pytest.mark.parametrize("make, cid, field, message", [
    (lambda: complex_to_dict(product_complex(circle(3), circle(4))), "(s0|s0.1)", "factor_degrees",
     "cell (s0|s0.1) has no factor_degrees, but other cells do"),
    (lambda: complex_to_dict(torus_triangulated()), "s0.1", "vertices",
     "cell s0.1 has no vertices, but other cells do"),
    (lambda: {**complex_to_dict(torus_triangulated()), "kind": "general"}, "s0.1", "vertices", None),
], ids=["product-tag", "simplicial-vertices", "general-vertices"])
def test_a_field_on_some_cells_only_is_refused(make, cid, field, message):
    # factor tags, and a simplicial file's vertex lists, are given on every
    # cell or on none; vertices count only in simplicial files
    data = make()
    del _cell(data, cid)[field]
    if message is None:
        assert complex_from_dict(data).vertex_lists is None
        return
    with pytest.raises(ComplexInvariantError) as refused:
        complex_from_dict(data)
    assert str(refused.value) == message


def test_tags_in_the_cell_specs_rebuild_a_product():
    P = product_complex(circle(3), circle(4))
    cells = [[(cid, w, [(P.cell_ids[q - 1][f], inc) for f, inc in col], None, tag)
              for cid, w, col, tag in zip(P.cell_ids[q], P.weights[q], P.boundary_cols[q], P.factor_degrees[q])]
             for q in range(P.top_dim + 1)]
    K = build_complex(P.kind, cells)
    assert repr(K.factor_degrees) == repr(P.factor_degrees)
    assert repr(K.weights) == repr(P.weights)
    DeformationFamily(K)  # the tags seed a family


STRIP_CASES = [("factor_degrees", complex_to_dict(product_complex(circle(3), circle(4)))),
               ("vertices", complex_to_dict(torus_triangulated()))]
STRIP_CELLS = max(sum(map(len, saved["cells"].values())) for _, saved in STRIP_CASES)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STRIP_CASES), st.lists(st.booleans(), min_size=STRIP_CELLS, max_size=STRIP_CELLS))
@example(STRIP_CASES[0], [False] * STRIP_CELLS)
@example(STRIP_CASES[0], [True] * STRIP_CELLS)
@example(STRIP_CASES[1], [False] * STRIP_CELLS)
@example(STRIP_CASES[1], [True] * STRIP_CELLS)
def test_a_field_is_read_from_every_cell_or_none(case, mask):
    field, saved = case
    data = copy.deepcopy(saved)
    cells = [cell for q in range(data["top_dim"] + 1) for cell in data["cells"][str(q)]]
    stripped = [cell["id"] for cell, strip in zip(cells, mask) if strip]
    for cell, strip in zip(cells, mask):
        if strip:
            del cell[field]
    if not stripped:
        assert complex_to_dict(complex_from_dict(data)) == saved
    elif len(stripped) < len(cells):
        with pytest.raises(ComplexInvariantError) as refused:
            complex_from_dict(data)
        assert str(refused.value) == f"cell {stripped[0]} has no {field}, but other cells do"
    elif field == "vertices":
        with pytest.raises(ComplexInvariantError, match="^simplicial complex needs vertex lists$"):
            complex_from_dict(data)
    else:
        assert complex_from_dict(data).factor_degrees is None


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


@settings(max_examples=100, deadline=None)
@given(profile_products())
def test_product_profile_round_trip(p):
    assert profile_from_dict(profile_to_dict(p)) == p


S1 = {"dimension": 1, "betti": [1, 1]}
S2 = {"dimension": 2, "betti": [1, 0, 1]}
S3 = {"dimension": 3, "betti": [1, 0, 0, 1]}
T2 = {"name": "T2", "dimension": 2, "betti": [1, 2, 1]}


@pytest.mark.parametrize("data, message", [
    ({"dimension": 2, "betti": [1, 0, 1], "factors": [S1]},
     "dimension 2 disagrees with 1 derived from the factors"),
    ({"betti": [1, 1, 1], "factors": [S1, S2]},
     r"betti \[1, 1, 1\] disagrees with \[1, 1, 1, 1\] derived from the factors"),
    ({"factors": [S1, S2], "homology_sphere": True},
     "homology_sphere true disagrees with false derived from the factors"),
    ({"factors": [S1, {**S2, "betti": [1, 0, 0]}], "orientable": True},
     "orientable true disagrees with false derived from the factors"),
    ({"factors": [S2, S3], "max_cup_length": False},
     "max_cup_length false disagrees with true derived from the factors"),
    ({**S2, "orientable": False}, "orientable false disagrees with true derived from the Betti numbers"),
    ({**S3, "homology_sphere": False},
     "homology_sphere false disagrees with true derived from the Betti numbers"),
    ({"factors": [{**S1, "name": 5}, S2]}, "name must be a JSON string, not 5"),
], ids=["dimension", "betti", "homology_sphere", "orientable", "max_cup_length",
        "orientable-leaf", "homology_sphere-leaf", "name"])
def test_profile_fields_must_agree_with_derived_values(data, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict(data)


def test_product_profile_reads_derived_values_and_fills_a_null_ring_flag():
    p = profile_from_dict({"name": "M", "dimension": 3, "betti": [1, 3, 3, 1],
                           "orientable": True, "homology_sphere": False,
                           "max_cup_length": True, "factors": [T2, S1]})
    assert (p.name, p.n, p.betti, p.max_cup_flag) == ("M", 3, (1, 3, 3, 1), True)
    assert profile_from_dict({"factors": [T2, S1]}).max_cup_flag is None
    assert profile_from_dict({"factors": [S2, S3], "max_cup_length": True}).max_cup_flag is True
    assert profile_from_dict({"factors": [S2, S3]}).name == "? x ?"


def test_profile_nested_beyond_the_recursion_limit_is_an_input_error():
    data = S1
    for _ in range(1200):
        data = {"factors": [data]}
    with pytest.raises(ValueError, match="profile nests factors too deeply to read"):
        profile_from_dict(data)


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


PROFILE_X = {"name": "X", "dimension": 2, "betti": [1, 0, 1]}


@pytest.mark.parametrize("field, value, message", [
    ("orientable", "false", "orientable must be true or false, not 'false'"),
    ("homology_sphere", 0, "homology_sphere must be true or false, not 0"),
    ("max_cup_length", "no", "max_cup_length must be true, false or null, not 'no'"),
], ids=["orientable", "homology_sphere", "max_cup_length"])
def test_profile_flags_must_be_json_booleans(field, value, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict({**PROFILE_X, field: value})
    torus = {"dimension": 2, "betti": [1, 2, 1], "max_cup_length": None}
    assert profile_from_dict(torus).max_cup_flag is None
    assert profile_from_dict({**PROFILE_X, "orientable": True}).orientable is True


def test_complex_reader_rejects_non_integral_numbers():
    data = complex_to_dict(circle(3))
    data["top_dim"] = 1.7
    with pytest.raises(ValueError, match="top_dim must be an integer, not 1.7"):
        complex_from_dict(data)


@pytest.mark.parametrize("field, value, message", [
    ("dimension", 2.9, "dimension must be an integer, not 2.9"),
    ("betti", [1, 0, 1.2], "a Betti number must be an integer, not 1.2"),
], ids=["dimension", "betti"])
def test_profile_reader_rejects_non_integral_numbers(field, value, message):
    with pytest.raises(ValueError, match=message):
        profile_from_dict({**PROFILE_X, field: value})


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["cells"]["1"][0]["boundary"][0].__setitem__(1, True), "an incidence must be an integer, not True"),
    (lambda d: d.__setitem__("top_dim", "2"), "top_dim must be an integer, not '2'"),
], ids=["boolean-incidence", "string-top-dim"])
def test_complex_reader_rejects_booleans_and_strings(edit, message):
    data = complex_to_dict(circle(3))
    edit(data)
    with pytest.raises(ValueError, match=message):
        complex_from_dict(data)


def test_profile_reader_rejects_a_boolean_betti_number():
    # int(True) is 1: read as a number this would load as a 1-dimensional profile
    with pytest.raises(ValueError, match="dimension must be an integer, not True"):
        profile_from_dict({"dimension": True, "betti": [True, True]})
    with pytest.raises(ValueError, match="a Betti number must be an integer, not True"):
        profile_from_dict({**PROFILE_X, "betti": [1, True, 1]})


def test_csv_round_trip():
    fam = DeformationFamily(flat_torus(3))
    rep = deformation_sweep(fam, Partition((1, 1)), t_samples=(F(1), F(2), F(4)))
    text = report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0].startswith("t,systole_q1_part0,systole_q1_part1,product,volume,ratio")
    samples = csv_to_samples(text)
    assert samples == list(rep.samples)


@pytest.mark.parametrize("text", [
    "",
    "t,a,b,c,d\n1,2\n",
    "a,b\n1,2\n",
    "t,product,volume,ratio\n1,2\n",
    "t,product,volume,ratio\n1,2," + "3" * 131_073 + ",4\n",
    "t,product,volume,ratio\n1,\x00,3,4\n",
], ids=["empty", "short-row", "no-t-column", "row-shorter-than-header", "huge-field", "nul"])
def test_csv_reader_rejects_a_malformed_report(text):
    with pytest.raises(ValueError):
        csv_to_samples(text)


CSV_CELLS = st.one_of(st.text(max_size=4),
                      st.sampled_from(["t", "product", "volume", "ratio", "1", "1/0", "-2/3", ""]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(["", "t,product,volume,ratio\n", "t,s,product,volume,ratio\n"]),
              st.lists(st.lists(CSV_CELLS, max_size=6), max_size=4))
    .map(lambda parts: parts[0] + "\n".join(",".join(row) for row in parts[1])),
))
def test_csv_reader_raises_only_value_errors(text):
    try:
        csv_to_samples(text)
    except ValueError:
        pass


def test_unknown_kind_is_rejected():
    for kind in ("weird", 3):
        data = complex_to_dict(circle(3))
        data["kind"] = kind
        with pytest.raises(ValueError, match=f"not {kind!r}"):
            complex_from_dict(data)


@pytest.mark.parametrize("key", ["2", "-1"])
def test_cells_outside_the_degree_range_are_rejected(key):
    # circle(3) has top_dim 1, so cells of degree 2 or -1 cannot belong to it
    data = complex_to_dict(circle(3))
    data["cells"][key] = []
    with pytest.raises(ValueError, match=f"cells has degree '{key}' outside 0..1"):
        complex_from_dict(data)


def test_zero_denominator_weight_is_rejected():
    data = complex_to_dict(circle(3))
    data["cells"]["0"][1]["weight"] = "1/0"
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        complex_from_dict(data)


@pytest.mark.parametrize("text, value", [
    ("1e4300", F(10**4300)),
    ("-2.5E-4300", F(-25, 10**4301)),
    ("1e+0_4_3_0_0", F(10**4300)),
])
def test_decimal_exponents_up_to_the_bound_are_read_exactly(text, value):
    assert parse_frac(text) == value


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1E+04301", "1e99999999", "1e" + "9" * 5000])
def test_decimal_exponents_past_the_bound_are_rejected(text):
    with pytest.raises(ValueError, match="decimal exponent beyond ±4300"):
        parse_frac(text)


def test_a_weight_or_csv_field_past_the_exponent_bound_is_rejected():
    data = complex_to_dict(circle(3))
    data["cells"]["0"][1]["weight"] = "1e99999999"
    with pytest.raises(ValueError, match="'1e99999999' has a decimal exponent"):
        complex_from_dict(data)
    with pytest.raises(ValueError, match="'1e-99999999' has a decimal exponent"):
        csv_to_samples("t,product,volume,ratio\n1,2,1e-99999999,4\n")


def _paths(obj, path=()):
    """Every path to a leaf or to a key of ``obj``, a tree of dicts and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    out = [path] if path else []
    for key, value in items:
        out += _paths(value, path + (key,))
    return out


VALID_INPUTS = [
    (complex_from_dict, complex_to_dict(circle(3))),
    (complex_from_dict, complex_to_dict(rp2())),
    (complex_from_dict, complex_to_dict(flat_torus(3))),
    (profile_from_dict, profile_to_dict(parse_product_expression("S2 x S2 x S3"))),
    (profile_from_dict, {"name": "X", "dimension": 2, "betti": [1, 0, 1], "orientable": True}),
]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.sampled_from(["1/0", "-1", "0", "1/2", "x", "", "3"]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


CIRCLE = VALID_INPUTS[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID_INPUTS), st.integers(min_value=0), st.booleans(), JUNK)
@example(CIRCLE, _paths(CIRCLE[1]).index(("cells", "1", 0, "weight")), False, "1/0")
def test_readers_raise_only_input_errors(case, pick, drop, junk):
    # one leaf of a valid complex or profile replaced with junk, or one key
    # or list entry dropped: the reader returns or raises an error that
    # cli.main reports with exit 2
    reader, valid = case
    paths = _paths(valid)
    path = paths[pick % len(paths)]
    mutated = copy.deepcopy(valid)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    try:
        reader(mutated)
    except (ValueError, KeyError):
        pass
