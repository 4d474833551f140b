"""Structural invariants of weighted cell complexes and the standard zoo."""

import importlib
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasys import (
    Chain,
    ComplexInvariantError,
    DeformationFamily,
    WeightedCellComplex,
    build_complex,
    circle,
    class_coordinates,
    complex_to_dict,
    cubical_sphere,
    flat_torus,
    fundamental_class_mass,
    homology,
    load_complex,
    point,
    product_complex,
    push_chain,
    rp2,
    save_complex,
    simplicial_from_top,
    simplicial_map,
    sphere,
    stable_systole,
    torus_triangulated,
)
from stasys.complexes import Weights

from conftest import loop_with_faces, permuted, weighted_circle

F = Fraction


def test_euler_characteristics():
    cases = {
        "point": (point(), 1),
        "circle": (circle(5), 0),
        "sphere2": (sphere(2), 2),
        "cubical_sphere2": (cubical_sphere(2), 2),
        "rp2": (rp2(), 1),
        "torus9": (torus_triangulated(), 0),
        "flat_torus": (flat_torus(3), 0),
    }
    for name, (K, chi) in cases.items():
        got = sum((-1) ** q * K.n_cells(q) for q in range(K.top_dim + 1))
        assert got == chi, name


def test_validate_passes_on_standard_complexes():
    for K in (circle(4), sphere(3), rp2(), torus_triangulated(), cubical_sphere(2)):
        K.validate()


def test_boundary_squared_zero_everywhere():
    for K in (sphere(3), rp2(), flat_torus(3), cubical_sphere(3),
              product_complex(circle(3), sphere(2))):
        for q in range(2, K.top_dim + 1):
            for j in range(K.n_cells(q)):
                ch = K.unit_chain(q, j)
                assert K.boundary_of(K.boundary_of(ch)).is_zero()


def test_build_complex_rejects_bad_boundary():
    with pytest.raises(ComplexInvariantError):
        build_complex("general", [
            [("v0", 1, []), ("v1", 1, [])],
            [("e0", 1, [("v0", 1), ("v1", 1)], None)],  # not a valid edge boundary
            [("f0", 1, [("e0", 1)], None)],
        ])


def test_validate_rejects_edge_with_unbalanced_boundary():
    # a 1-cell whose boundary is one vertex at +1 would make betti_0 = 0
    with pytest.raises(ComplexInvariantError):
        build_complex("general", [
            [("v", 1, [])],
            [("e", 1, [("v", 1)], None)],
        ])


def test_validate_rejects_nonzero_boundary_of_boundary():
    # both edges run from v0 to v1, so each is balanced, but the face e0 + e1
    # has boundary 2 (v1 - v0)
    with pytest.raises(ComplexInvariantError, match="boundary of boundary nonzero at degree 2"):
        build_complex("general", [
            [("v0", 1, []), ("v1", 1, [])],
            [("e0", 1, [("v1", 1), ("v0", -1)], None), ("e1", 1, [("v1", 1), ("v0", -1)], None)],
            [("f0", 1, [("e0", 1), ("e1", 1)], None)],
        ])


def test_build_complex_names_an_unknown_face():
    with pytest.raises(ComplexInvariantError, match="boundary of e0 names unknown face 'v9'"):
        build_complex("general", [
            [("v0", 1, [])],
            [("e0", 1, [("v9", 1), ("v0", -1)], None)],
        ])


def test_build_complex_rejects_duplicate_ids():
    with pytest.raises(ComplexInvariantError):
        build_complex("general", [[("v", 1, []), ("v", 1, [])]])


def test_build_complex_rejects_nonpositive_weight():
    with pytest.raises(ComplexInvariantError):
        simplicial_from_top([(0, 1)], weights={(0, 1): 0})


def _two_cells(weights, edge):
    """A vertex and a loop edge, built directly, so that nothing is checked."""
    return WeightedCellComplex("general", (("v",), ("e",)), weights, (((),), (edge,)))


def _vertex_with_boundary():
    """circle(3) with vertex 0's boundary 5·v0: unchecked, stable_systole(K, 0)
    would read it as 1/6 where the circle's degree-0 systole is 1."""
    K = circle(3)
    return replace(K, boundary_cols=((((0, 5),), (), ()),) + K.boundary_cols[1:])


def _extra_vertex():
    """circle(3) with a vertex list for a fourth vertex: unchecked,
    cell_by_vertices((7,)) would return 3 on a circle of three vertices."""
    K = circle(3)
    return replace(K, vertex_lists=(K.vertex_lists[0] + ((7,),), K.vertex_lists[1]))


def _short_factor_tags(degrees=False):
    """C3 x C4 with its last edge's tag dropped, or with no degree-2 tags:
    unchecked, DeformationFamily(K).at(2) builds 23 weights for 24 edges."""
    K = product_complex(circle(3), circle(4))
    f0, f1, f2 = K.factor_degrees
    return replace(K, factor_degrees=(f0, f1) if degrees else (f0, f1[:-1], f2))


def _with_entry(K, field, q, j, value):
    """A copy of K, unchecked, with the per-cell ``field`` (cell_ids, weights, boundary_cols,
    vertex_lists or factor_degrees) of cell (q, j) set to value."""
    table = [list(per_cell) for per_cell in getattr(K, field)]
    table[q][j] = value
    return replace(K, **{field: tuple(map(tuple, table))})


def _edge(incidence=1, weight=1, entry=None, kind="general"):
    """In-memory specs of vertices v, w and an edge e from v to w, with one value swapped in."""
    head = ("w", incidence) if entry is None else entry
    return kind, [[("v", 1, []), ("w", 1, [])], [("e", weight, [head, ("v", -1)])]]


PAIRS_OF_INTS = r"must list \[face id, incidence\] pairs of integers$"
C3_CUBICAL = circle(3, kind="cubical")
RP2_CELLS = loop_with_faces([("e", 2)])  # one vertex, one loop e and a disc f0 on 2e


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_complex("general", []), ComplexInvariantError, "complex has no degree 0"),
    (lambda: simplicial_from_top([]), ComplexInvariantError, "complex has no degree 0"),
    (lambda: simplicial_from_top([(0, 1), (2, 2)]), ComplexInvariantError, r"degenerate simplex \(2, 2\)"),
    # flat_torus(3) with its first edge tagged (1, 1), which does not split degree 1
    (lambda: DeformationFamily(_with_entry(flat_torus(3), "factor_degrees", 1, 0, (1, 1))), ComplexInvariantError,
     "factor tags must split the cell degree"),
    (lambda: _with_entry(flat_torus(3), "factor_degrees", 1, 0, (1, 1)).validate(), ComplexInvariantError,
     "factor tags must split the cell degree"),
    (lambda: flat_torus(3).cell_by_vertices((0, 1)), ValueError, "complex is not simplicial"),
    (lambda: _two_cells(((1,), ()), ((0, 1), (0, -1))).validate(), ComplexInvariantError,
     "weight count mismatch in degree 1"),
    (lambda: _two_cells(((1,), (1,)), ((0, 1), (1, -1))).validate(), ComplexInvariantError,
     "face index out of range in degree 1"),
    (lambda: WeightedCellComplex("general", (("v",),), ((1,), (1,)), ((),)).validate(),
     ComplexInvariantError, r"cell_ids has 1 degree\(s\) but weights has 2"),
    (lambda: WeightedCellComplex("general", (("v",), ("e",)), ((1,), (1,)), ((),)).validate(),
     ComplexInvariantError, r"cell_ids has 2 degree\(s\) but boundary_cols has 1"),
    (lambda: WeightedCellComplex("general", (("v",), ("e", "f")), ((1,), (1, 1)),
                                 (((),), (((0, 1), (0, -1)),))).validate(),
     ComplexInvariantError, "boundary column count mismatch in degree 1"),
    (lambda: _vertex_with_boundary().validate(), ComplexInvariantError, "vertices cannot have boundary"),
    (lambda: _two_cells(((1,), (1.5,)), ((0, 1), (0, -1))).validate(), ComplexInvariantError,
     "weight in degree 1 is not an int or a Fraction"),
    (lambda: _two_cells(((True,), (1,)), ((0, 1), (0, -1))).validate(), ComplexInvariantError,
     "weight in degree 0 is not an int or a Fraction"),
    (lambda: circle(3).boundary_of(circle(3).zero_chain(0)), ValueError, "degree 0 out of range"),
    (lambda: circle(3).mass(Chain(2, ())), ValueError, "degree 2 out of range"),
    (lambda: sphere(0), ValueError, "dimension must be >= 1"),
    (lambda: cubical_sphere(0), ValueError, "dimension must be >= 1"),
    (lambda: _extra_vertex().validate(), ComplexInvariantError, "vertex list count mismatch in degree 0"),
    (lambda: replace(circle(3), vertex_lists=circle(3).vertex_lists + ((),)).validate(),
     ComplexInvariantError, r"cell_ids has 2 degree\(s\) but vertex_lists has 3"),
    (lambda: _short_factor_tags().validate(), ComplexInvariantError, "factor tag count mismatch in degree 1"),
    (lambda: DeformationFamily(_short_factor_tags()), ComplexInvariantError,
     "factor tag count mismatch in degree 1"),
    (lambda: _short_factor_tags(degrees=True).validate(), ComplexInvariantError,
     r"cell_ids has 3 degree\(s\) but factor_degrees has 2"),
    (lambda: DeformationFamily(_short_factor_tags(degrees=True)), ComplexInvariantError,
     "factor tag count mismatch in degree 2"),
    (lambda: class_coordinates(flat_torus(3), Chain(1, ())), ValueError,
     "degree-1 chain has 0 coefficients for 18 cells"),
    (lambda: flat_torus(3).mass(Chain(1, (1,))), ValueError, "degree-1 chain has 1 coefficients for 18 cells"),
    (lambda: flat_torus(3).is_cycle(Chain(2, (1,))), ValueError, "degree-2 chain has 1 coefficients for 9 cells"),
    (lambda: flat_torus(3).boundary_of(Chain(1, (0,) * 18 + (1,))), ValueError,
     "degree-1 chain has 19 coefficients for 18 cells"),
    (lambda: flat_torus(3).is_cycle(Chain(0, (1,))), ValueError, "degree-0 chain has 1 coefficients for 9 cells"),
    (lambda: push_chain(simplicial_map(circle(6), circle(3), {i: i % 3 for i in range(6)}), Chain(1, (1,) * 3)),
     ValueError, "degree-1 chain has 3 coefficients for 6 cells"),
    # a malformed tag or vertex list names its cell
    (lambda: build_complex("general", [[("v", 1, [], None, (0, 0, 0))]]), ComplexInvariantError,
     "^factor_degrees of v must be a pair of degrees$"),
    (lambda: build_complex("general", [[("v", 1, [], None, 5)]]), ComplexInvariantError,
     "^factor_degrees of v must be a pair of degrees$"),
    (lambda: _with_entry(flat_torus(3), "factor_degrees", 1, 0, (True, False)).validate(), ComplexInvariantError,
     r"^factor_degrees of \(s0\|s0\.1\) must be a pair of degrees$"),
    (lambda: DeformationFamily(_with_entry(flat_torus(3), "factor_degrees", 1, 4, (1,))), ComplexInvariantError,
     r"^factor_degrees of \(s1\|s0\.2\) must be a pair of degrees$"),
    (lambda: build_complex("simplicial", [[("v", 1, [], 5)]]), ComplexInvariantError, "^cell v has bad vertex list$"),
    # build_complex converts nothing, and validate is the one definition of a complex
    (lambda: build_complex(*_edge(incidence=1.7)), ComplexInvariantError, "^boundary of e " + PAIRS_OF_INTS),
    (lambda: build_complex(*_edge(incidence="1")), ComplexInvariantError, "^boundary of e " + PAIRS_OF_INTS),
    (lambda: build_complex(*_edge(incidence=True)), ComplexInvariantError, "^boundary of e " + PAIRS_OF_INTS),
    (lambda: build_complex(*_edge(weight=0.1)), ComplexInvariantError,
     "^weight in degree 1 is not an int or a Fraction$"),
    (lambda: build_complex(*_edge(kind="foo")), ComplexInvariantError,
     "^kind must be simplicial, cubical or general, not 'foo'$"),
    (lambda: build_complex(*_edge(entry=("v", 1, 0))), ComplexInvariantError,
     r"^boundary of e must list \[face id, incidence\] pairs$"),
    (lambda: build_complex(*_edge(entry=5)), ComplexInvariantError,
     r"^boundary of e must list \[face id, incidence\] pairs$"),
    (lambda: replace(C3_CUBICAL, cell_ids=(C3_CUBICAL.cell_ids[0], ("e", "e", "f"))).validate(),
     ComplexInvariantError, "^duplicate cell ids in degree 1$"),
    (lambda: _with_entry(RP2_CELLS, "boundary_cols", 2, 0, ((0, 2.5),)).validate(), ComplexInvariantError,
     "^boundary of f0 " + PAIRS_OF_INTS),
    (lambda: replace(C3_CUBICAL, kind="foo").validate(), ComplexInvariantError,
     "^kind must be simplicial, cubical or general, not 'foo'$"),
    (lambda: _with_entry(C3_CUBICAL, "boundary_cols", 1, 0, ((5,), (0, -1))).validate(), ComplexInvariantError,
     r"^boundary of s0\.1 " + PAIRS_OF_INTS),
    # circle(3)'s first edge with both incidences negated: it sums to zero, but is not ∂ of its vertices
    (lambda: _with_entry(circle(3), "boundary_cols", 1, 0, ((1, -1), (0, 1))).validate(), ComplexInvariantError,
     r"^boundary of s0\.1 is not the alternating face sum$"),
], ids=["no-degrees", "no-top-simplices", "degenerate-simplex", "factor-tags", "factor-tags-validate",
        "cubical-lookup",
        "weight-missing", "face-out-of-range", "extra-weight-degree", "missing-boundary-degree",
        "boundary-column-missing", "vertex-with-boundary", "float-weight", "bool-weight",
        "boundary-of-vertices", "mass-out-of-range",
        "sphere-zero", "cubical-sphere-zero", "extra-vertex", "extra-vertex-degree",
        "short-factor-tags", "short-factor-tags-family", "missing-factor-tag-degree",
        "missing-factor-tag-degree-family", "short-chain-coordinates", "short-chain-mass",
        "short-chain-cycle", "long-chain-boundary", "long-vertex-chain-cycle", "short-chain-push",
        "three-entry-tag", "int-tag", "bool-tag", "one-entry-tag-family", "int-vertices",
        "fractional-incidence", "string-incidence", "bool-incidence", "float-weight-build", "unknown-kind-build",
        "three-entry-boundary", "int-boundary-entry", "duplicate-ids", "fractional-incidence-validate",
        "unknown-kind-validate", "one-entry-boundary", "negated-edge"])
def test_input_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _specs(K, field=None, q=0, j=0, value=None):
    """K's cell specs for build_complex, with entry ``field`` of cell (q, j) set to value."""
    specs = [[[cid, w, [(K.cell_ids[p - 1][f], inc) for f, inc in col],
               K.vertex_lists and K.vertex_lists[p][i], K.factor_degrees and K.factor_degrees[p][i]]
              for i, (cid, w, col) in enumerate(zip(K.cell_ids[p], K.weights[p], K.boundary_cols[p]))]
             for p in range(K.top_dim + 1)]
    if field is not None:
        specs[q][j][3 if field == "vertex_lists" else 4] = value
    return specs


TAGGED = [product_complex(circle(3), circle(4)), flat_torus(3), product_complex(circle(3), sphere(2))]
SIMPLICIAL = [circle(3), sphere(2), torus_triangulated()]
_ATOMS = st.one_of(st.integers(-2, 3), st.booleans(), st.text(max_size=2))
_VALUES = st.one_of(_ATOMS, st.lists(_ATOMS, max_size=3), st.lists(_ATOMS, max_size=3).map(tuple))


@st.composite
def _malformed_entries(draw):
    """A fixture, a field, a cell (q, j) of it, and a value that is not that cell's entry's shape:
    anything but a list or tuple of ints (bools excluded) as long as a tag or the cell's vertex list."""
    field = draw(st.sampled_from(["factor_degrees", "vertex_lists"]))
    K = draw(st.sampled_from(TAGGED if field == "factor_degrees" else SIMPLICIAL))
    q = draw(st.integers(0, K.top_dim))
    j = draw(st.integers(0, K.n_cells(q) - 1))
    length = 2 if field == "factor_degrees" else q + 1
    value = draw(_VALUES.filter(lambda v: not (isinstance(v, (list, tuple)) and len(v) == length
                                               and {*map(type, v)} <= {int})))
    return K, field, q, j, value


@settings(max_examples=60, deadline=None)
@given(_malformed_entries())
@example((flat_torus(3), "factor_degrees", 1, 0, (True, False)))
@example((flat_torus(3), "factor_degrees", 0, 0, (0, 0, 0)))
@example((circle(3), "vertex_lists", 1, 2, 5))
def test_a_malformed_entry_is_refused_naming_its_cell(case):
    # build_complex, validate and DeformationFamily all refuse it with a
    # ComplexInvariantError that names the cell, and never raise anything else
    K, field, q, j, value = case
    cid = K.cell_ids[q][j]
    message = (f"factor_degrees of {cid} must be a pair of degrees" if field == "factor_degrees"
               else f"cell {cid} has bad vertex list")
    calls = [lambda: build_complex(K.kind, _specs(K, field, q, j, value)),
             lambda: _with_entry(K, field, q, j, value).validate()]
    if field == "factor_degrees":
        calls.append(lambda: DeformationFamily(_with_entry(K, field, q, j, value)))
    for call in calls:
        with pytest.raises(ComplexInvariantError) as refused:
            call()
        assert str(refused.value) == message
    # the cell's own entry, given as a list or a tuple, still passes
    own = getattr(K, field)[q][j]
    for entry in (list(own), own):
        L = build_complex(K.kind, _specs(K, field, q, j, entry))
        assert (repr(L.vertex_lists), repr(L.factor_degrees)) == (repr(K.vertex_lists), repr(K.factor_degrees))
    _with_entry(K, field, q, j, own).validate()
    if field == "factor_degrees":
        DeformationFamily(_with_entry(K, field, q, j, own))


ONE_DEFINITION_FIXTURES = [L for K in (sphere(2), cubical_sphere(2), product_complex(circle(3), circle(4)))
                           for L in (K, permuted(K, 7))]
MALFORMED = {
    "incidence": [1.7, 2.5, True, "1", 1.0],
    "weight": [0.1, "1/2", True],
    "entry": [5, (1,), (1, 1, 1)],
    "id": [None],
    "kind": ["foo"],
}


@st.composite
def _malformed_values(draw):
    """A fixture, one of its cells (q, j), an entry k of its boundary, and a malformed value for one field."""
    K = draw(st.sampled_from(ONE_DEFINITION_FIXTURES))
    field = draw(st.sampled_from(sorted(MALFORMED)))
    value = draw(st.sampled_from(MALFORMED[field]))
    q = draw(st.integers(1 if field in ("incidence", "entry") else 0, K.top_dim))
    j = draw(st.integers(0, K.n_cells(q) - 1))
    k = draw(st.integers(0, len(K.boundary_cols[q][j]) - 1)) if q else 0
    return K, field, value, q, j, k


@settings(max_examples=40, deadline=None)
@given(_malformed_values())
@example((C3_CUBICAL, "incidence", 1.0, 1, 0, 0))
@example((C3_CUBICAL, "entry", (1,), 1, 2, 1))
def test_a_complex_has_one_definition(tmp_path_factory, case):
    # one malformed value makes build_complex and validate on a replaced copy
    # raise ComplexInvariantError and nothing else; the unmutated fixture
    # validates, and its file loads as it
    K, field, value, q, j, k = case
    cid, specs, kind, copy = K.cell_ids[q][j], _specs(K), K.kind, K
    if field in ("incidence", "entry"):
        col = list(K.boundary_cols[q][j])
        col[k] = (col[k][0], value) if field == "incidence" else value
        specs[q][j][2][k] = (specs[q][j][2][k][0], value) if field == "incidence" else value
        copy = _with_entry(K, "boundary_cols", q, j, tuple(col))
        message = f"boundary of {cid} must list [face id, incidence] pairs"
    elif field == "weight":
        specs[q][j][1] = value
        copy = _with_entry(K, "weights", q, j, value)
        message = f"weight in degree {q} is not an int or a Fraction"
    elif field == "id":
        twin = K.cell_ids[q][(j + 1) % K.n_cells(q)]
        specs[q][j][0] = twin
        copy = _with_entry(K, "cell_ids", q, j, twin)
        message = None  # a face renamed away is unknown to the degree above, a top cell a duplicate
    else:
        kind, copy = value, replace(K, kind=value)
        message = "kind must be simplicial, cubical or general, not 'foo'"
    for call in (lambda: build_complex(kind, specs), copy.validate):
        with pytest.raises(ComplexInvariantError) as refused:
            call()
        assert message is None or str(refused.value).startswith(message)
    K.validate()
    assert build_complex(K.kind, _specs(K)) == K
    path = tmp_path_factory.mktemp("one-definition") / "k.json"
    save_complex(K, path)
    assert load_complex(path) == K


def test_validate_runs_where_a_complex_comes_in(monkeypatch, tmp_path):
    # a constructor's output is correct by construction and is not checked
    # again; build_complex, and so load_complex, checks its complex once
    calls = []
    real = WeightedCellComplex.validate
    monkeypatch.setattr(WeightedCellComplex, "validate", lambda self: calls.append(self) or real(self))
    for build in (point, lambda: circle(4), lambda: circle(4, F(2, 3), "cubical"), lambda: sphere(3),
                  lambda: cubical_sphere(3), lambda: flat_torus(3), torus_triangulated, rp2,
                  lambda: simplicial_from_top([(0, 1, 2), (2, 3)], {(0, 1): F(1, 2)}),
                  lambda: product_complex(rp2(), cubical_sphere(2)),
                  lambda: circle(3).rescale(F(3, 2)), lambda: DeformationFamily(flat_torus(3)).at(2)):
        build()
    assert calls == []
    K = build_complex("general", [[("v", 1, [])], [("e", 1, [("v", 1), ("v", -1)])]])
    assert len(calls) == 1 and calls[0] is K
    save_complex(torus_triangulated(), tmp_path / "t9.json")
    calls.clear()
    L = load_complex(tmp_path / "t9.json")
    assert len(calls) == 1 and calls[0] is L


def test_mass_and_chain_arithmetic():
    K = weighted_circle()
    # edge order is by sorted vertex tuple: (0,1) w=1, (0,2) w=2, (1,2) w=1/2
    ch = Chain(1, (F(2), F(-1), F(1, 2)))
    assert K.mass(ch) == 2 * F(1) + 1 * F(2) + F(1, 2) * F(1, 2)
    assert K.mass(ch + K.zero_chain(1)) == K.mass(ch)


def test_chains_hold_fractions():
    # ints are converted; a chain of Fractions built unchecked is equal to
    # the checked one
    ch = Chain(1, (2, -1, F(1, 2)))
    assert ch.coeffs == (2, -1, F(1, 2)) and {type(c) for c in ch.coeffs} == {Fraction}
    assert Chain._of_fractions(1, ch.coeffs) == ch


@pytest.mark.parametrize("K", [torus_triangulated(), product_complex(torus_triangulated(), circle(3))],
                         ids=["T2_9", "T2_9xC3"])
def test_a_reweighted_complex_shares_its_structure(K, monkeypatch):
    # rescale and DeformationFamily.at run no __init__ or __post_init__ and
    # rebuild no field: the weights alone are new, and every other attribute
    # is the parent's object, what the parent cached from its structure and
    # the slot that keeps its homology summary included
    structure = ("kind", "cell_ids", "boundary_cols", "vertex_lists", "factor_degrees")
    K.total_cells, K._vertex_index  # cached on the parent
    checks = []
    real = WeightedCellComplex.__post_init__
    monkeypatch.setattr(WeightedCellComplex, "__post_init__", lambda self: checks.append(1) or real(self))
    metrics = [K.rescale(F(3, 2)), K.rescale(F(3, 2)).rescale(F(1, 7))]
    if K.factor_degrees is not None:
        metrics += [DeformationFamily(K).at(F(5, 2)), DeformationFamily(K.rescale(2)).at(F(1, 3))]
    assert checks == []
    for L in metrics:
        assert all(getattr(L, name) is getattr(K, name) for name in structure)
        assert set(vars(L)) == {*structure, "weights", "_shared", "total_cells", "_vertex_index"}
        assert all(vars(L)[name] is vars(K)[name] for name in vars(L) if name != "weights")
        assert L.weights != K.weights
        L.validate()
        assert homology(L) is homology(K)


def test_rescale_scales_weights_by_degree():
    K = circle(3)
    K2 = K.rescale(F(3, 2))
    assert K2.weights[0] == K.weights[0]  # degree 0: t^0
    assert all(w2 == F(3, 2) * w for w, w2 in zip(K.weights[1], K2.weights[1]))
    with pytest.raises(ValueError):
        K.rescale(0)


def test_rescale_by_one_is_the_complex_itself():
    # as DeformationFamily.at(1) is the base
    K = circle(3)
    assert K.rescale(1) is K
    assert K.rescale(F(1)) is K


TS = (F(1, 3), F(3, 2), F(7), F(27, 8))
FIVE_THIRDS = circle(3, edge_weight=F(5, 3))


def assert_same_weights(K, expected):
    """K's weights are value for value the plain tuples `expected`."""
    rebuilt = replace(K, weights=expected)
    assert K.weights == expected and expected == K.weights
    assert [repr(ws) for ws in K.weights] == [repr(ws) for ws in expected]
    assert repr(K) == repr(rebuilt)
    assert complex_to_dict(K) == complex_to_dict(rebuilt)
    assert K == rebuilt and hash(K) == hash(rebuilt)


@pytest.mark.parametrize("t", TS, ids=str)
@pytest.mark.parametrize("K", [weighted_circle(), FIVE_THIRDS, flat_torus(3).rescale(F(5, 3))],
                         ids=["1,1/2,2", "5/3", "ft3*5/3"])
def test_rescaled_weights_are_the_per_cell_products(K, t):
    assert_same_weights(K.rescale(t), tuple(tuple(w * t ** q for w in ws)
                                            for q, ws in enumerate(K.weights)))


@pytest.mark.parametrize("t", TS, ids=str)
@pytest.mark.parametrize("P", [product_complex(weighted_circle(), FIVE_THIRDS),
                               product_complex(FIVE_THIRDS, weighted_circle())],
                         ids=["1,1/2,2 x 5/3", "5/3 x 1,1/2,2"])
def test_deformed_weights_are_the_per_cell_products(P, t):
    Kt = DeformationFamily(P).at(t)
    assert_same_weights(Kt, tuple(tuple(w * t ** a for w, (a, _) in zip(ws, tags))
                                  for ws, tags in zip(P.weights, P.factor_degrees)))
    assert fundamental_class_mass(Kt) == Kt.mass(homology(Kt).generators[2][0])


def test_weights_read_as_their_tuple_and_as_s_times_chat():
    ws = Weights((F(5, 3), F(5, 6), F(10, 3)))
    assert ws.split == ((2, 1, 4), F(5, 6))
    from_split = Weights(split=ws.split)
    assert from_split == ws and hash(from_split) == hash(ws) == hash(tuple(ws))
    assert list(from_split) == list(ws) and from_split[1:] == (F(5, 6), F(10, 3))
    assert from_split != Weights(split=((2, 1, 4), F(1))) and from_split != (F(5, 3),)
    assert ws.scaled(6, 5) == (2, 1, 4)
    # ints split too; all-zero and empty weights have s = 1
    assert Weights((4, 6, F(10))).split == ((2, 3, 5), 2)
    assert Weights((F(0), 0)).split == ((0, 0), 1) and Weights(()).split == ((), 1)


@pytest.mark.parametrize("K", [flat_torus(4), product_complex(torus_triangulated(), circle(3))],
                         ids=["flat_torus(4)", "T2_9xC3"])
@pytest.mark.parametrize("t", [F(3, 2), F(1, 7), F(6), 3], ids=str)
def test_a_reweighting_builds_one_fraction_per_degree(K, t, monkeypatch):
    # rescale and DeformationFamily.at read t as p/r once and build each
    # degree's s as one Fraction of integers: none for degree 0 or for t
    # (the parent's own split, read once and kept, is read before counting)
    family = DeformationFamily(K)
    [ws.split for ws in K.weights]
    expected = (tuple(tuple(w * F(t) ** q for w in ws) for q, ws in enumerate(K.weights)),
                tuple(tuple(w * F(t) ** a for w, (a, _) in zip(ws, tags))
                      for ws, tags in zip(K.weights, K.factor_degrees)))
    real = Fraction.__new__
    for build, want in zip((K.rescale, family.at), expected):
        built = []
        monkeypatch.setattr(Fraction, "__new__", staticmethod(
            lambda cls, *args, **kw: built.append(1) or real(cls, *args, **kw)))
        L = build(t)
        monkeypatch.undo()
        assert len(built) <= K.top_dim, (build, len(built))
        assert L.weights == want


def test_rescale_shares_the_integer_direction(monkeypatch):
    # a rescaled complex keeps each degree's ĉ object and scales s alone, so
    # a warm search on it splits nothing
    complexes = importlib.import_module("stasys.complexes")
    K = flat_torus(3)
    for q in range(3):
        assert K.rescale(F(5, 2)).weights[q].split[0] is K.weights[q].split[0]
    base = [stable_systole(K.rescale(F(2)), q).value / F(2) ** q for q in range(3)]
    calls, real = [], complexes._primitive_split
    monkeypatch.setattr(complexes, "_primitive_split", lambda ws: calls.append(ws) or real(ws))
    for k in range(100):
        t = F(2 * k + 3, 2)
        assert stable_systole(K.rescale(t), k % 2 + 1).value == t ** (k % 2 + 1) * base[k % 2 + 1]
    assert calls == []
    # while a split read from values does go through it
    Weights(K.weights[1].values).split
    assert len(calls) == 1


def split_by_lcm_then_gcd(values):
    """(ĉ, s) as `_primitive_split` computed it before it read the lcm step
    through `_integer_row`: numerators over the lcm, then divided by their gcd."""
    d = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (d // v.denominator) for v in values]
    g = math.gcd(*nums) or d
    return tuple(v // g for v in nums), Fraction(g, d)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-60, 60), max_size=6),
    st.lists(st.fractions(-20, 20, max_denominator=12), max_size=6),
    st.lists(st.one_of(st.integers(-60, 60), st.fractions(-20, 20, max_denominator=12)), max_size=6),
    st.lists(st.sampled_from([0, Fraction(0)]), max_size=6)))
@example([])
@example([0, Fraction(0), 0])
def test_primitive_split_clears_denominators_through_integer_row(values):
    # ints, Fractions, both mixed, all-zero tuples and the empty tuple split
    # as the lcm-then-gcd computation did, into ints and one Fraction
    complexes = importlib.import_module("stasys.complexes")
    chat, s = complexes._primitive_split(tuple(values))
    assert (chat, s) == split_by_lcm_then_gcd(values)
    assert {type(c) for c in chat} <= {int} and type(s) is Fraction


def test_product_complex_counts_and_weights():
    A = circle(3, edge_weight=F(1, 2), kind="cubical")
    B = circle(4, edge_weight=F(3), kind="cubical")
    P = product_complex(A, B)
    assert P.top_dim == 2
    assert P.n_cells(0) == 12
    assert P.n_cells(1) == 3 * 4 + 3 * 4
    assert P.n_cells(2) == 12
    assert set(P.weights[2]) == {F(1, 2) * F(3)}
    P.validate()


def test_product_boundary_koszul_sign():
    P = product_complex(circle(3), circle(3))
    # boundary of boundary already covered; check factor tags split degrees
    for q, tags in enumerate(P.factor_degrees):
        for a, b in tags:
            assert a + b == q


def test_deformation_family_rescales_first_factor_only():
    P = flat_torus(3)
    fam = DeformationFamily(P)
    K2 = fam.at(2)
    for q in range(P.top_dim + 1):
        for w, w2, (a, _) in zip(P.weights[q], K2.weights[q], P.factor_degrees[q]):
            assert w2 == w * 2 ** a


def test_deformation_family_requires_tags():
    with pytest.raises(ValueError):
        DeformationFamily(circle(3))


def test_simplicial_sorted_vertices_and_faces():
    K = torus_triangulated()
    for q, per_deg in enumerate(K.vertex_lists):
        for vs in per_deg:
            assert list(vs) == sorted(vs)
            assert len(vs) == q + 1


def test_cell_by_vertices_lookup():
    K = sphere(2)
    idx = K.cell_by_vertices((0, 1, 2))
    assert idx is not None and K.vertex_lists[2][idx] == (0, 1, 2)
    assert K.cell_by_vertices((0, 1, 9)) is None
    assert K.cell_by_vertices((0, 1, 2, 3)) is None  # longer than top_dim + 1


def test_circle_requires_three_vertices():
    with pytest.raises(ValueError):
        circle(2)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.fractions(min_value=F(1, 4), max_value=4))
def test_circle_total_length(k, w):
    if w <= 0:
        return
    K = circle(k, edge_weight=w)
    total = sum(K.weights[1], F(0))
    assert total == k * w


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=F(1, 3), max_value=3), st.integers(0, 2))
def test_rescale_mass_homogeneity(t, q):
    if t <= 0:
        return
    K = sphere(2)
    ch = Chain(q, tuple(F(i % 3 - 1) for i in range(K.n_cells(q))))
    assert K.rescale(t).mass(ch) == t ** q * K.mass(ch)
