"""The integer builders against the reference builders in complexes_reference.

`simplicial_from_top`, `product_complex` and `cubical_sphere` must build,
field for field, the complex that the string-id and position-dict builders
built: the same cell ids, boundary columns, weight values and s·ĉ split,
vertex lists and factor tags, and so the same homology summary in every cell
order.
"""

import importlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complexes_reference as reference
import conftest
from stasys import homology

from conftest import permuted

C = importlib.import_module("stasys.complexes")
F = Fraction


def built_both_ways(build, monkeypatch):
    """build() as it stands, and again with the three builders swapped for
    the references wherever a constructor or a fixture looks them up."""
    new = build()
    with monkeypatch.context() as m:
        for module in (C, conftest):
            for name in ("simplicial_from_top", "product_complex", "cubical_sphere"):
                m.setattr(module, name, getattr(reference, name))
        old = build()
    return new, old


def fields(K):
    return (K.kind, K.cell_ids, [tuple(ws) for ws in K.weights], [ws.split for ws in K.weights],
            K.boundary_cols, K.vertex_lists, K.factor_degrees)


def assert_same_complex(new, old):
    assert fields(new) == fields(old)
    assert {type(w) for ws in new.weights for w in ws} <= {Fraction}


CONSTRUCTORS = {
    "point": C.point,
    "circle(3)": lambda: C.circle(3),
    "circle(5, 2/3)": lambda: C.circle(5, edge_weight=F(2, 3)),
    "cubical circle(4, 3)": lambda: C.circle(4, edge_weight=3, kind="cubical"),
    **{f"sphere({n})": (lambda n=n: C.sphere(n)) for n in range(1, 5)},
    **{f"cubical_sphere({n})": (lambda n=n: C.cubical_sphere(n)) for n in range(1, 5)},
    "flat_torus(3)": lambda: C.flat_torus(3),
    "flat_torus(5)": lambda: C.flat_torus(5),
    "torus_triangulated": C.torus_triangulated,
    "rp2": C.rp2,
    "wedge_two_circles": conftest.wedge_two_circles,
    "theta_graph": conftest.theta_graph,
    "disjoint_two_circles": conftest.disjoint_two_circles,
    "weighted_circle": conftest.weighted_circle,
    "two_spheres_wedge": conftest.two_spheres_wedge,
    "rp2_cells_squared": conftest.rp2_cells_squared,
    "circle_wedge_sphere": conftest.circle_wedge_sphere,
    "C3 x S2 x C4, edges 3/2": lambda: C.product_complex(
        C.product_complex(C.circle(3, edge_weight=F(3, 2)), C.sphere(2)), C.circle(4, edge_weight=F(3, 2))),
    "RP2 x cubical S3": lambda: C.product_complex(C.rp2(), C.cubical_sphere(3)),
    "S1 x point": lambda: C.product_complex(C.circle(3), C.point()),
    "point x weighted circle": lambda: C.product_complex(C.point(), conftest.weighted_circle()),
    "rescaled flat torus x C3": lambda: C.product_complex(C.flat_torus(3).rescale(F(5, 3)),
                                                         C.circle(3).rescale(F(2, 7))),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_constructors_build_the_reference_complex(name, monkeypatch):
    new, old = built_both_ways(CONSTRUCTORS[name], monkeypatch)
    assert_same_complex(new, old)
    for seed in (None, 3, 4):
        a, b = (K if seed is None else permuted(K, seed) for K in (new, old))
        assert repr(homology(a)) == repr(homology(b)), seed


@st.composite
def tops_and_weights(draw):
    """Up to six simplices of dimension at most 3 on the vertices 0..6, in
    any vertex order, and rational weights (a few not positive) on some of
    the simplices they generate."""
    tops = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True).map(tuple),
                         min_size=1, max_size=6))
    faces = sorted({f for t in tops for k in range(1, len(t) + 1)
                    for f in itertools.combinations(sorted(t), k)})
    weights = draw(st.dictionaries(st.sampled_from(faces),
                                   st.fractions(min_value=-1, max_value=8, max_denominator=12),
                                   max_size=len(faces)))
    return tops, weights


def built_or_refused(build, *args):
    try:
        return build(*args)
    except C.ComplexInvariantError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(tops_and_weights())
def test_simplicial_from_top_builds_the_reference_complex(drawn):
    tops, weights = drawn
    new = built_or_refused(C.simplicial_from_top, tops, weights)
    old = built_or_refused(reference.simplicial_from_top, tops, weights)
    if isinstance(old, str):
        assert new == old
        return
    assert_same_complex(new, old)
    assert_same_complex(C.product_complex(new, new), reference.product_complex(old, old))


def constructor_outputs():
    """The output of a constructor: a drawn top-simplex list with positive
    rational weights, a circle, a sphere, a cubical sphere, a flat torus, a
    fixed triangulation, or the cell-wise product of two of those."""
    base = st.one_of(
        tops_and_weights().map(lambda drawn: C.simplicial_from_top(
            drawn[0], {face: w for face, w in drawn[1].items() if w > 0})),
        st.builds(C.circle, st.integers(3, 7), st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
                  st.sampled_from(["simplicial", "cubical"])),
        st.builds(C.sphere, st.integers(1, 4)),
        st.builds(C.cubical_sphere, st.integers(1, 3)),
        st.builds(C.flat_torus, st.integers(3, 5)),
        st.sampled_from([C.point, C.torus_triangulated, C.rp2]).map(lambda build: build()),
    )
    return st.one_of(base, st.builds(C.product_complex, base, base))


@settings(max_examples=80, deadline=None)
@given(constructor_outputs())
def test_every_constructor_builds_a_valid_complex(K):
    # the constructors do not validate their output: validate() must pass on it
    K.validate()
