"""Partition arithmetic and category bounds for dimension profiles."""

import hashlib
import importlib
import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    profile_from_dict,
    profile_to_dict,
    sphere_profile,
    torus_triangulated,
)
from stasys.category import _max_admissible_size

from category_reference import (
    reference_max_admissible_size,
    reference_partition_verdicts,
    reference_product_profile,
)
from conftest import RING_FLAGS, profile_leaves, profile_products

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
    with pytest.raises(ValueError, match="n must be positive"):
        enumerate_partitions(0, {1})


def test_mod_condition():
    assert mod_condition(2, 2, 3, 3)          # 0 + 0 < 3
    assert mod_condition(2, 2, 2, 2)          # 0 + 0 < 2
    assert not mod_condition(3, 2, 3, 2)      # 1 + 1 = 2
    assert mod_condition(1, 1, 2, 2)          # 0 + 0 < 2 (literal test only)
    with pytest.raises(ValueError, match="least positive dimensions must be >= 1"):
        mod_condition(2, 0, 3, 3)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_sphere_profile_fields():
    p = sphere_profile(3)
    assert p.betti == (1, 0, 0, 1)
    assert p.lpd == 3 and p.homology_sphere and p.max_cup_flag


def test_homology_sphere_ring_flag_is_derived():
    assert DimensionProfile(n=3, betti=(1, 0, 0, 1)).max_cup_flag is True
    with pytest.raises(ValueError, match="maximal cup length"):
        DimensionProfile(n=3, betti=(1, 0, 0, 1), max_cup_flag=False)


def test_profile_validation():
    with pytest.raises(ValueError):
        DimensionProfile(n=2, betti=(1, 0))  # wrong length
    with pytest.raises(ValueError):
        DimensionProfile(n=2, betti=(2, 0, 1))  # disconnected


def test_negative_betti_number_is_rejected():
    with pytest.raises(ValueError, match="Betti numbers must be at least 0, not -3"):
        DimensionProfile(n=2, betti=(1, -3, 1))


def test_kunneth_product_betti_convolution():
    with pytest.raises(ValueError, match="need at least one factor"):
        product_profile([])
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
    for expr in ("S1 X S2", "S1*S2", " S1  x\tS2 "):
        assert parse_product_expression(expr).name == "S1 x S2", expr
    # an operator needs no space only when it is "*": "S1xS2" is one factor
    for expr, factor in (("K3 x S1", "K3"), ("S\u00b2 x S3", "S\u00b2"), ("S\u0661 x S3", "S\u0661"),
                         ("S1xS2", "S1xS2")):
        # a superscript two or an Arabic-Indic one is not an ASCII digit
        with pytest.raises(ValueError, match=f"cannot parse factor '{factor}'; expected e.g. S3"):
            parse_product_expression(expr)


@pytest.mark.parametrize("expr", ["S1 x", "x S1", "S1 x x S2", "S1 * * S2", "S1**S2", "S1 S2",
                                  "S1 x S2 *", "x"])
def test_product_expression_needs_one_operator_between_factors(expr):
    with pytest.raises(ValueError, match=re.escape(
            f"cannot parse product expression {expr!r}; "
            "expected factors joined by x or *, e.g. S1 x S3")):
        parse_product_expression(expr)


# ---------------------------------------------------------------------------
# The records: dataclass-style repr, equality, hash and immutability
# ---------------------------------------------------------------------------

VERDICT = CategoryVerdict(1, 2, "a", "b")


def test_record_reprs():
    assert repr(Partition((1, 2))) == "Partition(parts=(1, 2))"
    assert repr(sphere_profile(2)) == ("DimensionProfile(n=2, betti=(1, 0, 1), max_cup_flag=True, "
                                       "factors=(), name='S2')")
    assert repr(parse_product_expression("S1 x S2")) == (
        "DimensionProfile(n=3, betti=(1, 1, 1, 1), max_cup_flag=None, factors=("
        "DimensionProfile(n=1, betti=(1, 1), max_cup_flag=True, factors=(), name='S1'), "
        "DimensionProfile(n=2, betti=(1, 0, 1), max_cup_flag=True, factors=(), name='S2')), "
        "name='S1 x S2')")
    assert repr(VERDICT) == ("CategoryVerdict(lower=1, upper=2, lower_rule='a', upper_rule='b', "
                             "notes=())")


def test_records_are_equal_and_hash_alike_by_value_within_their_class():
    for a, b in ((Partition((1, 2)), Partition([1, 2])),
                 (sphere_profile(2), DimensionProfile(2, (1, 0, 1), name="S2")),
                 (VERDICT, CategoryVerdict(lower=1, upper=2, lower_rule="a", upper_rule="b"))):
        assert a == b and not a != b and hash(a) == hash(b)
    # the hash of the field values, as a frozen dataclass's
    assert hash(Partition((1, 2))) == hash(((1, 2),))
    assert {Partition((1, 1)): "a"}[Partition([1, 1])] == "a"
    for other in ((1, 2), ((1, 2),), [1, 2], Partition((1, 1))):
        assert Partition((1, 2)) != other and other != Partition((1, 2))
    assert sphere_profile(2) != DimensionProfile(2, (1, 0, 1), name="")
    assert VERDICT != CategoryVerdict(1, 2, "a", "b", ("note",))
    # a computed attribute takes no part
    p = sphere_profile(3)
    assert p.lpd == 3 and p.admissible_degrees == frozenset({3}) and "lpd" in vars(p)
    assert p == sphere_profile(3) and hash(p) == hash(sphere_profile(3))
    assert repr(p) == repr(sphere_profile(3))


@pytest.mark.parametrize("record, field", [
    (Partition((1, 2)), "parts"), (sphere_profile(2), "betti"), (sphere_profile(2), "name"),
    (sphere_profile(2), "lpd"), (VERDICT, "notes"), (VERDICT, "other"),
], ids=["parts", "betti", "name", "cached-lpd", "notes", "new-attribute"])
def test_records_refuse_assignment_and_deletion(record, field):
    before = repr(record)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert repr(record) == before


def test_records_take_defaults_and_keywords():
    p = DimensionProfile(4, (1, 0, 1, 0, 1))
    assert (p.max_cup_flag, p.factors, p.name) == (None, (), "")
    assert p == DimensionProfile(betti=(1, 0, 1, 0, 1), n=4, max_cup_flag=None, factors=(), name="")
    assert VERDICT.notes == ()
    assert CategoryVerdict(upper=2, lower=1, upper_rule="b", lower_rule="a", notes=("n",)) == (
        CategoryVerdict(1, 2, "a", "b", ("n",)))
    assert Partition(parts=[1, 1]).parts == (1, 1)
    for make in (lambda: Partition(), lambda: CategoryVerdict(1, 2, "a"),
                 lambda: DimensionProfile(2, (1, 0, 1), None, (), "", 1),
                 lambda: Partition((1,), size=1)):
        with pytest.raises(TypeError):
            make()


def _sphere_products():
    for k in (1, 2, 3):
        for dims in itertools.product(range(1, 7), repeat=k):
            yield parse_product_expression(" x ".join(f"S{m}" for m in dims))


def test_bounds_and_profile_round_trips_are_pinned():
    """sha256 over the reprs of the bounds and partition verdicts of every
    product of 1-3 spheres of dimensions 1-6, and over profile dict round
    trips, as the frozen dataclasses gave them."""
    verdicts = hashlib.sha256()
    for p in _sphere_products():
        verdicts.update(repr((catstsys_bounds(p), partition_verdicts(p))).encode())
    assert verdicts.hexdigest() == (
        "2240b630bdae5b3a21a442cd44856f3137b0886f5a9cb1a2e14d64f3f044c595")
    unflagged = DimensionProfile(n=3, betti=(1, 1, 1, 1))
    trips = hashlib.sha256()
    for p in (*_sphere_products(), T2, P, Q, unflagged, kunneth_product(T2, Q),
              kunneth_product(P, unflagged)):
        d = profile_to_dict(p)
        trips.update(repr((p, d, profile_from_dict(d))).encode())
    assert trips.hexdigest() == "174db5755b79b8603090879bbcf37d59fa620069116cf09776c9d3d0317cbb2b"


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
    assert "factor-sum rule inapplicable at factor 2 (P): remainder condition fails" in v.notes
    v = catstsys_bounds(kunneth_product(Q, sphere_profile(2)))
    assert (v.lower, v.upper) == (1, 3)
    assert ("factor-sum rule inapplicable at factor 2 (S2): "
            "factor without known maximal cup length") in v.notes


def test_fold_notes_name_one_factor_each():
    # a note naming the sub-product folded so far would make the notes
    # quadratic in the factor count: 2000 circles wrote 10 MB of them
    v = catstsys_bounds(parse_product_expression(" x ".join(["S1"] * 500)))
    assert v.exact and v.value == 500
    assert "factor-sum rule applies at factor 500 (S1): remainder condition holds" in v.notes
    assert sum(len(note.encode()) for note in v.notes) < 100 * 500


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1), st.integers(0, 1))))
@example(([0] * 40 + [1] + [0] * 10, 1))  # lpd 41: one part, of excess 11
@example(([0] * 59, 0))                   # nothing admissible
def test_max_admissible_size_matches_the_full_table(betti):
    middle, top = betti
    p = DimensionProfile(n=len(middle) + 1, betti=(1, *middle, top))
    assert _max_admissible_size(p) == reference_max_admissible_size(p)


@pytest.mark.parametrize("expr", ["S3 x S4", "S2 x S3 x S5", " x ".join(f"S{m}" for m in range(7, 40, 4)),
                                  " x ".join(["S5"] * 30 + ["S7"] * 3)])
def test_max_admissible_size_of_sphere_products_matches_the_full_table(expr):
    p = parse_product_expression(expr)
    assert _max_admissible_size(p) == reference_max_admissible_size(p)


def test_two_hundred_circles():
    p = product_profile([sphere_profile(1)] * 200)
    assert _max_admissible_size(p) == 200
    v = catstsys_bounds(p)
    assert v.exact and v.value == 200


def test_bounds_of_many_factors_rebuild_no_product(monkeypatch):
    # the factor-sum fold carries only the running product's n, lpd and
    # flag, and a profile builds its admissible degrees once, so the bounds
    # of k factors take time linear in k
    category = importlib.import_module("stasys.category")
    p = product_profile([sphere_profile(1)] * 500)
    assert p.admissible_degrees is p.admissible_degrees
    calls = []
    real = category.kunneth_product
    monkeypatch.setattr(category, "kunneth_product", lambda *args: calls.append(1) or real(*args))
    v = catstsys_bounds(p)
    assert v.exact and v.value == 500 and v.upper_rule == "admissible-partition arithmetic"
    assert calls == []


def test_nonorientable_profiles_rejected():
    p = DimensionProfile(n=2, betti=(1, 0, 0))
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


def _outcome(verdicts, profile):
    try:
        return verdicts(profile)
    except ValueError as exc:  # a ring flag the Betti numbers cannot carry, in both
        return str(exc)


@settings(max_examples=50, deadline=None)
@given(profile_products())
def test_partition_verdicts_match_the_subset_search(profile):
    assert _outcome(partition_verdicts, profile) == _outcome(reference_partition_verdicts, profile)


def test_partition_verdicts_of_three_unflagged_factors():
    # the subset search takes seconds here; the witnessed set is three tuples
    f = DimensionProfile(n=6, betti=(1,) * 7)
    verdicts = partition_verdicts(product_profile([f, f, f]))
    assert len(verdicts) == 385
    assert sorted(p.parts for p, v in verdicts.items() if v == "categorical") == [(6, 6, 6), (18,)]


def test_flags_are_read_off_the_betti_numbers():
    assert sphere_profile(3).homology_sphere and sphere_profile(3).orientable
    assert DimensionProfile(n=3, betti=(1, 0, 0, 1)).homology_sphere
    assert not DimensionProfile(n=2, betti=(1, 2, 1)).homology_sphere
    assert not DimensionProfile(n=2, betti=(1, 0, 0)).orientable
    assert not DimensionProfile(n=0, betti=(1,)).homology_sphere
    with pytest.raises(ValueError, match="betti_n = 0 or 1"):
        DimensionProfile(n=2, betti=(1, 0, 2))


def test_unflagged_homology_spheres_use_the_sphere_product_count():
    p = product_profile([DimensionProfile(n=1, betti=(1, 1)), DimensionProfile(n=2, betti=(1, 0, 1))])
    v = catstsys_bounds(p)
    assert (v.lower, v.upper, v.lower_rule) == (2, 2, "sphere-product count")
    assert ("factor-sum rule inapplicable at factor 2 (?): floor compatibility with the "
            "combined least positive dimension fails") in v.notes


def test_ring_flag_beyond_the_betti_numbers_is_an_input_error():
    # no admissible partition of 5 into floor(5 / 2) = 2 parts
    with pytest.raises(ValueError, match="inconsistent profile X: lower bound 2"):
        catstsys_bounds(DimensionProfile(n=5, betti=(1, 0, 1, 0, 0, 1), max_cup_flag=True, name="X"))


POINT = DimensionProfile(n=0, betti=(1,), name="pt")
S2 = sphere_profile(2)


@st.composite
def nonorientable_leaves(draw) -> DimensionProfile:
    n = draw(st.integers(1, 3))
    middle = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    return DimensionProfile(n=n, betti=(1, *middle, 0), max_cup_flag=draw(st.sampled_from(RING_FLAGS)))


FACTORS = st.one_of(st.just(POINT), profile_leaves(3), nonorientable_leaves())
# a factor may itself be a product, built by the pairwise reference
FACTOR_LISTS = st.lists(st.one_of(FACTORS, st.lists(FACTORS, min_size=2, max_size=3)
                                  .map(reference_product_profile)), min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(FACTOR_LISTS)
@example([POINT, S2, S2])  # the prefix pt x S2 is a homology sphere, flagged True
@example([S2, POINT, S2])
@example([POINT, DimensionProfile(n=2, betti=(1, 1, 0))])  # two Betti numbers, no sphere
@example([POINT, POINT])
@example([sphere_profile(3), S2, S2])  # S3 x S2 has lpd 2, so its floors agree with S2's
@example([Q, S2, Q, Q])  # Q's Betti numbers are a polynomial in x^2, cubed
@example([DimensionProfile(n=3, betti=(1, 0, 1, 0))] * 3 + [POINT])  # so are these, short of n
def test_one_pass_product_matches_the_pairwise_products(factors):
    assert product_profile(factors) == reference_product_profile(factors)
    if len(factors) == 2:
        assert kunneth_product(*factors) == reference_product_profile(factors)
