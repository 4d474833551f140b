"""End-to-end checks of the command-line interface."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stasys import (
    DimensionProfile,
    circle,
    complex_to_dict,
    cubical_sphere,
    flat_torus,
    product_complex,
    rp2,
    save_complex,
    save_profile,
    simplicial_from_top,
    sphere,
    torus_triangulated,
)
from stasys.cli import fmt, main

from conftest import capped_systoles, disjoint_two_circles


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, K in {
        "circle3": circle(3),
        "circle6": circle(6),
        "sphere2": sphere(2),
        "rp2": rp2(),
        "torus9": torus_triangulated(),
        "flat_torus3": flat_torus(3),
    }.items():
        p = tmp_path / f"{name}.json"
        save_complex(K, str(p))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_command(files, capsys):
    code, out, _ = run(capsys, "homology", files["torus9"])
    assert code == 0
    assert "H_1: betti = 2" in out


def test_homology_reports_torsion(files, capsys):
    code, out, _ = run(capsys, "homology", files["rp2"])
    assert code == 0
    assert "Z/2" in out


def test_systole_command(files, capsys):
    code, out, _ = run(capsys, "systole", files["circle3"], "-q", "1")
    assert code == 0
    assert "stsys_1 = 3" in out


def test_systole_trivial(files, capsys):
    code, out, _ = run(capsys, "systole", files["rp2"], "-q", "1")
    assert code == 0
    assert "trivial" in out


def test_systole_search_that_did_not_run_is_not_trivial(files, capsys):
    # betti_1 = 2, so an empty search must not read as trivial homology
    code, out, _ = run(capsys, "systole", files["torus9"], "-q", "1", "-R", "0")
    assert code == 0
    assert "did not run" in out
    assert "trivial" not in out
    code, out, err = run(capsys, "deform", files["circle3"], files["circle3"],
                         "--partition", "1,1", "--t", "1,2", "-R", "0")
    assert code == 2
    assert "did not run" in err and "trivial" not in err


def test_negative_search_radius_exits_two(files, capsys):
    code, out, err = run(capsys, "systole", files["torus9"], "-q", "1", "-R", "-3")
    assert code == 2
    assert "error:" in err and "radius" in err
    assert "did not run" not in out
    code, _, err = run(capsys, "deform", files["circle3"], files["circle3"],
                       "--partition", "1,1", "--t", "1,2", "-R", "-1")
    assert code == 2
    assert "radius" in err


def _circle_with(**fields):
    """circle(3) as JSON with the given fields of its first edge replaced."""
    data = complex_to_dict(circle(3))
    data["cells"]["1"][0].update(fields)
    return json.dumps(data)


MALFORMED_JSON = {
    "top-level-list": "[]",
    "cells-list": json.dumps({"kind": "simplicial", "top_dim": 0, "cells": []}),
    "cells-number": json.dumps({"kind": "simplicial", "top_dim": 0, "cells": {"0": 5}}),
    "cell-string": json.dumps({"kind": "simplicial", "top_dim": 0, "cells": {"0": ["v0"]}}),
    "boundary-number": _circle_with(boundary=5),
    "vertices-number": _circle_with(vertices=7),
    "factor-degrees-short": _circle_with(factor_degrees=[0]),
    "negative-top-dim": json.dumps({"kind": "simplicial", "top_dim": -1, "cells": {}}),
    "profile-betti-number": json.dumps({"name": "X", "dimension": 2, "betti": 5}),
}


@pytest.mark.parametrize("payload", list(MALFORMED_JSON))
def test_top_level_json_list_exits_two(payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_JSON[payload])
    for argv in (("homology", str(path)), ("catstsys", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err


def test_a_partly_tagged_product_exits_two(tmp_path, capsys):
    # C3 x C4 with the factor tag of its first edge deleted: the error names that edge
    data = complex_to_dict(product_complex(circle(3), circle(4)))
    del data["cells"]["1"][0]["factor_degrees"]
    path = tmp_path / "c3c4.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert "cell (s0|s0.1) has no factor_degrees" in err


def test_missing_field_is_named(files, tmp_path, capsys):
    # a profile without its dimension, and a profile where a complex is expected
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"name": "X", "betti": [1, 0, 1]}))
    code, _, err = run(capsys, "catstsys", str(profile))
    assert code == 2
    assert "profile JSON is missing field 'dimension'" in err
    profile.write_text(json.dumps({"name": "X", "dimension": 2, "betti": [1, 0, 1]}))
    code, _, err = run(capsys, "homology", str(profile))
    assert code == 2
    assert "complex JSON is missing field 'kind'" in err


def test_catstsys_names_a_complex_file_as_one(files, capsys):
    assert run(capsys, "catstsys", files["torus9"]) == (
        2, "", f"error: {files['torus9']} is a complex file; catstsys reads a profile file "
               f"or a product expression\n")


def test_string_profile_flag_exits_two_naming_the_field(tmp_path, capsys):
    # "false" is a non-empty string: read as a truth value it would claim
    # orientability and fail on betti_n instead
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"name": "RP2", "dimension": 2, "betti": [1, 0, 0],
                                "orientable": "false"}))
    code, _, err = run(capsys, "catstsys", str(path))
    assert code == 2
    assert err == "error: orientable must be true or false, not 'false'\n"


SPHERE_1 = {"dimension": 1, "betti": [1, 1]}
SPHERE_2 = {"name": "S2", "dimension": 2, "betti": [1, 0, 1],
            "homology_sphere": True, "max_cup_length": True}


@pytest.mark.parametrize("profile, message", [
    # the factors give dimension 4: read as given, the bounds crossed
    ({"name": "M", "dimension": 1, "betti": [1, 1], "factors": [SPHERE_2, SPHERE_2]},
     "error: dimension 1 disagrees with 4 derived from the factors\n"),
    ({"dimension": 2, "betti": [1, 0, 1], "factors": [SPHERE_1]},
     "error: dimension 2 disagrees with 1 derived from the factors\n"),
    ({"factors": [{**SPHERE_1, "name": 5}, SPHERE_2]}, "error: name must be a JSON string, not 5\n"),
    ({"name": "X", "dimension": 5, "betti": [1, 0, 1, 0, 0, 1], "max_cup_length": True},
     "error: inconsistent profile X: lower bound 2 via cup-length lower bound (maximal cup "
     "length) exceeds upper bound 1 via admissible-partition arithmetic\n"),
], ids=["dimension-beside-factors", "one-factor", "name", "ring-flag"])
def test_contradicting_profile_exits_two_naming_the_field(profile, message, tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert run(capsys, "catstsys", str(path)) == (2, "", message)


SPHERE_3_NOT_MAXIMAL = {"dimension": 3, "betti": [1, 0, 0, 1], "max_cup_length": False}


@pytest.mark.parametrize("profile", [
    SPHERE_3_NOT_MAXIMAL, {"factors": [SPHERE_3_NOT_MAXIMAL, SPHERE_3_NOT_MAXIMAL]},
], ids=["leaf", "product"])
def test_false_ring_flag_on_a_homology_sphere_exits_two(profile, tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert run(capsys, "catstsys", str(path)) == (
        2, "", "error: max_cup_length false disagrees with true derived from the Betti numbers\n")


NEGATIVE_BETTI = {"name": "M", "dimension": 2, "betti": [1, -3, 1]}


@pytest.mark.parametrize("command", ["catstsys", "lpd"])
@pytest.mark.parametrize("profile", [NEGATIVE_BETTI, {"factors": [NEGATIVE_BETTI, SPHERE_2]}],
                         ids=["leaf", "product"])
def test_negative_betti_number_exits_two(command, profile, tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert run(capsys, command, str(path)) == (
        2, "", "error: Betti numbers must be at least 0, not -3\n")


def test_unflagged_sphere_factors_give_the_sphere_product_count(tmp_path, capsys):
    path = tmp_path / "s1xs2.json"
    path.write_text(json.dumps({"factors": [SPHERE_1, {"dimension": 2, "betti": [1, 0, 1]}]}))
    code, out, _ = run(capsys, "catstsys", str(path))
    assert code == 0
    assert out.splitlines()[:3] == ["catstsys(? x ?) = 2",
                                    "  lower bound: 2 via sphere-product count",
                                    "  upper bound: 2 via sphere-product count"]
    assert "factor-sum rule inapplicable at factor 2 (?)" in out


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"factors": [' * 1200 + json.dumps(SPHERE_1) + "]}" * 1200)
    for command in ("catstsys", "homology"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_stable_norm_command(files, capsys):
    code, out, _ = run(capsys, "stable-norm", files["flat_torus3"],
                       "-q", "1", "--class", "2,-1")
    assert code == 0
    assert "stable norm = 9" in out
    first, second = out.splitlines()
    assert first == "stable norm = 9  [optimal-LP]"
    lam = [int(x) for x in second.removeprefix("dual: lambda = [").removesuffix("]").split(",")]
    assert 2 * lam[0] - lam[1] == 9  # λ.h is the norm
    code, out, _ = run(capsys, "stable-norm", files["flat_torus3"],
                       "-q", "1", "--class", "0,0")
    assert out.splitlines() == ["stable norm = 0  [trivial-zero-class]"]


def test_a_class_may_start_with_a_minus_sign(files, capsys):
    # the token after --class is its value, though argparse would read -1,0 as an option
    for spelling in (["--class", "-1,0"], ["--class=-1,0"]):
        code, out, err = run(capsys, "stable-norm", files["torus9"], "-q", "1", *spelling)
        assert (code, err) == (0, ""), spelling
        first, second = out.splitlines()
        assert first == "stable norm = 3  [optimal-LP]", spelling
        # λ depends on the bases recorded before, but λ.h is always the norm
        assert -int(second.removeprefix("dual: lambda = [").split(",")[0]) == 3, spelling


def test_cup_length_command(files, capsys):
    code, out, _ = run(capsys, "cup-length", files["torus9"])
    assert code == 0
    assert "cup-length = 2" in out


def test_lpd_on_file_and_expression(files, capsys):
    code, out, _ = run(capsys, "lpd", files["sphere2"])
    assert code == 0 and "lpd = 2" in out
    code, out, _ = run(capsys, "lpd", "S3 x S5")
    assert code == 0 and "lpd = 3" in out


@pytest.mark.parametrize("expr, dimension", [("S100000000", 100000000), ("S6000 x S6000", 12000)])
@pytest.mark.parametrize("command", ["lpd", "catstsys"])
def test_product_expression_past_the_dimension_bound_exits_two(command, expr, dimension, capsys):
    assert run(capsys, command, expr) == (2, "", f"error: product dimension {dimension} exceeds 10000\n")


@pytest.mark.parametrize("command", ["lpd", "catstsys"])
def test_product_expression_past_the_factor_bound_exits_two(command, capsys):
    assert run(capsys, command, " x ".join(["S1"] * 501)) == (
        2, "", "error: product of 501 factors exceeds 500\n")


def test_product_expression_at_the_factor_bound_is_answered(capsys):
    # the convolution takes each distinct factor to its power first, so 250
    # copies each of S1 and S39, either way round, take no longer than the
    # circles alone
    for dims in ([1] * 250 + [39] * 250, [39] * 250 + [1] * 250):
        code, out, _ = run(capsys, "lpd", " x ".join(f"S{m}" for m in dims))
        assert (code, out) == (0, "lpd = 1\n")


def test_product_expression_at_the_dimension_bound_is_answered(capsys):
    assert run(capsys, "lpd", "S5000 x S5000") == (0, "lpd = 5000\n", "")
    code, out, _ = run(capsys, "catstsys", "S5000 x S5000")
    assert code == 0 and out.startswith("catstsys(S5000 x S5000) = 2\n")


@pytest.mark.parametrize("fields, message", [
    ({"weight": "one"}, "Invalid literal for Fraction: 'one'"),
    ({"boundary": [["s0", 1], ["s1", 1]]}, "boundary of s0.1 does not sum to zero"),
    ({"vertices": [1, 0]}, "cell s0.1 vertices not sorted"),
    ({"vertices": [0, 7]}, "missing face (7,)"),
], ids=["weight-one", "unbalanced-edge", "unsorted-vertices", "missing-face"])
def test_lpd_prints_the_complex_error(fields, message, tmp_path, capsys):
    # a file with "cells" is read as a complex only, never retried as a profile
    path = tmp_path / "bad.json"
    path.write_text(_circle_with(**fields))
    code, _, err = run(capsys, "lpd", str(path))
    assert code == 2
    assert err == f"error: {message}\n"


def _vertex_with_boundary(boundary):
    data = complex_to_dict(circle(3))
    data["cells"]["0"][0]["boundary"] = boundary
    return data


# Files that the input checks below read, by the name an argument gives them.
INPUT_FILES = {
    "negative-dimension.json": {"dimension": -1, "betti": []},
    "dimension-zero.json": {"dimension": 0, "betti": [1]},
    "vertex-boundary.json": _vertex_with_boundary([["s1", 1]]),
    # read as it stands, vertex 0's boundary 5·v0 would give stsys_0 = 1/6
    "vertex-five.json": _vertex_with_boundary([["s0", 5]]),
    "s2.json": complex_to_dict(sphere(2)),
    "c3.json": complex_to_dict(circle(3)),
    "c3-cubical.json": complex_to_dict(circle(3, kind="cubical")),
    "two-circles.json": complex_to_dict(disjoint_two_circles()),
}


@pytest.mark.parametrize("argv, message", [
    (["lpd", "S0"], "sphere dimension must be >= 1"),
    (["catstsys", ""], "empty product expression"),
    (["catstsys", "negative-dimension.json"], "dimension must be at least 0, not -1"),
    (["catstsys", "dimension-zero.json"], "n must be positive"),
    (["homology", "vertex-boundary.json"], "vertices cannot have boundary"),
    (["systole", "vertex-five.json", "-q", "0"], "vertices cannot have boundary"),
    (["deform", "s2.json", "s2.json", "--partition", "1,3"],
     "partition part 1 has trivial homology on the product"),
    (["verify", "degree-sandwich", "c3-cubical.json", "c3-cubical.json", "--vertex-map", "0,1,2",
      "-q", "1"], "both complexes must be simplicial"),
    (["verify", "degree-sandwich", "s2.json", "c3.json", "--vertex-map", "0,1,2,0", "-q", "1"],
     "source and target must share the top dimension"),
    (["verify", "degree-sandwich", "two-circles.json", "c3.json", "--vertex-map", "0,1,2,0,1,2",
      "-q", "1"], "degree needs one-dimensional top homology on both sides"),
    (["catstsys", "S\u00b2 x S3"], "cannot parse factor 'S\u00b2'; expected e.g. S3"),
    (["catstsys", "S1 x"], "cannot parse product expression 'S1 x'; "
                           "expected factors joined by x or *, e.g. S1 x S3"),
    (["lpd", "x S1"], "cannot parse product expression 'x S1'; "
                      "expected factors joined by x or *, e.g. S1 x S3"),
    (["catstsys", "S1 * * S2"], "cannot parse product expression 'S1 * * S2'; "
                                "expected factors joined by x or *, e.g. S1 x S3"),
    (["lpd", "S1 S2"], "cannot parse product expression 'S1 S2'; "
                       "expected factors joined by x or *, e.g. S1 x S3"),
], ids=["sphere-zero", "empty-expression", "negative-dimension", "dimension-zero",
        "vertex-boundary", "vertex-boundary-systole", "trivial-part", "cubical-map", "dimension-mismatch",
        "two-top-classes", "superscript-digit", "trailing-operator", "leading-operator",
        "doubled-operator", "missing-operator"])
def test_input_check_exits_two_with_its_message(argv, message, tmp_path, capsys):
    for name in set(argv) & set(INPUT_FILES):
        (tmp_path / name).write_text(json.dumps(INPUT_FILES[name]))
    argv = [str(tmp_path / a) if a in INPUT_FILES else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_zero_denominator_weight_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(_circle_with(weight="1/0"))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert err == "error: '1/0' has a zero denominator\n"


@pytest.mark.parametrize("argv", [
    ("stable-norm", "flat_torus3", "-q", "1", "--class", "1/0,1"),
    ("verify", "rescale", "circle3", "-q", "1", "--t", "1/0"),
    ("deform", "circle3", "circle3", "--partition", "1,1", "--t", "2,1/0"),
], ids=["class", "verify-rescale-t", "deform-t"])
def test_zero_denominator_argument_exits_two(argv, files, capsys):
    code, _, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert err == "error: '1/0' has a zero denominator\n"


@pytest.mark.parametrize("argv", [
    ("stable-norm", "flat_torus3", "-q", "1", "--class", "1e99999999,1"),
    ("verify", "rescale", "circle3", "-q", "1", "--t", "1e99999999"),
    ("deform", "circle3", "circle3", "--partition", "1,1", "--t", "2,1e99999999"),
], ids=["class", "verify-rescale-t", "deform-t"])
def test_decimal_exponent_past_the_bound_exits_two(argv, files, capsys):
    code, _, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert err == "error: '1e99999999' has a decimal exponent beyond ±4300\n"


def test_boolean_betti_number_exits_two_naming_the_field(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"name": "X", "dimension": 2, "betti": [1, True, 1]}))
    code, _, err = run(capsys, "catstsys", str(path))
    assert code == 2
    assert err == "error: a Betti number must be an integer, not True\n"


def test_unknown_face_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(_circle_with(boundary=[["s9", 1], ["s0", -1]]))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert err == "error: boundary of s0.1 names unknown face 's9'\n"


def test_unmapped_source_vertex_is_named(files, capsys):
    code, _, err = run(capsys, "verify", "degree-sandwich", files["circle6"],
                       files["circle3"], "--vertex-map", "0,1,2", "-q", "1")
    assert code == 2
    assert err == "error: vertex map gives no image for source vertex 3\n"


def test_catstsys_expression(capsys):
    code, out, _ = run(capsys, "catstsys", "S1 x S2")
    assert code == 0
    assert "catstsys(S1 x S2) = 2" in out
    assert "factor-sum rule inapplicable" in out


def test_catstsys_and_lpd_on_a_profile_file(tmp_path, capsys):
    path = str(tmp_path / "q.json")
    save_profile(DimensionProfile(n=4, betti=(1, 0, 1, 0, 1), name="Q"), path)
    code, out, _ = run(capsys, "catstsys", path)
    assert code == 0
    assert out.splitlines()[0] == "catstsys(Q) in [1, 2]"
    assert run(capsys, "lpd", path) == (0, "lpd = 2\n", "")


def test_fmt_beyond_float_range():
    assert fmt(F(1, 3)) == "1/3 (~0.333333)"
    assert fmt(F(10**400, 3)) == f"{10**400}/3"


def test_verify_rescale_beyond_float_range(files, capsys):
    code, out, err = run(capsys, "verify", "rescale", files["circle3"],
                         "-q", "1", "--t", f"{10**400}/3")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [f"PASS rescaling-law: {10**400} == {10**400}",
                                    f"  t = {10**400}/3"]


def test_verify_rescale(files, capsys):
    code, out, _ = run(capsys, "verify", "rescale", files["circle3"],
                       "-q", "1", "--t", "7")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_product(files, capsys):
    code, out, _ = run(capsys, "verify", "product", files["circle3"],
                       files["circle3"], "-p", "1", "-q", "1")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("argv, above_top", [
    (("systole", "circle3"), "stsys_2 = trivial"),
    (("verify", "projection", "circle3", "circle3"), "INAPPLICABLE projection-equality"),
], ids=["systole", "verify-projection"])
def test_negative_degree_exits_two(argv, above_top, files, capsys):
    # as stable-norm does, while a degree above the top is trivial or inapplicable
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, "-q", "-1")
    assert (code, out, err) == (2, "", "error: degree -1 out of range\n")
    code, out, _ = run(capsys, *argv, "-q", "2")
    assert code == 0 and out.startswith(above_top)


def test_verify_projection_inapplicable_exits_zero(files, capsys):
    code, out, _ = run(capsys, "verify", "projection", files["circle3"],
                       files["circle3"], "-q", "1")
    assert code == 0
    assert out.startswith("INAPPLICABLE")


def test_verify_projection_scales_by_the_lightest_vertex(files, tmp_path, capsys):
    # every vertex of the sphere weighs 2, so stsys_1(C3 x S2) = stsys_1(C3)·2
    path = str(tmp_path / "s2v2.json")
    save_complex(simplicial_from_top(list(itertools.combinations(range(4), 3)),
                                     weights={(v,): 2 for v in range(4)}), path)
    code, out, _ = run(capsys, "verify", "projection", files["circle3"], path, "-q", "1")
    assert (code, out) == (0, "PASS projection-equality: 6 == 6\n  q = 1\n")


def test_upper_bound_systoles_print_inconclusive(files, capsys, monkeypatch):
    capped_systoles(monkeypatch)
    code, out, _ = run(capsys, "verify", "rescale", files["circle3"], "-q", "1", "--t", "7")
    assert code == 0
    assert out.startswith("INCONCLUSIVE rescaling-law: 21 == 21")
    code, out, _ = run(capsys, "deform", files["circle3"], files["circle3"],
                       "--partition", "1,1", "--t", "1,2")
    assert code == 0
    assert "verdict: inconclusive" in out


def test_verify_degree_sandwich(files, capsys):
    code, out, _ = run(capsys, "verify", "degree-sandwich", files["circle6"],
                       files["circle3"], "--vertex-map", "0,1,2,0,1,2", "-q", "1")
    assert code == 0
    assert "degree-bound = 2" in out


def test_verify_degree_sandwich_not_injective_is_inapplicable(files, capsys):
    code, out, _ = run(capsys, "verify", "degree-sandwich", files["circle6"],
                       files["circle3"], "--vertex-map", "0,1,2,1,0,2", "-q", "1")
    assert code == 0
    assert out.startswith("INAPPLICABLE degree-sandwich: map is not injective")


@pytest.mark.parametrize("partition", ["1", ","], ids=["short", "empty"])
def test_deform_partition_must_sum_to_the_dimension(partition, files, tmp_path, capsys):
    c4 = str(tmp_path / "c4.json")
    save_complex(circle(4), c4)
    code, out, err = run(capsys, "deform", files["circle3"], c4, "--partition", partition)
    assert (code, out) == (2, "")
    assert err.startswith("error: partition sums to ") and err.endswith("not to the dimension 2\n")


def test_deform_beyond_float_range(files, tmp_path, capsys):
    s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
    save_complex(circle(3, kind="cubical"), s1)
    save_complex(cubical_sphere(2), s2)
    code, out, err = run(capsys, "deform", s1, s2, "--partition", "1,1,1", "--t", "1,2,1e200")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("verdict: diverges(2) (growth exponent 2;")
    code, out, err = run(capsys, "deform", files["circle3"], files["circle3"],
                         "--partition", "1,1", "--t", "1,1e400")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("verdict: bounded (growth exponent -1;")


def test_deform_csv(files, capsys):
    code, out, _ = run(capsys, "deform", files["circle3"], files["circle3"],
                       "--partition", "1,1", "--t", "1,2", "--format", "csv")
    assert code == 0
    assert out.startswith("t,systole_q1_part0")
    assert "verdict: bounded" in out


@pytest.mark.parametrize("ts", ["", " , "])
def test_deform_without_samples_exits_two(files, capsys, ts):
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, "deform", files["circle3"], files["circle3"],
                             "--partition", "1,1", "--t", ts, "--format", fmt)
        assert (code, out) == (2, "")
        assert "error:" in err and "empty" in err


def test_deform_one_sample_is_inconclusive(files, capsys):
    code, out, _ = run(capsys, "deform", files["circle3"], files["circle3"],
                       "--partition", "1,1", "--t", "2")
    assert code == 0
    assert out.splitlines() == ["t = 2: product = 9, volume = 18, ratio = 1/2 (~0.5)",
                                "verdict: inconclusive (growth exponent n/a; "
                                "evidence along one family, not a proof)"]


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "homology", "/nonexistent/file.json")
    assert code == 2
    assert "error:" in err


def test_bad_expression_exits_two(capsys):
    code, _, err = run(capsys, "catstsys", "T2 x S1")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# Argument fuzzing: junk in any numeric option exits 0 or 2, never a traceback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, K in {"circle3": circle(3), "circle4": circle(4), "flat_torus3": flat_torus(3)}.items():
        paths[name] = str(root / f"{name}.json")
        save_complex(K, paths[name])
    return paths


JUNK_TOKENS = ("", " ", ",", "x", "1/0", "0/0", "1/2", "-1/2", "1e3", "nan", "inf", "-", "--",
               "1,,2", "2/", "/3", "0x1", "1_0", "\u0661", "+1", " 1 ")
DEGREES = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(("99999999999999999999", "-99999")),
                    st.sampled_from(JUNK_TOKENS))
RADII = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(JUNK_TOKENS))  # searches stay short
FRACTIONS = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(JUNK_TOKENS),
                      st.fractions(min_value=-4, max_value=4, max_denominator=5).map(str))
LISTS = st.one_of(st.lists(FRACTIONS, max_size=3).map(",".join), st.sampled_from(JUNK_TOKENS))
INT_LISTS = st.one_of(st.lists(st.integers(-2, 4).map(str), max_size=4).map(",".join),
                      st.lists(st.sampled_from(JUNK_TOKENS), min_size=1, max_size=2).map(",".join))
CIRCLES = st.sampled_from(("circle3", "circle4"))
ANY_FILE = st.sampled_from(("circle3", "circle4", "flat_torus3"))


@st.composite
def command_lines(draw):
    # one subcommand with every numeric option drawn from junk; two-file
    # commands use the circles, so products stay small
    kind = draw(st.sampled_from(("systole", "stable-norm", "rescale", "product", "projection",
                                 "degree-sandwich", "deform")))
    if kind == "systole":
        return ["systole", draw(ANY_FILE), "-q", draw(DEGREES), "-R", draw(RADII)]
    if kind == "stable-norm":
        coords = draw(LISTS)
        spelling = draw(st.sampled_from((["--class=" + coords], ["--class", coords])))
        return ["stable-norm", draw(ANY_FILE), "-q", draw(DEGREES), *spelling]
    if kind == "rescale":
        return ["verify", "rescale", draw(ANY_FILE), "-q", draw(DEGREES), "--t=" + draw(FRACTIONS)]
    if kind == "product":
        return ["verify", "product", draw(CIRCLES), draw(CIRCLES), "-p", draw(DEGREES), "-q", draw(DEGREES)]
    if kind == "projection":
        return ["verify", "projection", draw(CIRCLES), draw(CIRCLES), "-q", draw(DEGREES)]
    if kind == "degree-sandwich":
        return ["verify", "degree-sandwich", draw(CIRCLES), draw(CIRCLES),
                "--vertex-map=" + draw(INT_LISTS), "-q", draw(DEGREES)]
    return ["deform", draw(CIRCLES), draw(CIRCLES), "--partition=" + draw(INT_LISTS),
            "--t=" + draw(LISTS), "-R", draw(RADII)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
@example(["stable-norm", "circle3", "-q", "1", "--class=--"])  # argparse gives a list
@example(["stable-norm", "circle3", "-q", "1", "--class", "--"])
@example(["verify", "projection", "circle3", "circle4", "-q", "99999999999999999999"])
@example(["verify", "degree-sandwich", "circle4", "circle3", "--vertex-map=1,2,1,2", "-q", "2"])
@example(["verify", "degree-sandwich", "circle4", "circle3", "--vertex-map=1,2,1,2", "-q", "0"])
def test_junk_arguments_exit_zero_or_two(small_files, capsys, argv):
    argv = [small_files.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the token
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2), argv
