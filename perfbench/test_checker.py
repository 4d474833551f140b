"""The benchmark's own tests: the checker accepts right answers and flags
corrupted ones, and the seeded inputs are valid and reproducible.

Run from the root of a checkout with either of

    python3 perfbench/test_checker.py
    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
from stasys import (  # noqa: E402
    Chain,
    DeformationFamily,
    HomologyClass,
    Partition,
    deformation_sweep,
    homology,
    stable_norm,
    stable_systole,
)


def test_systole_off_by_one_is_flagged():
    K = inputs.build("ft3")
    t = Fraction(3, 2)
    res = stable_systole(K.rescale(t), 1)
    expected = inputs.expected_systole("ft3", 1, t)
    assert checker.check_systole(res, expected) == []
    wrong = dataclasses.replace(res, value=res.value + 1)
    assert checker.check_systole(wrong, expected)
    trivial = dataclasses.replace(res, value=None, search_status="trivial")
    assert checker.check_systole(trivial, expected)


def test_homology_corruptions_are_flagged():
    K = inputs.permute(inputs.build("t9"), random.Random(1))
    summary = homology(K)
    betti, torsion = inputs.expected_homology("t9")
    assert checker.check_homology(K, summary, betti, torsion) == []
    assert checker.check_homology(K, summary, (1, 1, 1), torsion)
    g = summary.generators[1][0]
    bent = Chain(1, (g.coeffs[0] + 1,) + g.coeffs[1:])
    gens = list(summary.generators)
    gens[1] = (bent,) + summary.generators[1][1:]
    assert checker.check_homology(K, dataclasses.replace(summary, generators=tuple(gens)),
                                  betti, torsion)
    maps = list(summary.coordinate_maps)
    maps[1] = tuple(reversed(summary.coordinate_maps[1]))
    assert checker.check_homology(K, dataclasses.replace(summary, coordinate_maps=tuple(maps)),
                                  betti, torsion)


def test_norm_certificate_corruptions_are_flagged():
    K = inputs.build("ft4")
    summary = homology(K)
    cuts = checker.TorusCuts(K)
    coords = (2, -1)
    res = stable_norm(K, HomologyClass(1, coords))
    assert checker.check_norm(K, summary, cuts, coords, res) == []
    assert checker.check_norm(K, summary, cuts, coords,
                              dataclasses.replace(res, value=res.value + 1))
    z = res.optimal_cycle
    moved = Chain(1, (z.coeffs[0] + 1,) + z.coeffs[1:])
    assert checker.check_norm(K, summary, cuts, coords,
                              dataclasses.replace(res, optimal_cycle=moved))
    wrong_class = stable_norm(K, HomologyClass(1, (1, 0)))
    assert checker.check_norm(K, summary, cuts, coords, wrong_class)


def test_change_of_generator_basis_is_not_a_failure():
    K = inputs.build("c3c4")
    summary = homology(K)
    cuts = checker.TorusCuts(K)
    g1, g2 = summary.generators[1]
    new_gens = list(summary.generators)
    new_gens[1] = (g1 + g2, g2)
    rebased = dataclasses.replace(summary, generators=tuple(new_gens))
    res = stable_norm(K, HomologyClass(1, (1, 1)))  # g1 + g2 in the old basis
    assert checker.check_norm(K, rebased, cuts, (1, 0), res) == []
    assert checker.check_norm(K, summary, cuts, (1, 0), res)


def test_sweep_corruptions_are_flagged():
    K = inputs.build("c3c4")
    cuts = checker.TorusCuts(K)
    ts = (Fraction(1), Fraction(2), Fraction(4), Fraction(8))
    report = deformation_sweep(DeformationFamily(K), Partition((1, 1)), t_samples=ts)
    assert checker.check_sweep(report, cuts, (1, 1), ts) == []
    assert checker.check_sweep(dataclasses.replace(report, verdict="diverges(1)"),
                               cuts, (1, 1), ts)
    s = report.samples[-1]
    bad = report.samples[:-1] + (dataclasses.replace(s, ratio=s.ratio * 2),)
    assert checker.check_sweep(dataclasses.replace(report, samples=bad), cuts, (1, 1), ts)


def test_ring_and_cli_outcomes():
    ring = SimpleNamespace(dimension=2, lpd=1, cup_length=2, max_cup_length_flag=True,
                           witness_degrees=(1, 1))
    assert checker.check_ring(ring, inputs.expected_ring("t9")) == []
    ring.cup_length = 1
    assert checker.check_ring(ring, inputs.expected_ring("t9"))
    want = ("lines", ("stsys_1 = 3 *",))
    assert checker.cli_problems(0, "stsys_1 = 3  [certified]\n", "", want) == []
    assert checker.cli_problems(0, "stsys_1 = 4  [certified]\n", "", want)
    assert checker.cli_problems(0, "stsys_1 = 30  [certified]\n", "", want)
    assert checker.cli_problems(2, "", "error: bad\n", ("input-error",)) == []
    assert checker.cli_problems(1, "", "Traceback (most recent call last):\n", ("input-error",))
    assert checker.cli_problems(0, "stsys_1 = trivial\n", "", ("not-trivial",))


def test_permuted_inputs_are_valid_new_and_reproducible():
    base = inputs.build("s1s2")
    a = inputs.permute(base, random.Random("seed/1"))
    b = inputs.permute(base, random.Random("seed/1"))
    c = inputs.permute(base, random.Random("seed/2"))
    assert a == b and a != c and a.cell_ids != base.cell_ids
    a.validate()
    assert inputs.structure_tag(a) != inputs.structure_tag(c)
    betti, torsion = inputs.expected_homology("sph3")
    K = inputs.permute(inputs.build("sph3"), random.Random(3))
    assert checker.check_homology(K, homology(K), betti, torsion) == []


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
