"""The package namespace and what a cold command loads.

In-process tests have already loaded every layer, so what a cold run loads
is observed in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
import types

import pytest

import stasys
from stasys import circle, parse_product_expression, save_complex, save_profile

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stasys.__file__)))
LAYERS = ("category", "cohomology", "complexes", "deform", "homology", "io", "linalg",
          "lp", "norms")

# Every public name, by the module it is imported from.
PUBLIC = {
    "category": "CategoryVerdict DimensionProfile Partition catstsys_bounds "
                "enumerate_partitions kunneth_product mod_condition parse_product_expression "
                "partition_verdicts product_profile profile_from_complex sphere_profile",
    "cohomology": "Cochain RingProfile coboundary cohomology_basis "
                  "cohomology_coordinates cup_length cup_product has_maximal_real_cup_length "
                  "is_cocycle lpd pairing ring_profile",
    "complexes": "Chain ComplexInvariantError DeformationFamily WeightedCellComplex "
                 "build_complex circle cubical_sphere flat_torus point product_complex rp2 "
                 "simplicial_from_top sphere torus_triangulated",
    "deform": "DeformationReport SweepSample deformation_sweep fundamental_class_mass",
    "homology": "HomologyClass HomologySummary class_coordinates homology smith_normal_form",
    "io": "complex_from_dict complex_to_dict csv_to_samples load_complex load_profile "
          "profile_from_dict profile_to_dict report_to_csv save_complex save_profile",
    "lp": "Infeasible LPError Unbounded solve_lp",
    "norms": "SimplicialMapInfo StableNormResult SystoleResult VerificationReport "
             "minimum_mass_cycle pullback_weights push_chain simplicial_map stable_norm "
             "stable_systole verify_degree_sandwich verify_product_inequality "
             "verify_projection_equality verify_rescaling",
}
NAMES = sorted(name for names in PUBLIC.values() for name in names.split())

# Prints, at exit, the stasys modules whose body has run.  Reading the class
# with object.__getattribute__ does not trigger a lazy module's load.
REPORT_LOADED = """\
import atexit, sys, types

def _report():
    loaded = sorted(name[len("stasys."):] for name, m in sys.modules.items()
                    if name.startswith("stasys.")
                    and object.__getattribute__(m, "__class__") is types.ModuleType)
    print("loaded:", *loaded, file=sys.stderr)

atexit.register(_report)
"""


def cold(tmp_path, *args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with nothing compiled ahead."""
    (tmp_path / "sitecustomize.py").write_text(REPORT_LOADED)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def loaded(proc: subprocess.CompletedProcess) -> list[str]:
    line = proc.stderr.splitlines()[-1]
    assert line.startswith("loaded:"), proc.stderr
    return line.split()[1:]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_their_home_modules_objects(module):
    home = importlib.import_module(f"stasys.{module}")
    names = PUBLIC[module].split()
    imported = {}
    exec(f"from stasys import {', '.join(names)}", imported)
    for name in names:
        assert getattr(stasys, name) is getattr(home, name), name
        assert imported[name] is getattr(home, name), name


def test_homology_is_the_function():
    module = importlib.import_module("stasys.homology")
    assert isinstance(module, types.ModuleType)
    assert callable(stasys.homology)
    assert stasys.homology is module.homology
    import stasys.homology as by_dotted_name
    assert by_dotted_name is module.homology


def test_dir_and_all_list_every_name():
    assert sorted(stasys.__all__) == NAMES
    assert set(NAMES) | set(LAYERS) - {"homology"} <= set(dir(stasys))
    for layer in set(LAYERS) - {"homology"}:
        assert getattr(stasys, layer) is sys.modules[f"stasys.{layer}"]
    with pytest.raises(AttributeError):
        stasys.no_such_name


def test_import_registers_every_layer_without_running_it(tmp_path):
    proc = cold(tmp_path, "-c", "import sys, stasys; "
                "print(*sorted(n for n in sys.modules if n.startswith('stasys.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"stasys.{layer}" for layer in LAYERS]
    assert loaded(proc) == []


def with_files(tmp_path, argv: list[str]) -> list[str]:
    """argv with FILE a saved circle(3) and PROFILE the saved profile of S1 x S3."""
    files = {"FILE": tmp_path / "circle3.json", "PROFILE": tmp_path / "s1s3.json"}
    save_complex(circle(3), str(files["FILE"]))
    save_profile(parse_product_expression("S1 x S3"), str(files["PROFILE"]))
    return [str(files.get(a, a)) for a in argv]


@pytest.mark.parametrize("argv, out, layers", [
    (["lpd", "S1"], "lpd = 1", ["category"]),
    (["catstsys", "S1 x S2"], "catstsys(S1 x S2) = 2", ["category"]),
    (["catstsys", "PROFILE"], "catstsys(S1 x S3) = 2", ["category", "io"]),
    (["homology", "FILE"], "H_0: betti = 1",
     ["complexes", "homology", "io", "linalg"]),
    (["systole", "FILE", "-q", "1"], "stsys_1 = 3",
     ["complexes", "homology", "io", "linalg", "lp", "norms"]),
], ids=["lpd", "catstsys", "catstsys-profile", "homology", "systole"])
def test_cold_command_runs_only_its_layers(tmp_path, argv, out, layers):
    """The CLI runs as __main__, so its own module is not in the list."""
    proc = cold(tmp_path, "-m", "stasys.cli", *with_files(tmp_path, argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out)
    assert loaded(proc) == layers


# Runs the CLI, then prints every module whose body has run: the standard
# library's and, of the lazy stasys layers, those that have loaded.
RUN_AND_LIST = """\
import sys, types
import stasys.cli
code = stasys.cli.main(sys.argv[1:])
print("loaded:", *sorted(name for name, m in sys.modules.items()
                         if object.__getattribute__(m, "__class__") is types.ModuleType))
sys.exit(code)
"""
UNUSED = ("dataclasses", "inspect", "typing", "fractions", "decimal")


@pytest.mark.parametrize("argv, unused", [
    (["lpd", "S1"], UNUSED),
    (["catstsys", "S1 x S3"], UNUSED),
    (["lpd", "PROFILE"], UNUSED[:3]),
    (["catstsys", "PROFILE"], UNUSED[:3]),
], ids=["lpd", "catstsys", "lpd-profile", "catstsys-profile"])
def test_cold_sphere_product_command_imports_only_what_it_uses(tmp_path, argv, unused):
    """Without `site` (`python -S`), which imports modules of its own, a
    sphere-product command imports no record machinery, and no `fractions`
    unless it reads a file; a profile file runs no `complexes`."""
    proc = cold(tmp_path, "-S", "-c", RUN_AND_LIST, *with_files(tmp_path, argv))
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.splitlines()[-1].split()
    assert modules[0] == "loaded:"
    assert not set(unused) & set(modules)
    assert "stasys.category" in modules and "stasys.complexes" not in modules
