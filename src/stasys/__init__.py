"""Exact stable systolic machinery on finite weighted cell complexes.

Everything is computed over the rationals: homology with integer
generators, stable norms and systoles via exact linear programming,
simplicial cup products, category-style partition bounds, and
deformation sweeps of product metrics.

Each layer loads on first use.  ``import stasys`` registers every library
module in ``sys.modules`` without running it; a module's body runs when one
of its attributes is first read, and ``from stasys import X`` (or
``stasys.X``) loads X's home module and what that imports.  So a command of
the CLI compiles only the layers it needs: ``lpd`` and ``catstsys`` on an
expression run ``category`` alone, and on a profile file ``category`` and
``io``; ``homology FILE`` runs ``io``, ``complexes``, ``homology`` and
``linalg``, and ``systole`` adds ``norms`` and ``lp``.  The category
records are plain classes, so an expression command imports no
``dataclasses``, ``typing`` or ``fractions``, and a profile file no
``dataclasses`` or ``typing``.  ``stasys.homology`` is the function; the
module is ``sys.modules["stasys.homology"]``.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

# Public names by home module.
_EXPORTS = {
    "category": (
        "CategoryVerdict", "DimensionProfile", "Partition", "catstsys_bounds",
        "enumerate_partitions", "kunneth_product", "mod_condition", "parse_product_expression",
        "partition_verdicts", "product_profile", "profile_from_complex", "sphere_profile",
    ),
    "cohomology": (
        "Cochain", "RingProfile", "coboundary", "cohomology_basis",
        "cohomology_coordinates", "cup_length", "cup_product", "has_maximal_real_cup_length",
        "is_cocycle", "lpd", "pairing", "ring_profile",
    ),
    "complexes": (
        "Chain", "ComplexInvariantError", "DeformationFamily", "WeightedCellComplex",
        "build_complex", "circle", "cubical_sphere", "flat_torus", "point", "product_complex",
        "rp2", "simplicial_from_top", "sphere", "torus_triangulated",
    ),
    "deform": ("DeformationReport", "SweepSample", "deformation_sweep", "fundamental_class_mass"),
    "homology": (
        "HomologyClass", "HomologySummary", "class_coordinates", "homology", "smith_normal_form",
    ),
    "io": (
        "complex_from_dict", "complex_to_dict", "csv_to_samples", "load_complex", "load_profile",
        "profile_from_dict", "profile_to_dict", "report_to_csv", "save_complex", "save_profile",
    ),
    "linalg": (),
    "lp": ("Infeasible", "LPError", "Unbounded", "solve_lp"),
    "norms": (
        "SimplicialMapInfo", "StableNormResult", "SystoleResult", "VerificationReport",
        "minimum_mass_cycle", "pullback_weights", "push_chain", "simplicial_map", "stable_norm",
        "stable_systole", "verify_degree_sandwich", "verify_product_inequality",
        "verify_projection_equality", "verify_rescaling",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

for _layer in _EXPORTS:
    # No package attribute is set, so the name `homology` stays the function.
    _spec = _find_spec(f"{__name__}.{_layer}")
    _spec.loader = _LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = _module_from_spec(_spec)
    _spec.loader.exec_module(_sys.modules[_spec.name])
del _layer, _spec


def __getattr__(name: str):
    """A public name, read from its home module on each access (so a name
    rebound there is seen here), or a layer module."""
    if name in _HOME:
        return getattr(_sys.modules[f"{__name__}.{_HOME[name]}"], name)
    if name in _EXPORTS:
        return _sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
