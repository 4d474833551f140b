"""Exact stable systolic machinery on finite weighted cell complexes.

Everything is computed over the rationals: homology with integer
generators, stable norms and systoles via exact linear programming,
simplicial cup products, category-style partition bounds, and
deformation sweeps of product metrics.
"""

from .category import (
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
)
from .cohomology import (
    Cochain,
    CohomologyBasis,
    RingProfile,
    coboundary,
    cohomology_basis,
    cohomology_coordinates,
    cup_length,
    cup_product,
    has_maximal_real_cup_length,
    is_cocycle,
    lpd,
    pairing,
    ring_profile,
)
from .complexes import (
    Chain,
    ComplexInvariantError,
    DeformationFamily,
    WeightedCellComplex,
    build_complex,
    circle,
    cubical_sphere,
    flat_torus,
    point,
    product_complex,
    rp2,
    simplicial_from_top,
    sphere,
    torus_triangulated,
)
from .deform import (
    DeformationReport,
    SweepSample,
    deformation_sweep,
    fundamental_class_mass,
)
from .homology import (
    HomologyClass,
    HomologySummary,
    class_coordinates,
    homology,
    smith_normal_form,
)
from .io import (
    complex_from_dict,
    complex_to_dict,
    csv_to_samples,
    load_complex,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    report_to_csv,
    save_complex,
    save_profile,
)
from .lp import Infeasible, LPError, Unbounded, solve_lp
from .norms import (
    SimplicialMapInfo,
    StableNormResult,
    SystoleResult,
    VerificationReport,
    minimum_mass_cycle,
    pullback_weights,
    push_chain,
    simplicial_map,
    stable_norm,
    stable_systole,
    verify_degree_sandwich,
    verify_product_inequality,
    verify_projection_equality,
    verify_rescaling,
)

__version__ = "0.1.0"
