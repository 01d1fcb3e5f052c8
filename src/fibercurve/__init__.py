"""fibercurve: level curves of concave-convex variational problems.

The library studies functionals with a coercive part N, a concave-exponent
part A, and a convex-exponent part B (exponents 1 < alpha < eta < beta) where
the multiplier lambda is the unknown: prescribing the energy value c turns
lambda into a function of the state, and its constrained extrema over cones
trace curves c -> lambda.  The package provides the scalar fibering analysis
along rays, discretized model problems on grids, the sphere optimizers, curve
tracing with shape verdicts, and a CLI producing CSV/JSON/SVG artifacts.

The scalar root-finding kernels along one ray live in fibercurve._kernels,
plain Python on floats.
"""

from .curve_tracer import (
    EnergyCurve,
    extend_minus_past_cstarstar,
    geometric_grid,
    intersect_with_lambda,
    limit_check_zero,
    ordering_check,
    trace_curve,
    trace_family,
)
from .fibering import (
    Case,
    FiberingProfile,
    RayData,
    classify_and_solve,
    extremal_pair,
    fibering_d1,
    fibering_d2,
    fibering_value,
    ray_data,
    restricted_lambda,
    zero_level_pair,
)
from .functional_core import (
    ConeTag,
    Exponents,
    FunctionalTriple,
    cone_membership,
    lambda_of,
    phi,
    phi_grad,
)
from .model_problems import (
    Grid,
    PLaplacianProblem,
    WeightField,
    build_disjoint_basis,
    build_triple,
    cone_node_mask,
    construct_weight_for_conjecture,
    dirichlet_problem_1d,
    dirichlet_problem_2d,
    truncated_problem_1d,
    weights_from_csv,
    weights_from_expressions,
)
from .nehari_minmax import (
    CriticalPointRecord,
    GenusSurrogate,
    InfeasibleLevelError,
    InfeasibleRayError,
    OptimizerParams,
    SphereConstraint,
    SurrogateLevel,
    compute_c_star,
    compute_c_star_star,
    extract_critical_point,
    lambda_tilde,
    level_slope,
    minimize_c0,
    minimize_ground_level,
    surrogate_level,
)
from .reporting import (
    build_report,
    render_diagram_svg,
    write_curves_csv,
    write_diagram_svg,
    write_report_json,
)

__version__ = "0.1.0"

__all__ = [
    "Case",
    "ConeTag",
    "CriticalPointRecord",
    "EnergyCurve",
    "Exponents",
    "FiberingProfile",
    "FunctionalTriple",
    "GenusSurrogate",
    "Grid",
    "InfeasibleLevelError",
    "InfeasibleRayError",
    "OptimizerParams",
    "PLaplacianProblem",
    "RayData",
    "SphereConstraint",
    "SurrogateLevel",
    "WeightField",
    "build_disjoint_basis",
    "build_report",
    "build_triple",
    "classify_and_solve",
    "compute_c_star",
    "compute_c_star_star",
    "cone_membership",
    "cone_node_mask",
    "construct_weight_for_conjecture",
    "dirichlet_problem_1d",
    "dirichlet_problem_2d",
    "extend_minus_past_cstarstar",
    "extract_critical_point",
    "extremal_pair",
    "fibering_d1",
    "fibering_d2",
    "fibering_value",
    "geometric_grid",
    "intersect_with_lambda",
    "lambda_of",
    "lambda_tilde",
    "level_slope",
    "limit_check_zero",
    "minimize_c0",
    "minimize_ground_level",
    "ordering_check",
    "phi",
    "phi_grad",
    "ray_data",
    "render_diagram_svg",
    "restricted_lambda",
    "surrogate_level",
    "trace_curve",
    "trace_family",
    "truncated_problem_1d",
    "weights_from_csv",
    "weights_from_expressions",
    "write_curves_csv",
    "write_diagram_svg",
    "write_report_json",
]
