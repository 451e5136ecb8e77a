"""Adapted optimal transport between laws of one-dimensional diffusions.

The package estimates adapted (bicausal) Wasserstein-type distances between
SDE laws with the synchronous coupling, discretises drifts with jump
discontinuities through a monotone state-space transform, solves the
discrete-time bicausal problem exactly on finite trees in rational
arithmetic, and bounds optimal-stopping values through transport distances.
The ``awsde`` console script exposes the reproducible experiments.
"""

from .discrete_bicausal import (
    BicausalPlan,
    CostFunctional,
    FiniteAdaptedProcess,
    PlanNode,
    TreeNode,
    antitone_first_plan,
    check_quasi_monotone,
    check_stochastic_monotone,
    exact_bicausal_value,
    knothe_rosenblatt,
    kr_suboptimal_pair,
    node,
    perturbed_start_pair,
    plan_cost,
    power_cost,
    process,
)
from .errors import (
    AssumptionError,
    AwsdeError,
    BracketError,
    ConfigurationError,
    StepSizeError,
)
from .estimator import (
    EstimateResult,
    MomentRow,
    MonotonicityWitness,
    RateCurve,
    SlopeFit,
    estimate_aw,
    estimate_aw_sweep,
    estimate_vc,
    moment_diagnostic,
    monotonicity_witness,
    one_step_cdf,
    power_time_cost,
    strong_error_curve,
    write_aw_estimates_csv,
    write_rate_curve_csv,
)
from .models import (
    BUILTIN_MODELS,
    AssumptionReport,
    CoefficientSpec,
    builtin_model,
    validate_assumptions,
)
from .randomness import (
    TimeGrid,
    sample_increment_block,
    truncation_level,
)
from .schemes import (
    SCHEMES,
    StepperConfig,
    config_from_alias,
    em_step,
    guard_report,
    implicit_solve,
    semi_implicit_em_step,
    simulate_coupled_block,
    simulate_path_block,
    simulate_synchronous_block,
    symmetrised_em_step,
    transformed_step,
)
from .stopping import (
    PathPayoff,
    coordinate_payoff,
    snell_value,
    stopping_stability_gap,
    verify_payoff_lipschitz,
)
from .transform import (
    PiecewiseTransform,
    TransformedCoefficients,
    build_transform,
    transformed_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "AwsdeError",
    "ConfigurationError",
    "AssumptionError",
    "StepSizeError",
    "BracketError",
    # models
    "CoefficientSpec",
    "AssumptionReport",
    "validate_assumptions",
    "builtin_model",
    "BUILTIN_MODELS",
    # randomness
    "TimeGrid",
    "sample_increment_block",
    "truncation_level",
    # transform
    "PiecewiseTransform",
    "TransformedCoefficients",
    "build_transform",
    "transformed_coefficients",
    # schemes
    "SCHEMES",
    "StepperConfig",
    "config_from_alias",
    "guard_report",
    "em_step",
    "implicit_solve",
    "semi_implicit_em_step",
    "transformed_step",
    "symmetrised_em_step",
    "simulate_synchronous_block",
    "simulate_path_block",
    "simulate_coupled_block",
    # trees and exact transport
    "TreeNode",
    "FiniteAdaptedProcess",
    "CostFunctional",
    "power_cost",
    "PlanNode",
    "BicausalPlan",
    "node",
    "process",
    "knothe_rosenblatt",
    "antitone_first_plan",
    "plan_cost",
    "exact_bicausal_value",
    "check_stochastic_monotone",
    "check_quasi_monotone",
    "kr_suboptimal_pair",
    "perturbed_start_pair",
    # stopping
    "PathPayoff",
    "coordinate_payoff",
    "snell_value",
    "verify_payoff_lipschitz",
    "stopping_stability_gap",
    # estimation
    "EstimateResult",
    "RateCurve",
    "SlopeFit",
    "MomentRow",
    "MonotonicityWitness",
    "power_time_cost",
    "estimate_vc",
    "estimate_aw",
    "estimate_aw_sweep",
    "strong_error_curve",
    "moment_diagnostic",
    "one_step_cdf",
    "monotonicity_witness",
    "write_aw_estimates_csv",
    "write_rate_curve_csv",
]
