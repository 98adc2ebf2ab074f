"""Long-time strong approximation toolkit for dissipative SDEs.

Implicit (backward Euler) and projected explicit integrators for Ito
equations whose drift grows polynomially but is contractive on average,
plus the plain Euler-Maruyama scheme for contrast, coupled-noise Monte
Carlo experiments over arbitrarily long horizons, and samplers that
certify the structural assumptions the error bounds rest on.
"""

from .errors import SolverFailure, UsageError
from .model import (AssumptionReport, MonotoneConstants, SampleSpec,
                    SdeProblem, build_allen_cahn, build_ginzburg_landau,
                    check_contractive_monotone, check_poly_lipschitz,
                    max_feasible_pstar, theorem_admissible_p_max)
from .noise import (NoiseGrid, coarsen, make_noise_grid, pairwise_block_sum,
                    path_generator, path_seed_sequence)
from .schemes import SchemeConfig, SchemeOrders, scheme_orders, step_ceiling
from .simulate import (ErrorCurve, MomentEstimate, contraction_experiment,
                       estimate_from_samples, evolve_terminal, moment_trace,
                       one_step_order_experiment, remainder_scaling_experiment,
                       resolve_threads, strong_error_experiment)
from .analysis import (ConvergenceReport, FitResult, decay_slope, fit_order,
                       make_convergence_report, stationarity_gap)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SolverFailure", "UsageError",
    # model
    "AssumptionReport", "MonotoneConstants", "SampleSpec", "SdeProblem",
    "build_allen_cahn", "build_ginzburg_landau", "check_contractive_monotone",
    "check_poly_lipschitz", "max_feasible_pstar", "theorem_admissible_p_max",
    # noise
    "NoiseGrid", "coarsen", "make_noise_grid", "pairwise_block_sum",
    "path_generator", "path_seed_sequence",
    # schemes
    "SchemeConfig", "SchemeOrders", "scheme_orders", "step_ceiling",
    # simulate
    "ErrorCurve", "MomentEstimate", "contraction_experiment",
    "estimate_from_samples", "evolve_terminal", "moment_trace",
    "one_step_order_experiment", "remainder_scaling_experiment",
    "resolve_threads", "strong_error_experiment",
    # analysis
    "ConvergenceReport", "FitResult", "decay_slope", "fit_order",
    "make_convergence_report", "stationarity_gap",
]
