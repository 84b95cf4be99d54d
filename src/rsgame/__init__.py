"""Finite two-player stochastic games under risk-sensitive ergodic cost.

The cost criterion is the long-run growth rate (1/n) ln E[exp(theta *
accumulated cost)].  The package provides model validation against the
standing assumptions (game_model), exponential-cost kernel transforms
(transforms), one-player Bellman solvers by relative value iteration
(bellman), an independent spectral oracle for frozen strategy pairs
(spectral), equilibrium search and certification (nash), seeded trajectory
simulation (sim), and a batch command line (cli).
"""

__version__ = "0.2.0"

from .bellman import (
    SolveResult,
    action_values,
    apply_T,
    dual_value,
    measured_contraction,
    mixed_objective,
    solve_optimality,
    span,
)
from .game_model import (
    AratStructure,
    AssumptionCheck,
    AssumptionError,
    GameInstance,
    ModelDiagnostics,
    StationaryStrategy,
    assemble_from_arat,
    check_strategy,
    g2_instance,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    pure_strategy,
    random_instance,
    require_solvable,
    strategy_from_dict,
    strategy_to_dict,
    uniform_strategy,
    validate,
)
from .nash import (
    BruteForceResult,
    NashCertificate,
    best_response_dynamics,
    brute_force_nash,
    epsilon_gap,
    verify_certificate,
)
from .sim import McEstimate, Trajectory, mc_cost_estimate, sample_path
from .spectral import (
    ergodic_cost,
    finite_horizon_growth,
    horizon_log_mgf,
    perron_value,
    twisted_matrix,
)
from .transforms import log_twisted_tensor, normalized_kernel, twisted_measure

__all__ = [
    "AratStructure", "AssumptionCheck", "AssumptionError", "BruteForceResult",
    "GameInstance", "McEstimate", "ModelDiagnostics", "NashCertificate",
    "SolveResult", "StationaryStrategy", "Trajectory", "action_values",
    "apply_T", "assemble_from_arat", "best_response_dynamics",
    "brute_force_nash", "check_strategy", "dual_value", "epsilon_gap",
    "ergodic_cost", "finite_horizon_growth", "g2_instance", "horizon_log_mgf",
    "instance_digest", "instance_from_dict", "instance_to_dict",
    "log_twisted_tensor", "mc_cost_estimate", "measured_contraction",
    "mixed_objective", "normalized_kernel", "perron_value", "pure_strategy",
    "random_instance", "require_solvable", "sample_path", "solve_optimality",
    "span", "strategy_from_dict", "strategy_to_dict", "twisted_matrix",
    "twisted_measure", "uniform_strategy", "validate", "verify_certificate",
]
