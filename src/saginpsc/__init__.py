"""Energy-minimizing resource allocation for a satellite-UAV-ground relay
network with probabilistic semantic compression."""

from .algorithm import (
    ALL_BLOCKS,
    AlgorithmOptions,
    IterationTrace,
    SchemeId,
    SolveResult,
    initialize,
    run_blocks,
    run_scheme,
)
from .physics import (
    Allocation,
    ConstraintViolation,
    EnergyBreakdown,
    FeasibilityReport,
    ModelError,
    Placement,
    SolutionState,
    check_feasibility,
    energy_breakdown,
    rate_sat_uav,
    rate_uav_gt,
    total_energy,
)
from .scenario import (
    OverheadCurve,
    ScenarioConfig,
    ScenarioError,
    default_document,
    default_overhead_curve,
    generate_gt_positions,
    load_scenario,
    loads_scenario,
    scenario_to_document,
)
from .subsolvers import InfeasibleBlockError, SolverOptions

__version__ = "0.1.0"

__all__ = [
    "ALL_BLOCKS",
    "AlgorithmOptions",
    "Allocation",
    "ConstraintViolation",
    "EnergyBreakdown",
    "FeasibilityReport",
    "InfeasibleBlockError",
    "IterationTrace",
    "ModelError",
    "OverheadCurve",
    "Placement",
    "ScenarioConfig",
    "ScenarioError",
    "SchemeId",
    "SolutionState",
    "SolveResult",
    "SolverOptions",
    "check_feasibility",
    "default_document",
    "default_overhead_curve",
    "energy_breakdown",
    "generate_gt_positions",
    "initialize",
    "load_scenario",
    "loads_scenario",
    "rate_sat_uav",
    "rate_uav_gt",
    "run_blocks",
    "run_scheme",
    "scenario_to_document",
    "total_energy",
    "__version__",
]
