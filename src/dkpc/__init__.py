"""Data-driven Koopman predictive control toolkit.

End-to-end pipeline for secondary frequency regulation of an
inverter-based network: plant simulation for data generation, lifted
behavioral modeling through Hankel matrices, receding-horizon convex
control, an unlifted benchmark controller, and quantitative evaluation.
"""

from .behavior import (
    HankelSystem,
    LtiSystem,
    PeReport,
    Trajectory,
    assemble,
    hankel,
    is_persistently_exciting,
    random_stable_lti,
    verify_fundamental_lemma,
)
from .control import (
    ClosedLoopTrace,
    ControllerState,
    DeepcConfig,
    DeepcController,
    DkpcConfig,
    DkpcController,
    LtiPlant,
    Scenario,
    StepResult,
    build_deepc_qp,
    build_dkpc_qp,
    run_closed_loop,
)
from .lifting import IdentityBank, RbfBank, build_bank
from .metrics import (
    FrontierPoint,
    RunMetrics,
    best_per_alpha,
    control_effort,
    itae,
    mixed_index,
    pareto_frontier,
)
from .netsim import (
    DisturbanceSpec,
    InverterParams,
    NetworkGraph,
    NetworkPlant,
    SimConfig,
    SimState,
    SimulationDiverged,
    default_network,
    disturbed_state,
    equilibrium_state,
    load_network,
    power_injections,
    save_network,
    simulate,
    step,
)
from .qpsolve import QpProblem, QpSettings, QpSolution, QpSolver, kkt_residuals, solve

__version__ = "0.1.0"

__all__ = [
    "ClosedLoopTrace",
    "ControllerState",
    "DeepcConfig",
    "DeepcController",
    "DisturbanceSpec",
    "DkpcConfig",
    "DkpcController",
    "FrontierPoint",
    "HankelSystem",
    "IdentityBank",
    "InverterParams",
    "LtiPlant",
    "LtiSystem",
    "NetworkGraph",
    "NetworkPlant",
    "PeReport",
    "QpProblem",
    "QpSettings",
    "QpSolution",
    "QpSolver",
    "RbfBank",
    "RunMetrics",
    "Scenario",
    "SimConfig",
    "SimState",
    "SimulationDiverged",
    "StepResult",
    "Trajectory",
    "assemble",
    "best_per_alpha",
    "build_bank",
    "build_deepc_qp",
    "build_dkpc_qp",
    "control_effort",
    "default_network",
    "disturbed_state",
    "equilibrium_state",
    "hankel",
    "is_persistently_exciting",
    "itae",
    "kkt_residuals",
    "load_network",
    "mixed_index",
    "pareto_frontier",
    "power_injections",
    "random_stable_lti",
    "run_closed_loop",
    "save_network",
    "simulate",
    "solve",
    "step",
    "verify_fundamental_lemma",
]
