"""Behavioral predictive controllers and the receding-horizon closed loop.

Two controllers share one skeleton, one config and one QP assembly:
both constrain the decision vector through data Hankel blocks and solve
a strictly convex QP each step, applying only the first input of the
optimal future sequence.  The lifting bank alone tells them apart: with
one, the past rows also match the window of the lifted coordinates.
Every past row after the inputs is softened with a slack penalized by
``lambda_sigma``; an infinite weight makes those rows hard.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from ._csvio import write_csv
from .behavior import HankelSystem, LtiSystem
from .metrics import DEEPC, DKPC
from .netsim import DisturbanceSpec, SimulationDiverged
from .qpsolve import SOLVED, QpProblem, QpSolution, QpSolver


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of both behavioral controllers.

    The weights are scalars: every output carries ``Q`` >= 0 and every
    input ``R`` > 0, so the QP's cost Hessian is diagonal.  Defaults:
    horizon 10, Q = 300, R = 0.01, coefficient regularization 500, soft
    past-row weight 1e3, inputs boxed to [-1, 1], outputs unconstrained.
    ``lambda_sigma`` > 0 weighs the slack of the past output rows, and
    of the lifted rows with a bank; ``inf`` makes them hard.
    The bounds are scalars too, and -inf/+inf means no bound.  The controller
    regulates to zero: the cost is Q |y|^2 + R |u|^2 over the horizon,
    with no reference or nominal input.  ``y_min``/``y_max`` bound the predicted
    outputs from the second future sample on: the first is the current
    output, which the current input cannot move (the plant is strictly
    proper), so bounding it would make the QP infeasible whenever the
    measurement already violates a bound.
    """

    t_ini: int = 5
    horizon: int = 10
    Q: float = 300.0
    R: float = 0.01
    lambda_g: float = 500.0
    lambda_sigma: float = 1e3
    u_min: float = -1.0
    u_max: float = 1.0
    y_min: float = -math.inf
    y_max: float = math.inf

    def __post_init__(self) -> None:
        if self.t_ini < 1 or self.horizon < 1:
            raise ValueError("t_ini and horizon must be >= 1")
        if not (math.isfinite(self.lambda_g) and self.lambda_g >= 0.0):
            raise ValueError(f"lambda_g must be finite and >= 0, got {self.lambda_g}")
        if not self.lambda_sigma > 0.0:
            raise ValueError(
                f"lambda_sigma must be > 0 (inf for hard rows), got {self.lambda_sigma}"
            )
        if np.ndim(self.Q) or np.ndim(self.R):
            raise ValueError("Q and R must be scalars")
        if not (math.isfinite(self.Q) and self.Q >= 0.0):
            raise ValueError(f"Q must be finite and >= 0, got {self.Q}")
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        for lo, hi in (("u_min", "u_max"), ("y_min", "y_max")):
            low, high = getattr(self, lo), getattr(self, hi)
            # an array's ndim: np.ndim costs microseconds on a float, paid per sweep config
            if getattr(low, "ndim", 0) or getattr(high, "ndim", 0):
                raise ValueError(f"{lo} and {hi} must be scalars")
            if not (low <= high and low < math.inf and high > -math.inf):  # as in QpProblem
                raise ValueError(f"need {lo} <= {hi}, {lo} < inf, {hi} > -inf; got {low}, {high}")


# the names each controller's callers build their config by, perfbench among them
DkpcConfig = DeepcConfig = ControllerConfig


def _check_partition(hs: HankelSystem, cfg: ControllerConfig, bank) -> None:
    """Raise ValueError unless ``bank`` and ``cfg`` fit the Hankel system.

    A bank's observables must match the Hankel Z block, and ``cfg`` must
    have the ``t_ini`` and horizon of ``hs``.
    """
    if bank is not None and bank.n_basis != hs.n_basis:
        raise ValueError(
            f"bank has {bank.n_basis} observables but Hankel Z block expects {hs.n_basis}"
        )
    if (cfg.t_ini, cfg.horizon) != (hs.t_ini, hs.horizon):
        raise ValueError(
            f"config t_ini/horizon {cfg.t_ini}/{cfg.horizon} differ from the Hankel "
            f"partition's {hs.t_ini}/{hs.horizon}"
        )


def _behavioral_qp(hs: HankelSystem, cfg: ControllerConfig, bank=None) -> QpProblem:
    """The behavioral QP that both controllers solve, with b_eq = 0.

    Decision vector x = (g, u_future, y_future, sigma).  The past rows
    ``[Up; Yp]``, followed by ``Zp`` when a ``bank`` is given, pin the
    measured window: the first entries of b_eq, which the controller
    sets each step (``QpSolver.update``).  Every past row after
    ``Up`` carries ``-sigma``, penalized by ``cfg.lambda_sigma * |sigma|^2``;
    an infinite weight drops sigma and makes those rows hard.  There are
    no future lifted rows, which keeps the program convex.
    The future Hankel rows couple g to the future blocks, which carry
    the regulation cost and the scalar bounds: ``u_min``/``u_max`` on all
    of u_future, ``y_min``/``y_max`` on y_future after its first sample.
    The cost is diagonal and has no linear term (regulation to zero), so
    P is passed as its (n,) diagonal and q is zero.  A_eq is the row
    set ``hs.equality_rows`` keeps for every build with (or without) a
    bank and soft (or hard) rows, so a build forms only P, q and the
    bounds.  Its g columns stack the Hankel rows in the order of
    ``hs.rows``, that of the Gram the row set carries to the solver.

    Raises ValueError unless ``bank`` and ``cfg`` fit ``hs``
    (``_check_partition``).
    """
    _check_partition(hs, cfg, bank)
    rows = hs.equality_rows(lifted=bank is not None, soft=not math.isinf(cfg.lambda_sigma))
    m_eq, dim = rows.a_eq.shape
    n_cols, n_y = hs.n_cols, hs.n_y
    uf = slice(n_cols, n_cols + hs.n_u * cfg.horizon)
    yf = slice(uf.stop, uf.stop + n_y * cfg.horizon)
    sig = slice(yf.stop, dim)

    p_vec = np.empty(dim)
    p_vec[:n_cols] = 2.0 * cfg.lambda_g
    p_vec[uf] = 2.0 * cfg.R
    p_vec[yf] = 2.0 * cfg.Q
    p_vec[sig] = 2.0 * cfg.lambda_sigma

    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    lower[uf], upper[uf] = cfg.u_min, cfg.u_max
    # the first y_f block is the current output, fixed by the past window
    y_later = slice(yf.start + n_y, yf.stop)
    lower[y_later], upper[y_later] = cfg.y_min, cfg.y_max

    return QpProblem(P=p_vec, q=np.zeros(dim), A_eq=rows, b_eq=np.zeros(m_eq),
                     lower=lower, upper=upper)


def build_dkpc_qp(hs: HankelSystem, bank, cfg: ControllerConfig) -> QpProblem:
    """Assemble the lifted behavioral QP: ``_behavioral_qp`` with the bank's rows."""
    return _behavioral_qp(hs, cfg, bank)


def build_deepc_qp(hs: HankelSystem, cfg: ControllerConfig) -> QpProblem:
    """Assemble the benchmark behavioral QP: ``_behavioral_qp`` without a bank."""
    return _behavioral_qp(hs, cfg)


@dataclass
class StepResult:
    u: np.ndarray
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    predicted_y: np.ndarray  # (horizon, n_y)

    @property
    def fallback(self) -> bool:
        """The solve failed, so the last applied input was held."""
        return self.status != SOLVED


class _BehavioralController:
    """Receding-horizon mechanics of both controllers.

    ``bank``, the lifting bank whose window enters the past rows, makes
    the lifted law; without one the past rows are inputs and outputs.
    The controller owns the receding-horizon state: ``u_ini``/``y_ini``,
    the last ``t_ini`` applied inputs and measured outputs, and
    ``last_solution``, the last step's ``QpSolution``, which warm-starts
    the next solve.  The solver runs at its default settings.
    """

    def __init__(self, hs: HankelSystem, cfg: ControllerConfig | None = None, bank=None):
        cfg = cfg or ControllerConfig()
        if not hs.pe_report:
            raise ValueError(
                f"data fails persistency of excitation: {hs.pe_report.reason}"
            )
        _check_partition(hs, cfg, bank)
        self.hs = hs
        self.bank = bank
        self.cfg = cfg
        self.u_ini: deque[np.ndarray] = deque(maxlen=cfg.t_ini)
        self.y_ini: deque[np.ndarray] = deque(maxlen=cfg.t_ini)
        self.last_solution: QpSolution | None = None
        # built on the first solve_step, so construction stays cheap
        self._solver: QpSolver | None = None

    @property
    def n_u(self) -> int:
        return self.hs.n_u

    @property
    def n_y(self) -> int:
        return self.hs.n_y

    @property
    def primed(self) -> bool:
        return len(self.u_ini) == self.cfg.t_ini

    def record(self, u: np.ndarray, y: np.ndarray) -> None:
        """Append an applied input and the output measured with it to the window."""
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if u.shape != (self.n_u,) or y.shape != (self.n_y,):
            raise ValueError("recorded pair has wrong dimensions")
        self.u_ini.append(u.copy())
        self.y_ini.append(y.copy())

    def stage_cost(self, u: np.ndarray, y: np.ndarray) -> float:
        """Regulation cost Q |y|^2 + R |u|^2 of one step; +inf if it overflows on finite data."""
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        # a diverging plant overflows the products; report that as +inf
        with np.errstate(over="ignore", invalid="ignore"):
            cost = float((y * self.cfg.Q) @ y + (u * self.cfg.R) @ u)
        if not math.isfinite(cost) and np.all(np.isfinite(y)) and np.all(np.isfinite(u)):
            return math.inf
        return cost

    def solve_step(self, y_t: np.ndarray) -> StepResult:
        """Solve the horizon problem and return the input to apply now.

        The buffers feed the past window of the behavioral constraint;
        the measurement is recorded together with the applied input
        after the solve, so buffer pairs stay causally aligned with the
        data trajectory.
        """
        if not self.primed:
            raise ValueError("controller not primed: record t_ini pairs first")
        y_t = np.asarray(y_t, dtype=float)
        if y_t.shape != (self.n_y,):
            raise ValueError(f"measurement has shape {y_t.shape}, expected ({self.n_y},)")
        if self._solver is None:
            if self.bank is None:
                problem = build_deepc_qp(self.hs, self.cfg)
            else:
                problem = build_dkpc_qp(self.hs, self.bank, self.cfg)
            self._solver = QpSolver(problem)
        y_window = np.array(self.y_ini)
        past = [np.array(self.u_ini).ravel(), y_window.ravel()]
        if self.bank is not None:
            past.append(self.bank.lift_trajectory(y_window).ravel())
        future = np.zeros((self.n_u + self.n_y) * self.cfg.horizon)
        self._solver.update(b_eq=np.concatenate([*past, future]))
        last = self.last_solution
        warm = () if last is None else (last.x, np.concatenate([last.y_eq, last.y_box]))
        self.last_solution = sol = self._solver.solve(*warm)

        n_cols = self.hs.n_cols
        n_uf = self.n_u * self.cfg.horizon
        if sol.status != SOLVED:  # hold the last applied input
            u_t = self.u_ini[-1].copy()
            predicted = np.full((self.cfg.horizon, self.n_y), np.nan)
        else:
            u_future = sol.x[n_cols : n_cols + n_uf]
            u_t = u_future[: self.n_u].copy()
            predicted = sol.x[n_cols + n_uf : n_cols + n_uf + self.n_y * self.cfg.horizon]
            predicted = predicted.reshape(self.cfg.horizon, self.n_y).copy()
        u_t = np.clip(u_t, self.cfg.u_min, self.cfg.u_max)
        self.record(u_t, y_t)
        return StepResult(
            u=u_t,
            status=sol.status,
            iterations=sol.iterations,
            primal_residual=sol.primal_residual,
            dual_residual=sol.dual_residual,
            predicted_y=predicted,
        )


class DkpcController(_BehavioralController):
    """Receding-horizon controller on the lifted behavioral model."""

    kind = DKPC

    def __init__(self, hs: HankelSystem, bank, cfg: ControllerConfig | None = None):
        if bank is None:
            raise ValueError("the lifted controller needs a lifting bank")
        super().__init__(hs, cfg, bank)


class DeepcController(_BehavioralController):
    """Benchmark behavioral controller: no lifting bank."""

    kind = DEEPC

    def __init__(self, hs: HankelSystem, cfg: ControllerConfig | None = None):
        super().__init__(hs, cfg)


class Plant(Protocol):
    """Closed-loop plant interface: measure, then act."""

    n_u: int
    n_y: int

    def measure(self) -> np.ndarray: ...

    def step(self, u: np.ndarray) -> None: ...


class LtiPlant:
    """Stateful wrapper turning an LTI simulator into a closed-loop plant."""

    def __init__(self, sys: LtiSystem, x0: np.ndarray | None = None):
        self.sys = sys
        self.x = np.zeros(sys.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()

    @property
    def n_u(self) -> int:
        return self.sys.n_u

    @property
    def n_y(self) -> int:
        return self.sys.n_y

    def measure(self) -> np.ndarray:
        return self.sys.c @ self.x

    def step(self, u: np.ndarray) -> None:
        self.x = self.sys.a @ self.x + self.sys.b @ np.asarray(u, dtype=float)


@dataclass(frozen=True)
class Scenario:
    """Closed-loop run description.

    The controller is idle (zero input, buffers recording) before
    ``activation_step``; a disturbance, when given, is applied to the
    plant before the first step.
    """

    sim_steps: int
    activation_step: int
    disturbance: DisturbanceSpec | None = None

    def __post_init__(self) -> None:
        if self.sim_steps < 1:
            raise ValueError("sim_steps must be >= 1")
        if self.activation_step < 0:
            raise ValueError("activation_step must be >= 0")


@dataclass
class ClosedLoopTrace:
    """Per-step record of a receding-horizon run; each ``StepResult`` keeps its prediction."""

    dt: float
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    active: np.ndarray
    status: list[str]
    iterations: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    stage_cost: np.ndarray  # +inf where the cost overflowed (diverging plant), never NaN
    activation_step: int
    diverged_at: int | None = None

    @property
    def steps(self) -> int:
        return self.t.shape[0]

    @property
    def fallback(self) -> np.ndarray:
        """Active steps whose solve failed and held the last applied input."""
        return np.array([on and st != SOLVED for on, st in zip(self.active, self.status)],
                        dtype=bool)

    def to_csv(self, path: str | Path, comment: str | None = None) -> None:
        """Write ``k,t,active,u_1..u_n,y_1..y_n,cost,status,iters`` rows."""
        header = (
            ["k", "t", "active"]
            + [f"u_{i + 1}" for i in range(self.u.shape[1])]
            + [f"y_{i + 1}" for i in range(self.y.shape[1])]
            + ["cost", "status", "iters"]
        )
        rows = (
            [k, self.t[k], self.active[k], *self.u[k], *self.y[k],
             self.stage_cost[k], self.status[k], self.iterations[k]]
            for k in range(self.steps)
        )
        write_csv(path, header, rows, comment)


def run_closed_loop(plant: Plant, controller: _BehavioralController, scenario: Scenario) -> ClosedLoopTrace:
    """Drive the plant with the controller under the scenario.

    Loop per step: measure, solve (when active) or hold zero input,
    apply, record.  Buffers are primed during the idle phase from the
    free response, so ``activation_step`` must be at least ``t_ini``.
    Plant divergence truncates the trace and sets ``diverged_at``.
    """
    if plant.n_u != controller.n_u or plant.n_y != controller.n_y:
        raise ValueError("plant and controller dimensions differ")
    if 0 < scenario.activation_step < controller.cfg.t_ini:
        raise ValueError("activation_step must be >= t_ini so buffers are primed")
    if scenario.disturbance is not None:
        apply = getattr(plant, "apply_disturbance", None)
        if apply is None:
            raise TypeError(f"plant {type(plant).__name__} cannot apply a disturbance")
        apply(scenario.disturbance)

    steps = scenario.sim_steps
    n_u, n_y = plant.n_u, plant.n_y
    dt = getattr(plant, "cfg", None)
    dt = dt.dt if dt is not None else 1.0

    t = np.arange(steps) * dt
    y = np.zeros((steps, n_y))
    u = np.zeros((steps, n_u))
    active = np.zeros(steps, dtype=bool)
    status: list[str] = []
    iterations = np.zeros(steps, dtype=int)
    primal = np.zeros(steps)
    dual = np.zeros(steps)
    cost = np.zeros(steps)
    diverged_at: int | None = None

    recorded = 0
    for k in range(steps):
        y_k = plant.measure()
        if k >= scenario.activation_step:
            res = controller.solve_step(y_k)
            u_k = res.u
            active[k] = True
            status.append(res.status)
            iterations[k] = res.iterations
            primal[k] = res.primal_residual
            dual[k] = res.dual_residual
        else:
            u_k = np.zeros(n_u)
            controller.record(u_k, y_k)
            status.append("inactive")
        y[k] = y_k
        u[k] = u_k
        cost[k] = controller.stage_cost(u_k, y_k)
        recorded = k + 1
        try:
            plant.step(u_k)
        except SimulationDiverged:
            diverged_at = k
            break

    sl = slice(0, recorded)
    return ClosedLoopTrace(
        dt=dt,
        t=t[sl],
        y=y[sl],
        u=u[sl],
        active=active[sl],
        status=status,
        iterations=iterations[sl],
        primal_residual=primal[sl],
        dual_residual=dual[sl],
        stage_cost=cost[sl],
        activation_step=scenario.activation_step,
        diverged_at=diverged_at,
    )
