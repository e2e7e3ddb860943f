"""Behavioral predictive controllers and the receding-horizon closed loop.

Two controllers share one skeleton and one QP assembly: both constrain
the decision vector through data Hankel blocks and solve a strictly
convex QP each step, applying only the first input of the optimal
future sequence.  They differ only in the past rows: the lifted
controller also pins the past window of the lifted coordinates; the
benchmark controller instead may soften the past output match with a
penalized slack.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .behavior import HankelSystem, LtiSystem
from .netsim import DisturbanceSpec, SimulationDiverged
from .qpsolve import SOLVED, QpProblem, QpSettings, QpSolver

FALLBACK_HOLD = "hold"
FALLBACK_ZERO = "zero"


def _weight_matrix(w, dim: int, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        mat = float(w) * np.eye(dim)
    elif w.ndim == 2 and w.shape == (dim, dim):
        mat = w
    else:
        raise ValueError(f"{name} must be a scalar or a ({dim}, {dim}) matrix")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    return mat


def _bound_vector(b, dim: int, default: float) -> np.ndarray:
    if b is None:
        return np.full(dim, default)
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        return np.full(dim, float(b))
    if b.shape == (dim,):
        return b.copy()
    raise ValueError(f"bound must be a scalar or length-{dim} vector")


def _profile(value, horizon: int, dim: int, name: str) -> np.ndarray:
    """Normalize a reference/nominal spec to an (horizon, dim) array."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        return np.full((horizon, dim), float(v))
    if v.shape == (dim,):
        return np.tile(v, (horizon, 1))
    if v.shape == (horizon, dim):
        return v.copy()
    raise ValueError(f"{name} must be scalar, ({dim},), or ({horizon}, {dim})")


@dataclass(frozen=True)
class DkpcConfig:
    """Tuning of the lifted behavioral controller.

    Defaults: horizon 10, output weight 300 I, input weight 0.01 I,
    coefficient regularization 500, inputs boxed to [-1, 1], outputs
    unconstrained, regulation to zero with zero nominal input.
    """

    t_ini: int = 5
    horizon: int = 10
    Q: float | np.ndarray = 300.0
    R: float | np.ndarray = 0.01
    lambda_g: float = 500.0
    u_min: float | np.ndarray | None = -1.0
    u_max: float | np.ndarray | None = 1.0
    y_min: float | np.ndarray | None = None
    y_max: float | np.ndarray | None = None
    reference: float | np.ndarray = 0.0
    u_nominal: float | np.ndarray = 0.0
    fallback: str = FALLBACK_HOLD

    def __post_init__(self) -> None:
        if self.t_ini < 1 or self.horizon < 1:
            raise ValueError("t_ini and horizon must be >= 1")
        if self.lambda_g < 0.0:
            raise ValueError("lambda_g must be nonnegative")
        if self.fallback not in (FALLBACK_HOLD, FALLBACK_ZERO):
            raise ValueError(f"unknown fallback {self.fallback!r}")


@dataclass(frozen=True)
class DeepcConfig(DkpcConfig):
    """Benchmark controller tuning; adds the slack penalty weight.

    ``lambda_sigma = inf`` drops the slack and makes the past-output
    rows hard, recovering the hard-constraint behavioral controller.
    """

    lambda_sigma: float = 1e5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lambda_sigma > 0.0:
            raise ValueError("lambda_sigma must be positive")


class ControllerState:
    """Ring buffers of the most recent applied inputs and measured outputs."""

    def __init__(self, t_ini: int, n_u: int, n_y: int):
        self.t_ini = t_ini
        self.n_u = n_u
        self.n_y = n_y
        self.u_ini: deque[np.ndarray] = deque(maxlen=t_ini)
        self.y_ini: deque[np.ndarray] = deque(maxlen=t_ini)
        self.warm_start: np.ndarray | None = None
        self.warm_dual: np.ndarray | None = None

    @property
    def primed(self) -> bool:
        return len(self.u_ini) == self.t_ini and len(self.y_ini) == self.t_ini

    def record(self, u: np.ndarray, y: np.ndarray) -> None:
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
        if u.shape != (self.n_u,) or y.shape != (self.n_y,):
            raise ValueError("recorded pair has wrong dimensions")
        self.u_ini.append(u.copy())
        self.y_ini.append(y.copy())

    def u_window(self) -> np.ndarray:
        return np.array(self.u_ini)

    def y_window(self) -> np.ndarray:
        return np.array(self.y_ini)

    def past_window(self, bank=None) -> np.ndarray:
        """Right-hand side of the past rows: inputs, outputs, then lifted outputs with a bank."""
        parts = [self.u_window().ravel(), self.y_window().ravel()]
        if bank is not None:
            parts.append(bank.lift_trajectory(self.y_window()).ravel())
        return np.concatenate(parts)


def _quadratic_blocks(cfg: DkpcConfig, n_u: int, n_y: int):
    q_mat = _weight_matrix(cfg.Q, n_y, "Q")
    r_mat = _weight_matrix(cfg.R, n_u, "R")
    eig_q = np.linalg.eigvalsh(q_mat)
    eig_r = np.linalg.eigvalsh(r_mat)
    if eig_q.min() < -1e-10:
        raise ValueError("Q must be positive semidefinite")
    if eig_r.min() <= 0.0:
        raise ValueError("R must be positive definite")
    refs = _profile(cfg.reference, cfg.horizon, n_y, "reference")
    u_nom = _profile(cfg.u_nominal, cfg.horizon, n_u, "u_nominal")
    return q_mat, r_mat, refs, u_nom


def _behavioral_qp(
    past: np.ndarray,
    n_soft: int,
    soft_weight: float,
    u_future: np.ndarray,
    y_future: np.ndarray,
    cfg: DkpcConfig,
    b_past: np.ndarray,
) -> QpProblem:
    """The behavioral QP that both controllers solve.

    Decision vector x = (g, u_future, y_future, sigma).  The rows
    ``past @ g = b_past`` pin the measured window; only the last
    ``n_soft`` of them carry ``-sigma``, penalized by
    ``soft_weight * |sigma|^2``.  The future Hankel rows couple g to the
    future blocks, which carry the tracking cost and the bounds.
    """
    n_past, n_cols = past.shape
    n_uf, n_yf = u_future.shape[0], y_future.shape[0]
    n_u, n_y = n_uf // cfg.horizon, n_yf // cfg.horizon
    q_mat, r_mat, refs, u_nom = _quadratic_blocks(cfg, n_u, n_y)
    uf = slice(n_cols, n_cols + n_uf)
    yf = slice(n_cols + n_uf, n_cols + n_uf + n_yf)
    sig = slice(n_cols + n_uf + n_yf, n_cols + n_uf + n_yf + n_soft)
    dim = sig.stop

    a_eq = np.zeros((n_past + n_uf + n_yf, dim))
    a_eq[:n_past, :n_cols] = past
    a_eq[n_past - n_soft : n_past, sig] = -np.eye(n_soft)
    a_eq[n_past : n_past + n_uf, :n_cols] = u_future
    a_eq[n_past : n_past + n_uf, uf] = -np.eye(n_uf)
    a_eq[n_past + n_uf :, :n_cols] = y_future
    a_eq[n_past + n_uf :, yf] = -np.eye(n_yf)

    p_mat = np.zeros((dim, dim))
    p_mat[np.diag_indices(n_cols)] = 2.0 * cfg.lambda_g
    for k in range(cfg.horizon):
        sl_u = slice(uf.start + k * n_u, uf.start + (k + 1) * n_u)
        sl_y = slice(yf.start + k * n_y, yf.start + (k + 1) * n_y)
        p_mat[sl_u, sl_u] = 2.0 * r_mat
        p_mat[sl_y, sl_y] = 2.0 * q_mat
    p_mat[sig, sig] = 2.0 * soft_weight * np.eye(n_soft)

    q_vec = np.zeros(dim)
    q_vec[uf] = (-2.0 * (u_nom @ r_mat)).ravel()
    q_vec[yf] = (-2.0 * (refs @ q_mat)).ravel()

    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    lower[uf] = np.tile(_bound_vector(cfg.u_min, n_u, -np.inf), cfg.horizon)
    upper[uf] = np.tile(_bound_vector(cfg.u_max, n_u, np.inf), cfg.horizon)
    lower[yf] = np.tile(_bound_vector(cfg.y_min, n_y, -np.inf), cfg.horizon)
    upper[yf] = np.tile(_bound_vector(cfg.y_max, n_y, np.inf), cfg.horizon)

    b_eq = np.concatenate([b_past, np.zeros(n_uf + n_yf)])
    return QpProblem(P=p_mat, q=q_vec, A_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


def build_dkpc_qp(hs: HankelSystem, bank, cfg: DkpcConfig, cs: ControllerState) -> QpProblem:
    """Assemble the lifted behavioral QP.

    Decision vector x = (g, u_future, y_future).  The past input, output
    and lifted windows are matched exactly; there are no future lifted
    rows, which keeps the program convex.
    """
    if not cs.primed:
        raise ValueError("controller state not primed: need t_ini recorded pairs")
    if bank.n_basis != hs.n_basis:
        raise ValueError(
            f"bank has {bank.n_basis} observables but Hankel Z block expects {hs.n_basis}"
        )
    if cs.t_ini != hs.t_ini:
        raise ValueError("controller state t_ini differs from Hankel partition")
    past = np.vstack([hs.u_past, hs.y_past, hs.z_past])
    return _behavioral_qp(past, 0, 0.0, hs.u_future, hs.y_future, cfg, cs.past_window(bank))


def build_deepc_qp(
    up: np.ndarray,
    yp: np.ndarray,
    uf: np.ndarray,
    yf: np.ndarray,
    cfg: DeepcConfig,
    cs: ControllerState,
) -> QpProblem:
    """Assemble the benchmark behavioral QP from the Hankel partitions.

    Decision vector x = (g, u_future, y_future, sigma); the slack enters
    only the past-output rows.  An infinite slack weight drops sigma and
    makes the past-output rows hard.
    """
    if not cs.primed:
        raise ValueError("controller state not primed: need t_ini recorded pairs")
    t_ini, horizon = cfg.t_ini, cfg.horizon
    if up.shape[0] % t_ini or yp.shape[0] % t_ini:
        raise ValueError("past partitions inconsistent with t_ini")
    n_u = up.shape[0] // t_ini
    n_y = yp.shape[0] // t_ini
    n_cols = up.shape[1]
    if uf.shape != (n_u * horizon, n_cols) or yf.shape != (n_y * horizon, n_cols):
        raise ValueError("future partitions inconsistent with horizon")
    if cs.t_ini != t_ini or cs.n_u != n_u or cs.n_y != n_y:
        raise ValueError("controller state dimensions do not match partitions")
    n_soft = 0 if math.isinf(cfg.lambda_sigma) else n_y * t_ini
    past = np.vstack([up, yp])
    return _behavioral_qp(past, n_soft, cfg.lambda_sigma, uf, yf, cfg, cs.past_window())


@dataclass
class StepResult:
    u: np.ndarray
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    predicted_y: np.ndarray  # (horizon, n_y)
    fallback: bool


class _BehavioralController:
    """Shared receding-horizon mechanics of the two controllers."""

    kind = "behavioral"

    def __init__(self, hs: HankelSystem, cfg: DkpcConfig, solver_settings: QpSettings | None):
        if hs.pe_report is not None and not hs.pe_report:
            raise ValueError(
                f"data fails persistency of excitation: {hs.pe_report.reason}"
            )
        if cfg.t_ini != hs.t_ini or cfg.horizon != hs.horizon:
            raise ValueError("config window lengths differ from Hankel partition")
        self.hs = hs
        self.cfg = cfg
        self.settings = solver_settings or QpSettings()
        self.state = ControllerState(cfg.t_ini, hs.n_u, hs.n_y)
        self._solver: QpSolver | None = None
        self._q_mat, self._r_mat, self._refs, self._u_nom = _quadratic_blocks(
            cfg, hs.n_u, hs.n_y
        )
        self._u_lo = _bound_vector(cfg.u_min, hs.n_u, -np.inf)
        self._u_hi = _bound_vector(cfg.u_max, hs.n_u, np.inf)

    @property
    def n_u(self) -> int:
        return self.hs.n_u

    @property
    def n_y(self) -> int:
        return self.hs.n_y

    @property
    def primed(self) -> bool:
        return self.state.primed

    def record(self, u: np.ndarray, y: np.ndarray) -> None:
        self.state.record(u, y)

    def stage_cost(self, u: np.ndarray, y: np.ndarray) -> float:
        """Tracking cost of one step; +inf when it overflows on finite u and y."""
        ey = np.asarray(y, dtype=float) - self._refs[0]
        eu = np.asarray(u, dtype=float) - self._u_nom[0]
        # a diverging plant overflows the products; report that as +inf
        with np.errstate(over="ignore", invalid="ignore"):
            cost = float(ey @ self._q_mat @ ey + eu @ self._r_mat @ eu)
        if not math.isfinite(cost) and np.all(np.isfinite(ey)) and np.all(np.isfinite(eu)):
            return math.inf
        return cost

    # subclass hooks
    def _build_problem(self) -> QpProblem:
        raise NotImplementedError

    def _past_window(self) -> np.ndarray:
        raise NotImplementedError

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
            self._solver = QpSolver(self._build_problem(), self.settings)
        else:
            future = np.zeros((self.n_u + self.n_y) * self.cfg.horizon)
            self._solver.update(b_eq=np.concatenate([self._past_window(), future]))
        sol = self._solver.solve(
            warm_start=self.state.warm_start, warm_start_dual=self.state.warm_dual
        )
        self.state.warm_start = sol.x.copy()
        self.state.warm_dual = np.concatenate([sol.y_eq, sol.y_box])

        n_cols = self.hs.n_cols
        n_uf = self.n_u * self.cfg.horizon
        fallback = sol.status != SOLVED
        if fallback:
            if self.cfg.fallback == FALLBACK_HOLD:
                u_t = self.state.u_ini[-1].copy()
            else:
                u_t = np.zeros(self.n_u)
            predicted = np.full((self.cfg.horizon, self.n_y), np.nan)
        else:
            u_future = sol.x[n_cols : n_cols + n_uf]
            u_t = u_future[: self.n_u].copy()
            predicted = sol.x[n_cols + n_uf : n_cols + n_uf + self.n_y * self.cfg.horizon]
            predicted = predicted.reshape(self.cfg.horizon, self.n_y).copy()
        u_t = np.clip(u_t, self._u_lo, self._u_hi)
        self.record(u_t, y_t)
        return StepResult(
            u=u_t,
            status=sol.status,
            iterations=sol.iterations,
            primal_residual=sol.primal_residual,
            dual_residual=sol.dual_residual,
            predicted_y=predicted,
            fallback=fallback,
        )

    def last_solution(self) -> np.ndarray | None:
        return self.state.warm_start


class DkpcController(_BehavioralController):
    """Receding-horizon controller on the lifted behavioral model."""

    kind = "DKPC"

    def __init__(
        self,
        hs: HankelSystem,
        bank,
        cfg: DkpcConfig | None = None,
        solver_settings: QpSettings | None = None,
    ):
        cfg = cfg or DkpcConfig()
        super().__init__(hs, cfg, solver_settings)
        if bank.n_basis != hs.n_basis:
            raise ValueError("bank does not match the Hankel Z block")
        self.bank = bank

    def _build_problem(self) -> QpProblem:
        return build_dkpc_qp(self.hs, self.bank, self.cfg, self.state)

    def _past_window(self) -> np.ndarray:
        return self.state.past_window(self.bank)


class DeepcController(_BehavioralController):
    """Benchmark behavioral controller with initialization slack."""

    kind = "DeePC"

    def __init__(
        self,
        hs: HankelSystem,
        cfg: DeepcConfig | None = None,
        solver_settings: QpSettings | None = None,
    ):
        cfg = cfg or DeepcConfig()
        super().__init__(hs, cfg, solver_settings)

    def _build_problem(self) -> QpProblem:
        return build_deepc_qp(
            self.hs.u_past,
            self.hs.y_past,
            self.hs.u_future,
            self.hs.y_future,
            self.cfg,
            self.state,
        )

    def _past_window(self) -> np.ndarray:
        return self.state.past_window()


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
    """Per-step record of a receding-horizon run."""

    dt: float
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    active: np.ndarray
    predicted_y: np.ndarray  # (steps, horizon, n_y), nan when inactive
    status: list[str]
    iterations: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    stage_cost: np.ndarray  # +inf where the cost overflowed (diverging plant), never NaN
    fallback: np.ndarray
    activation_step: int
    diverged_at: int | None = None

    @property
    def steps(self) -> int:
        return self.t.shape[0]

    def to_csv(self, path: str | Path, comment: str | None = None) -> None:
        """Write ``k,t,active,u_1..u_n,y_1..y_n,cost,status,iters`` rows."""
        import csv as _csv

        path = Path(path)
        n_u = self.u.shape[1]
        n_y = self.y.shape[1]
        with path.open("w", newline="") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            writer = _csv.writer(fh)
            writer.writerow(
                ["k", "t", "active"]
                + [f"u_{i + 1}" for i in range(n_u)]
                + [f"y_{i + 1}" for i in range(n_y)]
                + ["cost", "status", "iters"]
            )
            for k in range(self.steps):
                row = [k, repr(float(self.t[k])), int(self.active[k])]
                row += [repr(float(v)) for v in self.u[k]]
                row += [repr(float(v)) for v in self.y[k]]
                row += [repr(float(self.stage_cost[k])), self.status[k], int(self.iterations[k])]
                writer.writerow(row)


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
    horizon = controller.cfg.horizon
    dt = getattr(plant, "cfg", None)
    dt = dt.dt if dt is not None else 1.0

    t = np.arange(steps) * dt
    y = np.zeros((steps, n_y))
    u = np.zeros((steps, n_u))
    active = np.zeros(steps, dtype=bool)
    predicted = np.full((steps, horizon, n_y), np.nan)
    status: list[str] = []
    iterations = np.zeros(steps, dtype=int)
    primal = np.zeros(steps)
    dual = np.zeros(steps)
    cost = np.zeros(steps)
    fallback = np.zeros(steps, dtype=bool)
    diverged_at: int | None = None

    recorded = 0
    for k in range(steps):
        y_k = plant.measure()
        if k >= scenario.activation_step:
            res = controller.solve_step(y_k)
            u_k = res.u
            active[k] = True
            predicted[k] = res.predicted_y
            status.append(res.status)
            iterations[k] = res.iterations
            primal[k] = res.primal_residual
            dual[k] = res.dual_residual
            fallback[k] = res.fallback
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
        predicted_y=predicted[sl],
        status=status,
        iterations=iterations[sl],
        primal_residual=primal[sl],
        dual_residual=dual[sl],
        stage_cost=cost[sl],
        fallback=fallback[sl],
        activation_step=scenario.activation_step,
        diverged_at=diverged_at,
    )
