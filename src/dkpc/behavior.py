"""Hankel-matrix trajectory algebra for behavioral predictive control.

Provides the data trajectory container, depth-L block Hankel
construction, persistency-of-excitation rank checks, a least-squares
oracle for trajectory membership on known LTI systems, and assembly of
the stacked lifted/input/output Hankel system used by the controllers.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """Aligned input/output record of a simulation run.

    ``u[k]`` is the input applied at step k and ``y[k]`` the output
    measured at step k (before the input acts).
    """

    u: np.ndarray  # (T, n_u)
    y: np.ndarray  # (T, n_y)
    dt: float = 1.0

    def __post_init__(self) -> None:
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("u and y must be (T, d) arrays")
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} steps but y has {y.shape[0]}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def length(self) -> int:
        return self.u.shape[0]

    @property
    def n_u(self) -> int:
        return self.u.shape[1]

    @property
    def n_y(self) -> int:
        return self.y.shape[1]


def hankel(seq: np.ndarray, depth: int) -> np.ndarray:
    """Block Hankel matrix of a vector sequence.

    Column j stacks ``seq[j], ..., seq[j+depth-1]``; rows are
    sample-major (all channels of the first step, then the second).
    Shape is ``(d * depth, T - depth + 1)`` for d-dimensional samples.
    """
    seq = np.asarray(seq, dtype=float)
    if seq.ndim == 1:
        seq = seq[:, None]
    t_len, d = seq.shape
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > t_len:
        raise ValueError(f"depth {depth} exceeds sequence length {t_len}")
    # windows[j, c, k] = seq[j + k, c] -> rows ordered step-major
    windows = np.lib.stride_tricks.sliding_window_view(seq, depth, axis=0)
    return windows.transpose(2, 1, 0).reshape(depth * d, t_len - depth + 1).copy()


@dataclass(frozen=True)
class PeReport:
    """Outcome of a persistency-of-excitation rank check."""

    is_pe: bool
    order: int
    rank: int
    required_rank: int
    n_cols: int
    threshold: float
    reason: str = ""

    def __bool__(self) -> bool:
        return self.is_pe


def is_persistently_exciting(u: np.ndarray, order: int, rtol: float | None = None) -> PeReport:
    """Check full row rank of the depth-``order`` input Hankel matrix.

    Rank is counted from singular values against the threshold
    ``sigma_max * max(rows, cols) * eps`` (eps is the unit roundoff),
    or ``sigma_max * rtol`` when ``rtol`` is given.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    t_len, n_u = u.shape
    required = n_u * order
    n_cols = t_len - order + 1
    if n_cols < required:
        return PeReport(
            is_pe=False,
            order=order,
            rank=0,
            required_rank=required,
            n_cols=max(n_cols, 0),
            threshold=0.0,
            reason=(
                f"sequence too short: {n_cols} Hankel columns cannot reach "
                f"row rank {required}"
            ),
        )
    h = hankel(u, order)
    sv = np.linalg.svd(h, compute_uv=False)
    if rtol is None:
        threshold = sv[0] * max(h.shape) * np.finfo(float).eps
    else:
        threshold = sv[0] * rtol
    rank = int(np.count_nonzero(sv > threshold))
    ok = rank == required
    return PeReport(
        is_pe=ok,
        order=order,
        rank=rank,
        required_rank=required,
        n_cols=n_cols,
        threshold=float(threshold),
        reason="" if ok else f"numerical rank {rank} < {required}",
    )


@dataclass(frozen=True)
class LtiSystem:
    """Minimal discrete-time LTI simulator, x' = Ax + Bu, y = Cx.

    Serves as the known reference system for trajectory-membership
    checks and for exactness tests of the behavioral controllers.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
            raise ValueError("B/C dimensions inconsistent with A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]

    def simulate(self, u: np.ndarray, x0: np.ndarray | None = None, dt: float = 1.0) -> Trajectory:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.n_u:
            raise ValueError(f"expected {self.n_u} input channels, got {u.shape[1]}")
        x = np.zeros(self.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()
        ys = np.empty((u.shape[0], self.n_y))
        for k in range(u.shape[0]):
            ys[k] = self.c @ x
            x = self.a @ x + self.b @ u[k]
        return Trajectory(u=u, y=ys, dt=dt)


def random_stable_lti(
    rng: np.random.Generator,
    n_states: int,
    n_u: int,
    n_y: int,
    spectral_radius: float = 0.85,
) -> LtiSystem:
    """Draw a random LTI system scaled to the given spectral radius."""
    a = rng.standard_normal((n_states, n_states))
    radius = max(abs(np.linalg.eigvals(a)))
    a *= spectral_radius / radius
    b = rng.standard_normal((n_states, n_u))
    c = rng.standard_normal((n_y, n_states))
    return LtiSystem(a=a, b=b, c=c)


def verify_fundamental_lemma(
    sys: LtiSystem,
    t_len: int,
    depth: int,
    seed: int = 0,
    query: Trajectory | None = None,
) -> float:
    """Least-squares membership residual of a fresh window in the data span.

    Generates a length-``t_len`` data trajectory of ``sys`` under seeded
    random inputs, plus a fresh length-``depth`` query trajectory from a
    random initial state (unless ``query`` is supplied), then solves

        min_g || [H_L(u_d); H_L(y_d)] g - [u; y] ||_2

    and returns the residual norm.  For exact data from a controllable
    LTI system with persistently exciting inputs the residual vanishes.
    """
    rng = np.random.default_rng(seed)
    u_d = rng.uniform(-1.0, 1.0, size=(t_len, sys.n_u))
    data = sys.simulate(u_d, x0=rng.standard_normal(sys.n_states))
    pe = is_persistently_exciting(data.u, depth + sys.n_states)
    if not pe:
        raise ValueError(f"data not persistently exciting: {pe.reason}")
    if query is None:
        u_new = rng.uniform(-1.0, 1.0, size=(depth, sys.n_u))
        query = sys.simulate(u_new, x0=rng.standard_normal(sys.n_states))
    if query.length != depth:
        raise ValueError(f"query trajectory must have length {depth}")
    stacked = np.vstack([hankel(data.u, depth), hankel(data.y, depth)])
    target = np.concatenate([query.u.ravel(), query.y.ravel()])
    g, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return float(np.linalg.norm(stacked @ g - target))


@dataclass(frozen=True)
class HankelSystem:
    """Stacked depth-L Hankel blocks defining the behavioral constraint.

    Row partitions: the first ``T_ini`` block-rows of the input and
    output blocks are the past window, the last ``N`` block-rows the
    future window.  The lifted block holds only the ``T_ini`` past
    block-rows, the only ones a controller matches.
    """

    z: np.ndarray  # (n_basis * T_ini, n_cols)
    u: np.ndarray  # (n_u * L, n_cols)
    y: np.ndarray  # (n_y * L, n_cols)
    t_ini: int
    horizon: int
    n_u: int
    n_y: int
    n_basis: int
    pe_report: PeReport | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.t_ini < 1 or self.horizon < 1:
            raise ValueError("t_ini and horizon must be >= 1")
        depth = self.depth
        expect = {
            "z": (self.n_basis * self.t_ini, self.n_cols),
            "u": (self.n_u * depth, self.n_cols),
            "y": (self.n_y * depth, self.n_cols),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} block has shape {got}, expected {shape}")

    @property
    def depth(self) -> int:
        return self.t_ini + self.horizon

    @property
    def n_cols(self) -> int:
        return self.u.shape[1]

    @property
    def u_past(self) -> np.ndarray:
        return self.u[: self.n_u * self.t_ini]

    @property
    def u_future(self) -> np.ndarray:
        return self.u[self.n_u * self.t_ini :]

    @property
    def y_past(self) -> np.ndarray:
        return self.y[: self.n_y * self.t_ini]

    @property
    def y_future(self) -> np.ndarray:
        return self.y[self.n_y * self.t_ini :]

    @property
    def z_past(self) -> np.ndarray:
        return self.z


def assemble(
    data: Trajectory,
    bank,
    t_ini: int,
    horizon: int,
    pe_check: bool = True,
    pe_rtol: float | None = None,
) -> HankelSystem:
    """Build the stacked lifted/input/output Hankel system from data.

    The persistency check of order ``n_basis + L`` is advisory here
    (warning only); controller construction treats a failed report as an
    error.
    """
    depth = t_ini + horizon
    if data.length < depth:
        raise ValueError(
            f"trajectory length {data.length} shorter than Hankel depth {depth}"
        )
    lifted = bank.lift_trajectory(data.y)
    report = None
    if pe_check:
        report = is_persistently_exciting(data.u, bank.n_basis + depth, rtol=pe_rtol)
        if not report:
            warnings.warn(
                f"input data not persistently exciting of order {report.order}: "
                f"{report.reason}",
                stacklevel=2,
            )
    return HankelSystem(
        z=hankel(lifted[: data.length - horizon], t_ini),
        u=hankel(data.u, depth),
        y=hankel(data.y, depth),
        t_ini=t_ini,
        horizon=horizon,
        n_u=data.n_u,
        n_y=data.n_y,
        n_basis=bank.n_basis,
        pe_report=report,
    )


def trajectory_to_csv(traj: Trajectory, path: str | Path, comment: str | None = None) -> None:
    """Write a trajectory as CSV with header ``k,t,u_1..u_n,y_1..y_n``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        header = (
            ["k", "t"]
            + [f"u_{i + 1}" for i in range(traj.n_u)]
            + [f"y_{i + 1}" for i in range(traj.n_y)]
        )
        writer.writerow(header)
        for k in range(traj.length):
            row = [k, repr(float(k * traj.dt))]
            row += [repr(float(v)) for v in traj.u[k]]
            row += [repr(float(v)) for v in traj.y[k]]
            writer.writerow(row)


def trajectory_from_csv(path: str | Path) -> Trajectory:
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    n_u = sum(1 for name in header if name.startswith("u_"))
    n_y = sum(1 for name in header if name.startswith("y_"))
    us, ys, times = [], [], []
    for row in reader:
        times.append(float(row[1]))
        us.append([float(v) for v in row[2 : 2 + n_u]])
        ys.append([float(v) for v in row[2 + n_u : 2 + n_u + n_y]])
    if not us:
        raise ValueError(f"no trajectory rows in {path}")
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return Trajectory(u=np.asarray(us), y=np.asarray(ys), dt=dt)
