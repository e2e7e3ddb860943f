"""Discrete-time simulator of a network of droop-based grid-forming inverters.

The plant is the data source and closed-loop testbed; the controllers
never see its equations.  Per-bus dynamics: a droop law ties frequency
deviation to the filtered power mismatch, angles integrate frequency,
and first-order low-pass filters smooth the power measurement and the
external input.  ``step``, ``simulate`` and ``NetworkPlant`` advance the
state through one private kernel that holds the per-run constants
(parameter arrays, filter gain), so a run or a plant computes them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .behavior import Trajectory

EXACT_EXPONENTIAL = "exact-exponential"
FORWARD_EULER = "forward-euler"

# Newton power flow of equilibrium_state: mismatch tolerance (p.u.) and step budget
_FLOW_TOL = 1e-12
_FLOW_MAX_ITER = 50
# per-unit admittance of every line of default_network
_LINE_SUSCEPTANCE = 20.0


class SimulationDiverged(RuntimeError):
    """Raised when a step produces non-finite state."""


@dataclass(frozen=True)
class NetworkGraph:
    """Bus network described by a symmetric susceptance matrix.

    ``susceptance[i, j]`` is the per-unit line admittance between buses
    i and j; the diagonal is zero and the nonzero pattern must be
    connected.
    """

    susceptance: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.susceptance, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("susceptance must be a square matrix")
        if not np.allclose(b, b.T, atol=1e-12):
            raise ValueError("susceptance matrix must be symmetric")
        if np.any(np.diag(b) != 0.0):
            raise ValueError("susceptance diagonal must be zero")
        if np.any(b < 0.0):
            raise ValueError("susceptance entries must be nonnegative")
        # breadth-first sweep from bus 0 over the undirected nonzero pattern
        adjacent = (b != 0.0) | (b.T != 0.0)
        reached = frontier = np.arange(b.shape[0]) == 0
        while frontier.any():
            frontier = adjacent[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        if not reached.all():
            raise ValueError("network graph must be connected")
        object.__setattr__(self, "susceptance", b)

    @property
    def n_bus(self) -> int:
        return self.susceptance.shape[0]


@dataclass(frozen=True)
class InverterParams:
    """Droop GFM inverter parameters (per unit).

    Defaults follow the nominal values: setpoint 1 p.u., base frequency
    1 p.u., 7% droop, 332.8 rad/s measurement filter cut-off.
    """

    p_star: float = 1.0
    k_p: float = 0.07
    omega_pc: float = 332.8
    omega_b: float = 1.0

    def __post_init__(self) -> None:
        if self.k_p <= 0.0:
            raise ValueError("droop coefficient k_p must be positive")
        if self.omega_pc <= 0.0:
            raise ValueError("filter cut-off omega_pc must be positive")


@dataclass(frozen=True)
class SimState:
    """Per-bus dynamic state: angles, frequency deviations, filter states."""

    theta: np.ndarray
    omega: np.ndarray
    p_filt: np.ndarray
    u_filt: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        n = None
        for name in ("theta", "omega", "p_filt", "u_filt"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if n is None:
                n = v.shape[0]
            elif v.shape[0] != n:
                raise ValueError("state vectors must share one length")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite entries")
            arrays[name] = v
        for name, v in arrays.items():
            object.__setattr__(self, name, v)

    @property
    def n_bus(self) -> int:
        return self.theta.shape[0]

    @classmethod
    def _from_checked(cls, theta, omega, p_filt, u_filt) -> "SimState":
        """A state from finite float vectors of one length, taken as they are."""
        state = object.__new__(cls)
        state.__dict__.update(theta=theta, omega=omega, p_filt=p_filt, u_filt=u_filt)
        return state

    @classmethod
    def zeros(cls, n_bus: int) -> "SimState":
        z = np.zeros(n_bus)
        return cls(theta=z.copy(), omega=z.copy(), p_filt=z.copy(), u_filt=z.copy())


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    filter_mode: str = EXACT_EXPONENTIAL

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.filter_mode not in (EXACT_EXPONENTIAL, FORWARD_EULER):
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Initial perturbation applied before a closed-loop run.

    Seeded per-bus offsets displace the angles, frequencies and the
    power-filter states away from the operating point; the dominant
    lasting effect is the angle displacement, since the filters and the
    droop law re-settle within a few steps.  With
    ``around_equilibrium`` the base point is the zero-input steady state
    of the dispatch, otherwise the all-zeros state.
    """

    theta_jitter: float = 0.12
    omega_jitter: float = 0.02
    p_filt_jitter: float = 0.1
    around_equilibrium: bool = True
    seed: int = 0


def _param_arrays(
    params: InverterParams | Sequence[InverterParams], n_bus: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(params, InverterParams):
        params = [params] * n_bus
    if len(params) != n_bus:
        raise ValueError(f"expected {n_bus} inverter parameter sets, got {len(params)}")
    p_star = np.array([p.p_star for p in params], dtype=float)
    k_p = np.array([p.k_p for p in params], dtype=float)
    omega_pc = np.array([p.omega_pc for p in params], dtype=float)
    omega_b = np.array([p.omega_b for p in params], dtype=float)
    return p_star, k_p, omega_pc, omega_b


def power_injections(theta: np.ndarray, net: NetworkGraph) -> np.ndarray:
    """Lossless active power injections, p_i = sum_j B_ij sin(theta_i - theta_j)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (net.n_bus,):
        raise ValueError(f"expected {net.n_bus} angles, got shape {theta.shape}")
    diff = theta[:, None] - theta[None, :]
    return np.sum(net.susceptance * np.sin(diff), axis=1)


def filter_gain(omega_pc: np.ndarray | float, dt: float, mode: str) -> np.ndarray | float:
    """Per-step gain of the first-order low-pass filter discretization."""
    if mode == EXACT_EXPONENTIAL:
        return 1.0 - np.exp(-np.asarray(omega_pc, dtype=float) * dt)
    if mode == FORWARD_EULER:
        return np.asarray(omega_pc, dtype=float) * dt
    raise ValueError(f"unknown filter mode {mode!r}")


class _StepKernel:
    """The plant step with its per-run constants computed once.

    Holds the parameter arrays, the filter gain, the angle-integration
    factor and the work buffers for one (params, net, cfg), so a run pays
    for them once instead of on every sample.  ``advance`` updates a
    stacked (4, n_bus) state, rows theta, omega, u_filt and p_filt, in
    place, with the float operations, and their order, of the documented
    update; it raises ValueError for a non-finite input and
    SimulationDiverged for a non-finite state.  Callers run it with
    overflow and invalid-operation warnings off: such a step ends in that
    check instead.
    """

    def __init__(
        self,
        params: InverterParams | Sequence[InverterParams],
        net: NetworkGraph,
        cfg: SimConfig,
    ):
        n = net.n_bus
        self.n_bus = n
        self.susceptance = net.susceptance
        self.p_star, self.k_p, omega_pc, omega_b = _param_arrays(params, n)
        self.alpha = filter_gain(omega_pc, cfg.dt, cfg.filter_mode)
        self.dt_omega_b = cfg.dt * omega_b
        self.diverged = (
            "non-finite state after step; check the filter discretization "
            f"(mode={cfg.filter_mode}, dt*omega_pc up to {np.max(cfg.dt * omega_pc):.3g})"
        )
        self._angles = np.empty((n, n))
        self._target = np.empty((2, n))  # the filters' inputs, [u; p]
        self._spare = np.empty(n)

    def advance(self, x: np.ndarray, u: np.ndarray) -> None:
        """Move the stacked state ``x`` one step on under input ``u``."""
        theta, omega, filt = x[0], x[1], x[2:]
        target, spare = self._target, self._spare
        # injections from the current angles, p_i = sum_j B_ij sin(theta_i - theta_j)
        angles = np.subtract.outer(theta, theta, out=self._angles)
        np.sin(angles, out=angles)
        np.multiply(self.susceptance, angles, out=angles)
        np.add.reduce(angles, axis=1, out=target[1])
        # both filters at once: filt + alpha * ([u; p] - filt)
        target[0] = u
        np.subtract(target, filt, out=target)
        np.multiply(self.alpha, target, out=target)
        np.add(filt, target, out=filt)
        # the angle integration uses the pre-update frequency
        np.multiply(self.dt_omega_b, omega, out=spare)
        np.add(theta, spare, out=theta)
        np.add(self.p_star, filt[0], out=omega)
        np.subtract(omega, filt[1], out=omega)
        np.multiply(self.k_p, omega, out=omega)
        if not np.isfinite(x).all():
            # a non-finite input always reaches u_filt: alpha * inf is inf or nan
            if not np.all(np.isfinite(u)):
                raise ValueError("non-finite input vector")
            raise SimulationDiverged(self.diverged)

    def stack(self, state: SimState) -> np.ndarray:
        """A fresh stacked copy of ``state`` for ``advance``."""
        return np.array((state.theta, state.omega, state.u_filt, state.p_filt))

    def step(self, state: SimState, u: np.ndarray) -> SimState:
        """Validated one-step advance of ``state``."""
        n = self.n_bus
        if state.n_bus != n:
            raise ValueError(f"network has {n} buses, state has {state.n_bus}")
        u = np.asarray(u, dtype=float)
        if u.shape != (n,):
            raise ValueError(f"expected input of length {n}, got shape {u.shape}")
        x = self.stack(state)
        with np.errstate(over="ignore", invalid="ignore"):
            self.advance(x, u)
        theta, omega, u_filt, p_filt = x
        return SimState._from_checked(theta, omega, p_filt, u_filt)  # advance checked what SimState would


def step(
    state: SimState,
    u: np.ndarray,
    params: InverterParams | Sequence[InverterParams],
    net: NetworkGraph,
    cfg: SimConfig,
) -> SimState:
    """Advance the network one step.

    Update order: injections from current angles, filter advance for the
    external input and the power measurement, droop frequency update,
    then the angle integration using the pre-update frequency.
    """
    return _StepKernel(params, net, cfg).step(state, u)


def simulate(
    initial: SimState,
    inputs: np.ndarray,
    params: InverterParams | Sequence[InverterParams],
    net: NetworkGraph,
    cfg: SimConfig,
) -> Trajectory:
    """Run the plant over an input sequence; outputs are the frequencies.

    ``y[k]`` records the frequency deviations at step k before ``u[k]``
    acts, so the returned (u, y) pair is causally aligned.  The result
    is bit for bit that of calling ``step`` on every sample; the
    parameter arrays and filter gain are computed once per run.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] < 1:
        raise ValueError("input sequence must have at least one step")
    if inputs.shape[1] != initial.n_bus:
        raise ValueError(
            f"inputs have width {inputs.shape[1]}, expected {initial.n_bus}"
        )
    if net.n_bus != initial.n_bus:
        raise ValueError(f"network has {net.n_bus} buses, state has {initial.n_bus}")
    kernel = _StepKernel(params, net, cfg)
    x = kernel.stack(initial)
    omega = x[1]
    ys = np.empty_like(inputs)
    with np.errstate(over="ignore", invalid="ignore"):  # advance reports overflow
        for k in range(inputs.shape[0]):
            ys[k] = omega
            try:
                kernel.advance(x, inputs[k])
            except SimulationDiverged as exc:
                raise SimulationDiverged(f"step {k}: {exc}") from exc
    return Trajectory(u=inputs, y=ys, dt=cfg.dt)


def equilibrium_state(
    params: InverterParams | Sequence[InverterParams],
    net: NetworkGraph,
) -> SimState:
    """Zero-input steady state of the dispatch: settled filters, synchronized frequency.

    For a balanced dispatch (setpoints summing to zero) this is an exact
    fixed point with zero frequency deviation.  An unbalanced dispatch
    settles at the synchronized droop offset instead: every bus runs at
    the common deviation ``sum(p*) / sum(1/k_p)`` while the angles drift
    uniformly, leaving all measured quantities constant.  The flow
    pattern ``injections(theta) = p* - offset/k_p`` is solved by Newton
    iteration with bus 0 as the angle reference, to a mismatch below
    ``_FLOW_TOL`` within ``_FLOW_MAX_ITER`` steps; an untransferable
    dispatch raises a ValueError.
    """
    n = net.n_bus
    p_star, k_p, _, _ = _param_arrays(params, n)
    omega_sync = float(np.sum(p_star) / np.sum(1.0 / k_p))
    target = p_star - omega_sync / k_p
    theta = np.zeros(n)
    b = net.susceptance
    for _ in range(_FLOW_MAX_ITER):
        mismatch = power_injections(theta, net) - target
        if np.max(np.abs(mismatch)) < _FLOW_TOL:
            break
        diff = theta[:, None] - theta[None, :]
        weights = b * np.cos(diff)
        jac = -weights
        jac[np.diag_indices(n)] = weights.sum(axis=1)
        try:
            step_red = np.linalg.solve(jac[1:, 1:], mismatch[1:])
        except np.linalg.LinAlgError as exc:
            raise ValueError("power flow Jacobian singular; dispatch not transferable") from exc
        theta[1:] -= step_red
        if np.max(np.abs(theta)) > np.pi:
            raise ValueError("power flow diverged; dispatch not transferable over this network")
    else:
        raise ValueError("power flow did not converge; dispatch may be infeasible")
    return SimState(
        theta=theta,
        omega=np.full(n, omega_sync),
        p_filt=target,
        u_filt=np.zeros(n),
    )


def disturbed_state(
    params: InverterParams | Sequence[InverterParams],
    net: NetworkGraph,
    spec: DisturbanceSpec,
) -> SimState:
    """Initial state for the disturbed-condition scenario."""
    n = net.n_bus
    base = equilibrium_state(params, net) if spec.around_equilibrium else SimState.zeros(n)
    rng = np.random.default_rng(spec.seed)
    return SimState(
        theta=base.theta + spec.theta_jitter * rng.uniform(-1.0, 1.0, size=n),
        omega=base.omega + spec.omega_jitter * rng.uniform(-1.0, 1.0, size=n),
        p_filt=base.p_filt + spec.p_filt_jitter * rng.uniform(-1.0, 1.0, size=n),
        u_filt=np.zeros(n),
    )


class NetworkPlant:
    """Stateful closed-loop handle around the stepping engine.

    ``net``, ``params`` and ``cfg`` are read once, at construction, into
    the step kernel; reassigning them later does not change the plant.
    """

    def __init__(
        self,
        net: NetworkGraph,
        params: InverterParams | Sequence[InverterParams],
        cfg: SimConfig,
        initial: SimState | None = None,
    ):
        self.net = net
        self.params = params
        self.cfg = cfg
        self.state = initial if initial is not None else SimState.zeros(net.n_bus)
        self._kernel = _StepKernel(params, net, cfg)

    @property
    def n_u(self) -> int:
        return self.net.n_bus

    @property
    def n_y(self) -> int:
        return self.net.n_bus

    def measure(self) -> np.ndarray:
        return self.state.omega.copy()

    def step(self, u: np.ndarray) -> None:
        self.state = self._kernel.step(self.state, u)

    def apply_disturbance(self, spec: DisturbanceSpec) -> None:
        self.state = disturbed_state(self.params, self.net, spec)


def default_network(n_bus: int = 10) -> NetworkGraph:
    """Stand-in network: a ring with chords, uniform line admittance ``_LINE_SUSCEPTANCE``.

    Chords connect each bus to its second neighbour and to the bus
    halfway around the ring, giving the stiff, well-meshed coupling of a
    transmission-level grid: every disturbance mode then decays on a
    timescale the droop loop can handle within a short run.
    """
    b = np.zeros((n_bus, n_bus))
    jumps = {1, 2}
    if n_bus >= 6:
        jumps.add(n_bus // 2)
    for jump in jumps:
        for i in range(n_bus):
            j = (i + jump) % n_bus
            if i != j:
                b[i, j] = b[j, i] = _LINE_SUSCEPTANCE
    return NetworkGraph(susceptance=b)


def save_network(net: NetworkGraph, path: str | Path) -> None:
    """Write the network as text: bus count, then one ``i j B_ij`` line per edge."""
    lines = [f"{net.n_bus}"]
    b = net.susceptance
    for i in range(net.n_bus):
        for j in range(i + 1, net.n_bus):
            if b[i, j] != 0.0:
                lines.append(f"{i + 1} {j + 1} {float(b[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_network(path: str | Path) -> NetworkGraph:
    """Read a network file: first value is n_bus, then (i, j, B_ij) triples (1-based)."""
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens:
        raise ValueError(f"empty network file {path}")
    n_bus = int(tokens[0])
    rest = tokens[1:]
    if len(rest) % 3 != 0:
        raise ValueError(f"malformed network file {path}: expected (i, j, B) triples")
    b = np.zeros((n_bus, n_bus))
    for idx in range(0, len(rest), 3):
        i = int(rest[idx]) - 1
        j = int(rest[idx + 1]) - 1
        val = float(rest[idx + 2])
        if not (0 <= i < n_bus and 0 <= j < n_bus):
            raise ValueError(f"bus index out of range in {path}: {i + 1}, {j + 1}")
        b[i, j] = b[j, i] = val
    return NetworkGraph(susceptance=b)
