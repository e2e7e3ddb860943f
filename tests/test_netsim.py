import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dkpc import netsim
from dkpc.netsim import (
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
    filter_gain,
    load_network,
    power_injections,
    save_network,
    simulate,
    step,
)

from oracles import droop_step, injections_scalar


def two_bus(b=5.0):
    return NetworkGraph(susceptance=np.array([[0.0, b], [b, 0.0]]))


# -- power injections --------------------------------------------------------


def test_injections_zero_angle_difference():
    p = power_injections(np.zeros(2), two_bus())
    assert np.allclose(p, 0.0)


def test_injections_two_bus_value():
    # direct scalar evaluation: p_1 = 5 sin(0.1)
    p = power_injections(np.array([0.1, 0.0]), two_bus())
    assert math.isclose(p[0], 5.0 * math.sin(0.1), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(p[0], 0.499167, abs_tol=1e-6)
    assert math.isclose(p[1], -p[0], abs_tol=1e-15)


def test_injections_no_lines():
    net = NetworkGraph(susceptance=np.zeros((1, 1)))
    assert np.allclose(power_injections(np.array([0.37]), net), 0.0)


def test_injections_match_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        b = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        b = np.triu(b, 1)
        b = b + b.T
        b[0, 1] = b[1, 0] = 1.0  # keep it connected enough for validation
        for i in range(n - 1):
            b[i, i + 1] = b[i + 1, i] = max(b[i, i + 1], 0.5)
        net = NetworkGraph(susceptance=b)
        theta = rng.uniform(-1.0, 1.0, n)
        assert np.allclose(power_injections(theta, net), injections_scalar(theta, b), atol=1e-12)


def test_injections_sum_to_zero():
    rng = np.random.default_rng(4)
    net = default_network(10)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, 10)
        assert abs(power_injections(theta, net).sum()) < 1e-12


def test_injections_dimension_mismatch():
    with pytest.raises(ValueError):
        power_injections(np.zeros(3), two_bus())


# -- stepping ----------------------------------------------------------------


def test_droop_at_setpoint_gives_zero_frequency():
    # filters already settled at p_filt = p*, u_filt = 0
    net = two_bus()
    params = InverterParams(p_star=0.0)
    state = SimState.zeros(2)
    nxt = step(state, np.zeros(2), params, net, SimConfig())
    assert np.allclose(nxt.omega, 0.0)


def test_filter_advance_exact_exponential():
    # p_filt 0 -> injections 1: one step moves by 1 - exp(-w_pc dt)
    b = 5.0
    theta1 = math.asin(1.0 / b)
    net = two_bus(b)
    params = InverterParams()
    state = SimState(
        theta=np.array([theta1, 0.0]),
        omega=np.zeros(2),
        p_filt=np.zeros(2),
        u_filt=np.zeros(2),
    )
    nxt = step(state, np.zeros(2), params, net, SimConfig(dt=0.01))
    expect = 1.0 - math.exp(-332.8 * 0.01)
    assert math.isclose(nxt.p_filt[0], expect, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(expect, 0.964135, abs_tol=1e-6)


def test_filter_gain_modes():
    assert math.isclose(filter_gain(332.8, 0.01, netsim.EXACT_EXPONENTIAL), 1 - math.exp(-3.328))
    assert math.isclose(filter_gain(332.8, 0.01, netsim.FORWARD_EULER), 3.328)


def test_zero_frequency_freezes_angles():
    net = two_bus()
    state = SimState(
        theta=np.array([0.3, -0.2]),
        omega=np.zeros(2),
        p_filt=np.zeros(2),
        u_filt=np.zeros(2),
    )
    nxt = step(state, np.zeros(2), InverterParams(), net, SimConfig())
    assert np.array_equal(nxt.theta, state.theta)


def test_filter_contraction_exact_mode():
    # |x_filt - x| never grows for a constant target in exact mode
    alpha = filter_gain(332.8, 0.01, netsim.EXACT_EXPONENTIAL)
    x = 1.0
    xf = -0.5
    for _ in range(20):
        nxt = xf + alpha * (x - xf)
        assert abs(nxt - x) <= abs(xf - x)
        xf = nxt


def test_forward_euler_instability_detected():
    # dt*w_pc = 3.328 > 2 diverges; must fail loudly with the step index
    net = two_bus()
    params = InverterParams()
    cfg = SimConfig(dt=0.01, filter_mode=netsim.FORWARD_EULER)
    state = SimState(
        theta=np.zeros(2), omega=np.zeros(2), p_filt=np.array([0.5, 0.0]), u_filt=np.zeros(2)
    )
    with pytest.raises(SimulationDiverged, match=r"step \d+"):
        simulate(state, np.zeros((1500, 2)), params, net, cfg)


# -- equilibrium and invariance ----------------------------------------------


def test_equilibrium_invariance_balanced():
    net = default_network(10)
    params = [InverterParams(p_star=v) for v in (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)]
    eq = equilibrium_state(params, net)
    assert np.allclose(eq.omega, 0.0)
    state = eq
    for _ in range(50):
        state = step(state, np.zeros(10), params, net, SimConfig())
    assert np.allclose(state.theta, eq.theta, atol=1e-10)
    assert np.allclose(state.omega, 0.0, atol=1e-10)
    assert np.allclose(state.p_filt, eq.p_filt, atol=1e-10)


def test_equilibrium_arbitrary_angles_codessigned_setpoints():
    # any angle pattern is a fixed point when p* matches its injections
    rng = np.random.default_rng(9)
    net = default_network(10)
    theta = rng.uniform(-0.2, 0.2, 10)
    p_star = power_injections(theta, net)
    params = [InverterParams(p_star=float(v)) for v in p_star]
    state = SimState(theta=theta, omega=np.zeros(10), p_filt=p_star.copy(), u_filt=np.zeros(10))
    nxt = step(state, np.zeros(10), params, net, SimConfig())
    assert np.array_equal(nxt.theta, state.theta)
    assert np.allclose(nxt.omega, 0.0, atol=1e-15)


def test_equilibrium_unbalanced_sync_offset():
    net = default_network(10)
    params = [InverterParams(p_star=v) for v in (1, 1, 1, 1, 1, 1, 1, -1, -1, -1)]
    eq = equilibrium_state(params, net)
    assert np.allclose(eq.omega, 0.07 * 0.4)  # k_p * mean(p*)
    # measured quantities stay constant even though angles drift together
    state = eq
    for _ in range(30):
        state = step(state, np.zeros(10), params, net, SimConfig())
    assert np.allclose(state.omega, eq.omega, atol=1e-9)
    assert np.allclose(state.p_filt, eq.p_filt, atol=1e-9)


def test_equilibrium_untransferable_dispatch_rejected():
    net = two_bus(b=0.1)  # line can carry at most 0.1 p.u.
    params = [InverterParams(p_star=1.0), InverterParams(p_star=-1.0)]
    with pytest.raises(ValueError):
        equilibrium_state(params, net)


# -- simulate ----------------------------------------------------------------


def test_simulate_fixed_point_outputs_zero():
    net = default_network(10)
    params = [InverterParams(p_star=v) for v in (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)]
    eq = equilibrium_state(params, net)
    traj = simulate(eq, np.zeros((60, 10)), params, net, SimConfig())
    assert np.allclose(traj.y, 0.0, atol=1e-10)


def test_simulate_single_sample():
    net = two_bus()
    traj = simulate(SimState.zeros(2), np.zeros((1, 2)), InverterParams(p_star=0.0), net, SimConfig())
    assert traj.length == 1


def test_simulate_random_run_bounded(plant_dataset):
    assert np.all(np.isfinite(plant_dataset.y))
    assert np.max(np.abs(plant_dataset.y)) < 1.0


def test_simulate_deterministic(plant_setup):
    net, params, cfg = plant_setup
    rng = np.random.default_rng(17)
    u = rng.uniform(-1, 1, size=(100, 10))
    eq = equilibrium_state(params, net)
    a = simulate(eq, u, params, net, cfg)
    b = simulate(eq, u, params, net, cfg)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.u, b.u)


def _stepped(state, inputs, params, net, cfg):
    """Reference run: the public ``step`` on every sample."""
    ys = np.empty_like(inputs)
    for k in range(inputs.shape[0]):
        ys[k] = state.omega
        state = step(state, inputs[k], params, net, cfg)
    return ys, state


@pytest.mark.parametrize(
    "cfg",
    [SimConfig(dt=0.01), SimConfig(dt=0.002, filter_mode=netsim.FORWARD_EULER)],
    ids=["exact", "euler"],
)
def test_simulate_equals_public_step_loop(plant_setup, cfg):
    net, _, _ = plant_setup
    params = [InverterParams(p_star=v, k_p=0.05 + 0.01 * i, omega_pc=250.0 + 20.0 * i)
              for i, v in enumerate((1, 1, 1, 1, 1, -1, -1, -1, -1, -1))]
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, size=(300, 10))
    start = disturbed_state(params, net, DisturbanceSpec(seed=3))
    ys, last = _stepped(start, u, params, net, cfg)
    traj = simulate(start, u, params, net, cfg)
    assert np.array_equal(traj.y, ys)
    x = (start.theta, start.omega, start.p_filt, start.u_filt)
    euler = cfg.filter_mode == netsim.FORWARD_EULER
    for k in range(u.shape[0]):
        assert np.array_equal(x[1], ys[k])
        x = droop_step(x, u[k], params, net.susceptance, cfg.dt, euler)
    plant = NetworkPlant(net, params, cfg, initial=start)
    for k in range(u.shape[0]):
        assert np.array_equal(plant.measure(), ys[k])
        plant.step(u[k])
    for name in ("theta", "omega", "p_filt", "u_filt"):
        assert np.array_equal(getattr(plant.state, name), getattr(last, name))


def test_simulate_diverges_at_the_step_of_the_public_loop():
    net = two_bus()
    params = InverterParams()
    cfg = SimConfig(dt=0.01, filter_mode=netsim.FORWARD_EULER)
    start = SimState(
        theta=np.zeros(2), omega=np.zeros(2), p_filt=np.array([0.5, 0.0]), u_filt=np.zeros(2)
    )
    inputs = np.zeros((1500, 2))
    state = start
    for k in range(inputs.shape[0]):
        try:
            state = step(state, inputs[k], params, net, cfg)
        except SimulationDiverged as exc:
            diverged_at, message = k, str(exc)
            break
    else:
        pytest.fail("the forward-Euler run did not diverge")
    with pytest.raises(SimulationDiverged) as info:
        simulate(start, inputs, params, net, cfg)
    assert str(info.value) == f"step {diverged_at}: {message}"


def _filter_divergence(route):
    """A finite start and finite inputs whose first non-finite value is in ``route``."""
    params = InverterParams()
    if route == "u_filt":
        # two inputs at the ends of the float range: u - u_filt overflows at step 4
        cfg = SimConfig(dt=0.01)
        start = SimState.zeros(2)
        inputs = np.zeros((10, 2))
        inputs[3, 0], inputs[4, 0] = 1.7e308, -1.7e308
    else:
        # dt * omega_pc = 3.328 > 2: p_filt grows until alpha * (p - p_filt) overflows
        cfg = SimConfig(dt=0.01, filter_mode=netsim.FORWARD_EULER)
        start = SimState(
            theta=np.zeros(2), omega=np.zeros(2), p_filt=np.array([0.5, 0.0]), u_filt=np.zeros(2)
        )
        inputs = np.zeros((1500, 2))
    return start, inputs, params, cfg


@pytest.mark.parametrize("route", ["u_filt", "p_filt"])
def test_filter_divergence_raises_at_one_step_on_every_path(route):
    net = two_bus()
    start, inputs, params, cfg = _filter_divergence(route)
    euler = cfg.filter_mode == netsim.FORWARD_EULER
    x = (start.theta, start.omega, start.p_filt, start.u_filt)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(inputs.shape[0]):
            x = droop_step(x, inputs[first], [params] * 2, net.susceptance, cfg.dt, euler)
            if not np.all(np.isfinite(np.concatenate(x))):
                break
    theta, _, p_filt, u_filt = x
    filters = {"u_filt": u_filt, "p_filt": p_filt}
    # the named filter leaves the float range; the other filter and the angles stay finite
    assert not np.all(np.isfinite(filters.pop(route)))
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(*filters.values()))

    state = start
    for k in range(inputs.shape[0]):
        try:
            state = step(state, inputs[k], params, net, cfg)
        except SimulationDiverged as exc:
            diverged_at, message = k, str(exc)
            break
    else:
        pytest.fail(f"the {route} run did not diverge")
    assert diverged_at == first
    with pytest.raises(SimulationDiverged) as info:
        simulate(start, inputs, params, net, cfg)
    assert str(info.value) == f"step {diverged_at}: {message}"
    plant = NetworkPlant(net, params, cfg, initial=start)
    for k in range(diverged_at):
        plant.step(inputs[k])
    with pytest.raises(SimulationDiverged) as info:
        plant.step(inputs[diverged_at])
    assert str(info.value) == message


def test_non_finite_input_rejected(plant_setup):
    net, params, cfg = plant_setup
    u = np.zeros((20, 10))
    u[7, 3] = np.nan
    eq = equilibrium_state(params, net)
    with pytest.raises(ValueError, match="non-finite input"):
        simulate(eq, u, params, net, cfg)
    with pytest.raises(ValueError, match="non-finite input"):
        step(eq, u[7], params, net, cfg)
    plant = NetworkPlant(net, params, cfg, initial=eq)
    with pytest.raises(ValueError, match="non-finite input"):
        plant.step(np.full(10, np.inf))


# -- disturbance and plant handle ---------------------------------------------


def test_disturbed_state_seeded_and_offset(plant_setup):
    net, params, _ = plant_setup
    spec = DisturbanceSpec(seed=7)
    a = disturbed_state(params, net, spec)
    b = disturbed_state(params, net, spec)
    assert np.array_equal(a.theta, b.theta)
    eq = equilibrium_state(params, net)
    assert np.max(np.abs(a.theta - eq.theta)) <= spec.theta_jitter + 1e-12
    assert np.max(np.abs(a.theta - eq.theta)) > 0.0


def test_network_plant_round(plant_setup):
    net, params, cfg = plant_setup
    plant = NetworkPlant(net, params, cfg)
    plant.apply_disturbance(DisturbanceSpec(seed=1))
    y0 = plant.measure()
    plant.step(np.zeros(10))
    assert plant.measure().shape == (10,)
    assert y0.shape == (10,)


# -- network validation and file format ---------------------------------------


def test_network_rejects_asymmetric():
    b = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        NetworkGraph(susceptance=b)


def test_network_rejects_negative_and_disconnected():
    with pytest.raises(ValueError):
        NetworkGraph(susceptance=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    dis = np.zeros((4, 4))
    dis[0, 1] = dis[1, 0] = 1.0
    dis[2, 3] = dis[3, 2] = 1.0
    with pytest.raises(ValueError):
        NetworkGraph(susceptance=dis)


def test_network_accepts_a_chain_of_buses():
    chain = np.zeros((6, 6))
    for i in range(5):
        chain[i, i + 1] = chain[i + 1, i] = 1.0
    assert NetworkGraph(susceptance=chain).n_bus == 6


def test_network_rejects_one_isolated_bus():
    b = default_network(10).susceptance.copy()
    b[4, :] = b[:, 4] = 0.0
    with pytest.raises(ValueError, match="connected"):
        NetworkGraph(susceptance=b)


def test_import_leaves_scipy_sparse_unloaded():
    # the connectivity check is the only graph work; scipy.sparse costs
    # about 5 MB resident in every process that imports dkpc
    src = Path(netsim.__file__).resolve().parent.parent
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        import dkpc
        names = ["dkpc"] + [f"dkpc.{m.name}" for m in pkgutil.iter_modules(dkpc.__path__)]
        for name in names:
            importlib.import_module(name)
            if "scipy.sparse" in sys.modules:
                sys.exit(f"{name} loads scipy.sparse")
        print(len(names))
    """)
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 9


def test_network_file_round_trip(tmp_path):
    net = default_network(10)
    path = tmp_path / "net.txt"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(back.susceptance, net.susceptance)


def test_network_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n")
    with pytest.raises(ValueError):
        load_network(path)


def test_default_network_connected_uniform():
    net = default_network(10)
    b = net.susceptance
    vals = b[b > 0]
    assert vals.size > 0 and np.all(vals == vals[0])
