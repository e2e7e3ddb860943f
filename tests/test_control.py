import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dkpc import behavior, control, netsim, qpsolve
from dkpc.behavior import Trajectory, assemble
from dkpc.control import (
    ControllerConfig,
    DeepcConfig,
    DeepcController,
    DkpcConfig,
    DkpcController,
    LtiPlant,
    Scenario,
    build_deepc_qp,
    build_dkpc_qp,
    run_closed_loop,
)
from dkpc.lifting import IdentityBank, build_bank
from dkpc.qpsolve import SOLVED, QpSettings, QpSolver, solve


def deepc_config(cfg, lambda_sigma):
    """``cfg`` with the soft past-row weight ``lambda_sigma``."""
    return dataclasses.replace(cfg, lambda_sigma=lambda_sigma)


def prime(ctrl, u_val=0.0, y_val=0.0):
    """Record t_ini constant pairs into ``ctrl``'s window; returns ``ctrl``."""
    for _ in range(ctrl.cfg.t_ini):
        ctrl.record(np.full(ctrl.n_u, u_val), np.full(ctrl.n_y, y_val))
    return ctrl


def window_b_eq(hs, bank, u_window, y_window):
    """b_eq of a recorded window: Up, Yp, then Zp with a bank, then the future zeros."""
    parts = [u_window.ravel(), y_window.ravel()]
    if bank is not None:
        parts.append(bank.lift_trajectory(y_window).ravel())
    parts.append(np.zeros((hs.n_u + hs.n_y) * hs.horizon))
    return np.concatenate(parts)


def constant_window(hs, bank, u_val, y_val):
    """``window_b_eq`` of t_ini constant pairs."""
    return window_b_eq(hs, bank, np.full((hs.t_ini, hs.n_u), u_val),
                       np.full((hs.t_ini, hs.n_y), y_val))


@pytest.fixture(scope="module")
def full_scale_system():
    rng = np.random.default_rng(0)
    data = Trajectory(u=rng.uniform(-1, 1, (1000, 10)), y=0.05 * rng.normal(size=(1000, 10)))
    bank = build_bank(data.y, 40, seed=1)
    hs = assemble(data, bank, t_ini=5, horizon=10)
    return hs, bank


@pytest.fixture(scope="module")
def lti_setup(small_lti, lti_dataset):
    bank = build_bank(lti_dataset.y, 12, seed=3)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8)
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0, u_min=-2.0, u_max=2.0)
    return small_lti, hs, bank, cfg


# -- QP construction -----------------------------------------------------------


def test_dkpc_qp_dimensions(full_scale_system):
    hs, bank = full_scale_system
    prob = build_dkpc_qp(hs, bank, DkpcConfig(lambda_sigma=np.inf))
    assert prob.n == 986 + 100 + 100
    assert prob.m_eq == (10 + 10 + 40) * 5 + (10 + 10) * 10  # 500


def test_dkpc_qp_softens_output_and_lifted_rows(full_scale_system):
    # the default lambda_sigma adds one sigma per Yp and Zp row; Up stays hard
    hs, bank = full_scale_system
    hard = build_dkpc_qp(hs, bank, DkpcConfig(lambda_sigma=np.inf))
    soft = build_dkpc_qp(hs, bank, DkpcConfig())
    n_soft = (10 + 40) * 5
    assert soft.n == hard.n + n_soft and soft.m_eq == hard.m_eq
    assert np.array_equal(soft.A_eq[:, : hard.n], hard.A_eq)
    assert np.array_equal(soft.A_eq[50:300, hard.n :], -np.eye(n_soft))
    assert np.all(soft.A_eq[:50, hard.n :] == 0.0) and np.all(soft.A_eq[300:, hard.n :] == 0.0)
    assert np.all(soft.P[hard.n :] == 2.0 * 1e3) and np.array_equal(soft.b_eq, hard.b_eq)


def test_dkpc_qp_structure(full_scale_system):
    hs, bank = full_scale_system
    prob = build_dkpc_qp(hs, bank, DkpcConfig())
    n_cols = hs.n_cols
    assert np.array_equal(prob.A_eq[:50, :n_cols], hs.u_past)
    assert np.array_equal(prob.A_eq[50:100, :n_cols], hs.y_past)
    assert np.array_equal(prob.A_eq[100:300, :n_cols], hs.z)
    assert np.array_equal(prob.A_eq[300:400, n_cols : n_cols + 100], -np.eye(100))
    # the controller puts its window into the past rows of b_eq each step
    ctrl = prime(DkpcController(hs, bank, DkpcConfig()), u_val=0.25, y_val=0.01)
    ctrl.solve_step(np.full(10, 0.01))
    b_eq = ctrl._solver.problem.b_eq
    assert np.all(b_eq[:50] == 0.25) and np.all(b_eq[50:100] == 0.01)
    assert np.array_equal(b_eq[100:300], bank.lift_trajectory(np.full((5, 10), 0.01)).ravel())
    assert np.all(b_eq[300:] == 0.0)
    # g unbounded, inputs boxed
    assert np.all(np.isinf(prob.lower[:n_cols]))
    assert np.all(prob.lower[n_cols : n_cols + 100] == -1.0)
    assert np.all(prob.upper[n_cols : n_cols + 100] == 1.0)


def test_qp_and_solver_build_allocate_no_n_by_n_block(small_lti, full_scale_system):
    # the cost is diagonal, so neither QP nor solver holds an n x n array;
    # with 20 equality rows and n near 1500, n^2 floats (18 MB) exceed
    # everything else the build allocates together.  A polish-cache entry
    # of the default DKPC QP holds the factor of the rows below the split,
    # (m_eq - s)^2 floats, plus the set, its bound values and A x0: not
    # m_eq^2.
    rng = np.random.default_rng(2)
    data = small_lti.simulate(rng.uniform(-1.0, 1.0, size=(1500, 2)), x0=np.zeros(3))
    bank = build_bank(data.y, 2, seed=3)
    hs = assemble(data, bank, t_ini=2, horizon=2)
    cfg = DkpcConfig(t_ini=2, horizon=2, Q=10.0, R=0.1, lambda_g=1.0)
    deepc_cfg = deepc_config(cfg, 1e5)
    for build in (lambda: build_dkpc_qp(hs, bank, cfg),
                  lambda: build_deepc_qp(hs, deepc_cfg)):
        tracemalloc.start()
        try:
            prob = build()
            QpSolver(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.n > 1400 and peak < 8 * prob.n**2
        assert prob.P.shape == (prob.n,)
    hs, bank = full_scale_system
    prob = build_dkpc_qp(hs, bank, DkpcConfig())
    window = constant_window(hs, bank, 0.25, 0.01)
    # the first solve in a process also fills caches that outlive it:
    # numpy's per-ufunc loop dispatch and scipy's memo of LAPACK routines
    # (potrs); a separate, identical solver fills them first
    warm_up = QpSolver(prob)
    warm_up.update(b_eq=window)
    warm_up.solve()
    solver = QpSolver(prob)
    solver.update(b_eq=window)
    m_eq, split = prob.m_eq, int(np.flatnonzero(prob.A_eq[:, hs.n_cols])[-1])  # first u_f row
    assert (m_eq, split) == (500, 300)  # the u_f and y_f rows follow the 300 past rows
    tracemalloc.start()
    try:
        sol = solver.solve()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one active set factored and kept: its trailing block, no n x n array
    assert sol.status == SOLVED and sol.polished and sol.factorizations == 1
    kept -= sol.x.nbytes + sol.y_eq.nbytes + sol.y_box.nbytes
    assert kept <= 8 * ((m_eq - split) ** 2 + 2 * m_eq)
    assert solver._split == split


@pytest.mark.parametrize("bad", [dict(Q=-1.0), dict(Q=np.inf), dict(R=0.0), dict(R=np.nan),
                                 dict(Q=10.0 * np.eye(2)), dict(R=[[0.1, 0.0], [0.0, 0.1]]),
                                 # bounds: scalars under QpProblem's rule
                                 dict(u_min=2.0), dict(u_max=np.nan), dict(y_min=np.inf),
                                 dict(y_max=-np.inf), dict(y_min=1.0, y_max=-1.0),
                                 dict(u_min=np.full(10, -1.0))])
def test_weights_must_be_finite_scalars(bad):
    with pytest.raises(ValueError):
        DkpcConfig(**bad)


def reference_qp(hs, cfg, bank=None):
    """The behavioral QP assembled block by block: (P, A_eq, lower, upper) for b_eq = 0."""
    past = [hs.u_past, hs.y_past] + ([hs.z] if bank is not None else [])
    n_cols, n_up = hs.n_cols, len(hs.u_past)
    n_past = sum(len(block) for block in past)
    n_uf, n_yf = len(hs.u_future), len(hs.y_future)
    n_soft = 0 if np.isinf(cfg.lambda_sigma) else n_past - n_up
    soft = np.zeros((n_past, n_soft))
    soft[n_past - n_soft :] = -np.eye(n_soft)  # every past row after Up
    a_eq = np.block([
        [np.vstack(past), np.zeros((n_past, n_uf + n_yf)), soft],
        [hs.u_future, -np.eye(n_uf), np.zeros((n_uf, n_yf + n_soft))],
        [hs.y_future, np.zeros((n_yf, n_uf)), -np.eye(n_yf), np.zeros((n_yf, n_soft))],
    ])
    p_diag = 2.0 * np.concatenate([np.full(n_cols, cfg.lambda_g), np.full(n_uf, cfg.R),
                                   np.full(n_yf, cfg.Q), np.full(n_soft, cfg.lambda_sigma)])
    first_y = np.full(hs.n_y, np.inf)
    upper = np.concatenate([np.full(n_cols, np.inf), np.full(n_uf, cfg.u_max), first_y,
                            np.full(n_yf - hs.n_y, cfg.y_max), np.full(n_soft, np.inf)])
    lower = np.concatenate([np.full(n_cols, -np.inf), np.full(n_uf, cfg.u_min), -first_y,
                            np.full(n_yf - hs.n_y, cfg.y_min), np.full(n_soft, -np.inf)])
    return p_diag, a_eq, lower, upper


@pytest.mark.parametrize("lambda_sigma", [1e3, np.inf])
def test_builders_need_no_window_and_leave_b_eq_zero(lti_setup, lambda_sigma):
    # the builders are functions of the data and the tuning alone: no
    # controller has recorded anything, and the window's rows of b_eq,
    # which the controller sets each step, are zero like the rest
    _, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, lambda_sigma=lambda_sigma, y_min=-0.5, y_max=0.25)
    for prob, lifted in ((build_dkpc_qp(hs, bank, cfg), bank), (build_deepc_qp(hs, cfg), None)):
        p_diag, a_eq, lower, upper = reference_qp(hs, cfg, lifted)
        assert np.array_equal(prob.P, p_diag) and np.array_equal(prob.A_eq, a_eq)
        assert np.array_equal(prob.lower, lower) and np.array_equal(prob.upper, upper)
        assert np.all(prob.q == 0.0) and np.all(prob.b_eq == 0.0)
        assert prob.b_eq.shape == (prob.m_eq,)


@pytest.mark.parametrize("controller", ["dkpc", "deepc"])
@pytest.mark.parametrize("bad", [dict(cfg_t_ini=3), dict(cfg_horizon=4), dict(state_t_ini=3),
                                 dict(state_n_y=3)])
def test_builders_check_config_and_state_against_hankel(lti_setup, controller, bad):
    # both builders hold the config's windows to the Hankel partition
    # (t_ini 4, horizon 8, 2 inputs, 2 outputs), and the controller its
    # recorded window; a DKPC config with horizon 4 once built a QP with
    # misplaced output bounds
    _, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, y_min=-1.0, y_max=1.0)
    bad_cfg = dataclasses.replace(cfg, t_ini=bad.get("cfg_t_ini", 4),
                                  horizon=bad.get("cfg_horizon", 8))
    if controller == "dkpc":
        build = lambda c: build_dkpc_qp(hs, bank, c)  # noqa: E731
        ctrl = DkpcController(hs, bank, cfg)
    else:
        build = lambda c: build_deepc_qp(hs, deepc_config(c, 1e5))  # noqa: E731
        ctrl = DeepcController(hs, deepc_config(cfg, 1e5))
    if bad_cfg != cfg:
        with pytest.raises(ValueError, match="Hankel partition"):
            build(bad_cfg)
    else:
        # pairs of the partition's dimensions only, and t_ini of them before a step
        n_y = bad.get("state_n_y", 2)
        with pytest.raises(ValueError, match="wrong dimensions" if n_y != 2 else "primed"):
            for _ in range(bad.get("state_t_ini", 4)):
                ctrl.record(np.zeros(2), np.zeros(n_y))
            ctrl.solve_step(np.zeros(2))
    prob = build(cfg)
    assert np.count_nonzero(np.isfinite(prob.upper)) == 2 * 8 + 2 * 7  # u_f, later y_f


def test_dkpc_qp_bank_mismatch(full_scale_system):
    hs, _ = full_scale_system
    wrong = IdentityBank(10)  # 10 observables where the Z block expects 40
    with pytest.raises(ValueError, match="observables"):
        build_dkpc_qp(hs, wrong, DkpcConfig())
    # the controller checks its bank once, at construction
    with pytest.raises(ValueError, match="observables"):
        DkpcController(hs, wrong)
    with pytest.raises(ValueError, match="needs a lifting bank"):
        DkpcController(hs, None)


def test_dkpc_zero_equilibrium_zero_cost(lti_dataset):
    # with identity lifting the all-zero window is feasible at g = 0
    bank = IdentityBank(2)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8)
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=5.0, u_min=-1.0, u_max=1.0)
    prob = build_dkpc_qp(hs, bank, cfg)  # b_eq = 0: the all-zero window
    sol = solve(prob)
    assert sol.status == "solved"
    assert abs(sol.objective) <= 1e-8
    u_future = sol.x[hs.n_cols : hs.n_cols + 16]
    assert np.max(np.abs(u_future)) <= 1e-6


def test_deepc_qp_dimensions(full_scale_system):
    hs, _ = full_scale_system
    cfg = DeepcConfig(lambda_sigma=1e5)
    prob = build_deepc_qp(hs, cfg)
    n_cols = hs.n_cols
    assert prob.n == n_cols + 100 + 100 + 50  # sigma is n_y * t_ini = 50
    assert prob.m_eq == 100 + 200
    # sigma enters only the past-output rows
    sig = slice(n_cols + 200, prob.n)
    assert np.array_equal(prob.A_eq[50:100, sig], -np.eye(50))
    assert np.allclose(prob.A_eq[:50, sig], 0.0)
    assert np.allclose(prob.A_eq[100:, sig], 0.0)
    assert prob.P.shape == (prob.n,)
    assert np.all(prob.P[sig] == 2e5)


def test_deepc_infinite_weight_hard_past_rows(full_scale_system):
    # an infinite slack weight drops sigma: the past-output rows are hard
    hs, _ = full_scale_system
    cfg = DeepcConfig(lambda_sigma=np.inf)
    prob = build_deepc_qp(hs, cfg)
    n_cols = hs.n_cols
    assert prob.n == n_cols + 200
    assert prob.m_eq == 300
    assert np.array_equal(prob.A_eq[:100, :n_cols], np.vstack([hs.u_past, hs.y_past]))
    assert np.all(prob.A_eq[:100, n_cols:] == 0.0)
    assert np.all(np.isfinite(prob.P))


def test_dkpc_qp_is_hard_deepc_qp_plus_lifted_rows(lti_dataset):
    # with identity lifting Zp is a copy of Yp; the hard DKPC QP is the
    # inf-weight DeePC QP with those rows inserted after the past rows
    bank = IdentityBank(2)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8)
    common = dict(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0, u_min=-2.0, u_max=0.5)
    dkpc = build_dkpc_qp(hs, bank, DkpcConfig(lambda_sigma=np.inf, **common))
    deepc = build_deepc_qp(hs, DeepcConfig(lambda_sigma=np.inf, **common))
    assert np.array_equal(hs.z, hs.y_past)
    assert dkpc.n == deepc.n
    for name in ("P", "q", "lower", "upper"):
        assert np.array_equal(getattr(dkpc, name), getattr(deepc, name)), name
    # rows: Up 0..8, Yp 8..16, then the future rows
    a = deepc.A_eq
    assert np.array_equal(dkpc.A_eq, np.vstack([a[:16], a[8:16], a[16:]]))


def test_deepc_sigma_vanishes_on_exact_data(lti_setup):
    sys, hs, bank, _ = lti_setup
    ident = IdentityBank(2)
    hs_i = assemble(sys.simulate(np.random.default_rng(1).uniform(-1, 1, (150, 2)),
                                 x0=np.random.default_rng(2).standard_normal(3)),
                    ident, t_ini=4, horizon=8)
    cfg = DeepcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0,
                      u_min=-2.0, u_max=2.0, lambda_sigma=1e10)
    ctrl = DeepcController(hs_i, cfg)
    plant = LtiPlant(sys, x0=np.random.default_rng(3).standard_normal(3))
    for _ in range(4):
        ctrl.record(np.zeros(2), plant.measure())
        plant.step(np.zeros(2))
    ctrl.solve_step(plant.measure())
    sigma = ctrl.last_solution.x[hs_i.n_cols + 32 :]
    assert np.linalg.norm(sigma) <= 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        DkpcConfig(lambda_g=-1.0)
    for lambda_sigma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="lambda_sigma"):
            ControllerConfig(lambda_sigma=lambda_sigma)
    # one config for both controllers, one soft weight: default 1e3, inf for hard rows
    assert DkpcConfig is DeepcConfig is ControllerConfig
    assert ControllerConfig().lambda_sigma == 1e3
    assert ControllerConfig(lambda_sigma=np.inf).lambda_sigma == np.inf
    with pytest.raises(ValueError):
        DkpcConfig(t_ini=0)
    for lambda_g in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda_g"):
            DkpcConfig(lambda_g=lambda_g)


# -- predictive exactness --------------------------------------------------------


def rollout_error(sys, ctrl, hs, plant):
    state0 = plant.x.copy()
    res = ctrl.solve_step(plant.measure())
    # a fallback step predicts NaN, which max(0.0, nan) would pass over
    assert res.status == SOLVED, res.status
    assert np.all(np.isfinite(res.predicted_y))
    n_uf = sys.n_u * ctrl.cfg.horizon
    u_f = ctrl.last_solution.x[hs.n_cols : hs.n_cols + n_uf].reshape(ctrl.cfg.horizon, sys.n_u)
    probe = LtiPlant(sys, x0=state0)
    worst = 0.0
    for k in range(ctrl.cfg.horizon):
        worst = max(worst, float(np.max(np.abs(res.predicted_y[k] - probe.measure()))))
        probe.step(u_f[k])
    return worst


def test_noiseless_lti_exactness(lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, dataclasses.replace(cfg, lambda_sigma=np.inf))
    rng = np.random.default_rng(4)
    plant = LtiPlant(sys, x0=rng.standard_normal(3))
    for _ in range(4):
        ctrl.record(np.zeros(2), plant.measure())
        plant.step(np.zeros(2))
    assert rollout_error(sys, ctrl, hs, plant) <= 1e-6


def test_interpolation_without_regularizer(lti_setup):
    # lambda_g = 0: predictions remain exact system trajectories
    sys, hs, bank, _ = lti_setup
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=0.0, lambda_sigma=np.inf,
                     u_min=-2.0, u_max=2.0)
    ctrl = DkpcController(hs, bank, cfg)
    rng = np.random.default_rng(5)
    plant = LtiPlant(sys, x0=rng.standard_normal(3))
    for _ in range(4):
        ctrl.record(np.zeros(2), plant.measure())
        plant.step(np.zeros(2))
    assert rollout_error(sys, ctrl, hs, plant) <= 1e-6


# -- solve_step ----------------------------------------------------------------


def test_solve_step_equilibrium_returns_nominal(lti_dataset):
    bank = IdentityBank(2)
    hs = assemble(lti_dataset, bank, t_ini=4, horizon=8)
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=5.0)
    ctrl = DkpcController(hs, bank, cfg)
    for _ in range(4):
        ctrl.record(np.zeros(2), np.zeros(2))
    res = ctrl.solve_step(np.zeros(2))
    assert np.max(np.abs(res.u)) <= 1e-6  # regulation to zero


def test_solve_step_unprimed_raises(lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    with pytest.raises(ValueError, match="primed"):
        ctrl.solve_step(np.zeros(2))


def test_solve_step_deterministic(lti_setup):
    sys, hs, bank, cfg = lti_setup
    rng = np.random.default_rng(6)
    y_seq = rng.normal(size=(4, 2))
    us = []
    for _ in range(2):
        ctrl = DkpcController(hs, bank, cfg)
        for y in y_seq:
            ctrl.record(np.zeros(2), y)
        us.append(ctrl.solve_step(rng0 := y_seq[-1]).u)
    assert np.array_equal(us[0], us[1])


def test_solve_step_respects_bounds(lti_setup):
    sys, hs, bank, _ = lti_setup
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=1000.0, R=0.001, lambda_g=0.1,
                     u_min=-0.05, u_max=0.05)
    ctrl = DkpcController(hs, bank, cfg)
    rng = np.random.default_rng(7)
    plant = LtiPlant(sys, x0=3.0 * rng.standard_normal(3))
    for _ in range(4):
        ctrl.record(np.zeros(2), plant.measure())
        plant.step(np.zeros(2))
    for _ in range(10):
        res = ctrl.solve_step(plant.measure())
        assert np.all(res.u >= -0.05) and np.all(res.u <= 0.05)
        plant.step(res.u)


def test_solver_failure_falls_back_to_hold(lti_setup, admm_only, monkeypatch):
    sys, hs, bank, _ = lti_setup
    starved = QpSettings(eps_abs=1e-14, eps_rel=0.0, max_iter=2)
    monkeypatch.setattr(control, "QpSolver", functools.partial(QpSolver, settings=starved))
    cfg = DkpcConfig(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0)
    ctrl = DkpcController(hs, bank, cfg)
    held = np.array([0.3, -0.3])
    for _ in range(4):
        ctrl.record(held, np.array([0.1, 0.1]))
    res = ctrl.solve_step(np.array([0.1, 0.1]))
    assert res.status != SOLVED and res.fallback
    assert np.array_equal(res.u, held)
    assert np.all(np.isnan(res.predicted_y))


def test_controller_rejects_non_pe_data():
    data = Trajectory(u=np.zeros((60, 1)), y=np.zeros((60, 1)))
    with pytest.warns(UserWarning):
        hs = assemble(data, IdentityBank(1), t_ini=2, horizon=3)
    with pytest.raises(ValueError, match="persistency"):
        DkpcController(hs, IdentityBank(1), DkpcConfig(t_ini=2, horizon=3))


# -- closed loop ----------------------------------------------------------------


def test_closed_loop_never_activated_equilibrium(plant_setup):
    net, params, sim_cfg = plant_setup
    eq = netsim.equilibrium_state(params, net)
    rng = np.random.default_rng(1)
    data = netsim.simulate(eq, rng.uniform(-1, 1, (400, 10)), params, net, sim_cfg)
    bank = build_bank(data.y, 12, seed=0)
    hs = assemble(data, bank, t_ini=3, horizon=5)
    ctrl = DkpcController(hs, bank, DkpcConfig(t_ini=3, horizon=5))
    plant = netsim.NetworkPlant(net, params, sim_cfg, initial=eq)
    trace = run_closed_loop(plant, ctrl, Scenario(sim_steps=30, activation_step=1000))
    assert not np.any(trace.active)
    assert np.allclose(trace.y, 0.0, atol=1e-10)
    assert np.allclose(trace.u, 0.0)


def test_closed_loop_activation_timing(lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    plant = LtiPlant(sys, x0=np.random.default_rng(2).standard_normal(3))
    trace = run_closed_loop(plant, ctrl, Scenario(sim_steps=25, activation_step=6))
    assert not np.any(trace.active[:6])
    assert np.all(trace.active[6:])
    assert trace.status[5] == "inactive"
    assert trace.status[6] in ("solved", "max-iterations")
    assert np.allclose(trace.u[:6], 0.0)


def test_closed_loop_buffers_match_trace(lti_setup):
    # receding-horizon consistency: buffers replay the trace tail
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    plant = LtiPlant(sys, x0=np.random.default_rng(3).standard_normal(3))
    trace = run_closed_loop(plant, ctrl, Scenario(sim_steps=20, activation_step=5))
    assert np.allclose(np.array(ctrl.u_ini), trace.u[-cfg.t_ini:])
    assert np.allclose(np.array(ctrl.y_ini), trace.y[-cfg.t_ini:])


def test_closed_loop_requires_primable_activation(lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    with pytest.raises(ValueError, match="activation_step"):
        run_closed_loop(LtiPlant(sys), ctrl, Scenario(sim_steps=10, activation_step=2))


def test_closed_loop_divergence_truncates(plant_setup):
    net, params, _ = plant_setup
    euler = netsim.SimConfig(dt=0.01, filter_mode=netsim.FORWARD_EULER)
    eq = netsim.equilibrium_state(params, net)
    stable_cfg = netsim.SimConfig(dt=0.01)
    rng = np.random.default_rng(1)
    data = netsim.simulate(eq, rng.uniform(-1, 1, (400, 10)), params, net, stable_cfg)
    bank = build_bank(data.y, 12, seed=0)
    hs = assemble(data, bank, t_ini=3, horizon=5)
    ctrl = DkpcController(hs, bank, DkpcConfig(t_ini=3, horizon=5))
    bad = netsim.SimState(theta=eq.theta, omega=eq.omega, p_filt=eq.p_filt + 0.01,
                          u_filt=eq.u_filt)
    plant = netsim.NetworkPlant(net, params, euler, initial=bad)
    trace = run_closed_loop(plant, ctrl, Scenario(sim_steps=2000, activation_step=1990))
    assert trace.diverged_at is not None
    assert trace.steps == trace.diverged_at + 1
    # the blown-up outputs overflow the stage cost: +inf, never NaN
    assert not np.any(np.isnan(trace.stage_cost))
    assert np.isposinf(trace.stage_cost).any()


def test_parity_identity_lifting_vs_pinned_slack(small_lti, lti_dataset):
    ident = IdentityBank(2)
    hs = assemble(lti_dataset, ident, t_ini=4, horizon=8)
    common = dict(t_ini=4, horizon=8, Q=10.0, R=0.1, lambda_g=1.0, u_min=-2.0, u_max=2.0)
    c_lift = DkpcController(hs, ident, DkpcConfig(lambda_sigma=np.inf, **common))
    c_slack = DeepcController(hs, DeepcConfig(lambda_sigma=np.inf, **common))
    x0 = np.random.default_rng(5).standard_normal(3)
    scen = Scenario(sim_steps=30, activation_step=6)
    t1 = run_closed_loop(LtiPlant(small_lti, x0=x0), c_lift, scen)
    t2 = run_closed_loop(LtiPlant(small_lti, x0=x0), c_slack, scen)
    assert np.max(np.abs(t1.u - t2.u)) <= 1e-4
    assert np.max(np.abs(t1.y - t2.y)) <= 1e-4


def force_dense_hessian(mp):
    """Make the controllers pass P as its n x n matrix: the dense path's KKT LU factors."""
    mp.setattr(control, "QpProblem", lambda P, **kw: qpsolve.QpProblem(P=np.diag(P), **kw))


def test_diagonal_hessian_closed_loop_matches_dense_path(lti_setup, monkeypatch):
    # the solver keeps the controllers' diagonal cost Hessian as a vector
    # and polishes through the Schur complement; the applied inputs agree
    # with those of the dense path and its LU polish
    sys, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, u_min=-0.1, u_max=0.1)  # bounds become active
    deepc_cfg = deepc_config(cfg, 1e3)
    x0 = 4.0 * np.random.default_rng(7).standard_normal(3)
    scen = Scenario(sim_steps=30, activation_step=6)
    for make in (lambda: DkpcController(hs, bank, cfg), lambda: DeepcController(hs, deepc_cfg)):
        ctrl = make()
        schur = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, scen)
        assert ctrl._solver._P.ndim == 1 and ctrl._solver._schur_gram is not None
        with monkeypatch.context() as mp:
            force_dense_hessian(mp)
            ctrl = make()
            dense = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, scen)
        assert ctrl._solver._P.ndim == 2 and ctrl._solver._schur_gram is None
        assert np.any(np.abs(dense.u) == 0.1)
        assert np.max(np.abs(schur.u - dense.u)) <= 1e-9
        assert np.max(np.abs(schur.y - dense.y)) <= 1e-9


def test_controllers_polish_without_lu(lti_setup, monkeypatch):
    # both controllers' cost is diagonal and positive: every polish goes
    # through the equality-row Schur complement, never the full KKT LU
    sys, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, u_min=-0.1, u_max=0.1)
    deepc_cfg = deepc_config(cfg, 1e3)
    x0 = 4.0 * np.random.default_rng(7).standard_normal(3)
    lu_calls, schur_calls = [], []
    lu_factor, schur_solve = scipy.linalg.lu_factor, qpsolve.QpSolver._schur_solve
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda *a, **k: lu_calls.append(1) or lu_factor(*a, **k))
    monkeypatch.setattr(qpsolve.QpSolver, "_schur_solve",
                        lambda *a: schur_calls.append(1) or schur_solve(*a))
    for ctrl in (DkpcController(hs, bank, cfg), DeepcController(hs, deepc_cfg)):
        schur_calls.clear()
        trace = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, Scenario(sim_steps=20,
                                                                     activation_step=6))
        assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on)
        assert np.any(np.abs(trace.u) == 0.1)
        assert len(schur_calls) >= np.count_nonzero(trace.active)
    assert lu_calls == []


def test_dkpc_cold_step_ends_at_direct_polish(plant_setup, plant_dataset):
    # hard lifted rows are dependent, so DKPC's equality multipliers are
    # large and not unique; the polish guard reads the forces A_eq'y_eq
    # and y_box, which the KKT point fixes, so a cold step needs no ADMM
    net, params, sim_cfg = plant_setup
    bank = build_bank(plant_dataset.y, 10, seed=5)
    hs = assemble(plant_dataset, bank, t_ini=5, horizon=10)
    ctrl = DkpcController(hs, bank, DkpcConfig(t_ini=5, horizon=10, lambda_sigma=np.inf))
    eq = netsim.equilibrium_state(params, net)
    plant = netsim.NetworkPlant(net, params, sim_cfg, initial=eq)
    scen = Scenario(sim_steps=41, activation_step=40, disturbance=netsim.DisturbanceSpec(seed=7))
    trace = run_closed_loop(plant, ctrl, scen)
    assert trace.status[40] == SOLVED and trace.iterations[40] == 0
    solver = ctrl._solver
    assert solver._factored_rho is None
    cold = solver.solve()
    assert np.max(np.abs(cold.y_eq)) > 1e7 * (1.0 + np.max(np.abs(solver.problem.q)))
    # the incoming dual only seeds the active set: its size does not decide
    warm = solver.solve(warm_start_dual=np.concatenate([1e9 * cold.y_eq, cold.y_box]))
    for sol in (cold, warm):
        assert sol.status == SOLVED and sol.polished and sol.iterations == 0
    assert np.array_equal(warm.x, cold.x)
    # the warm solve meets the cold one's active set in the kept factor
    assert warm.factorizations == 0 and solver._factored_rho is None


def full_products(mp):
    """Make every solver take all its columns as the leading block: full products, no unit part."""
    unit_columns = qpsolve.QpSolver._unit_columns

    def full(self, p):
        unit_columns(self, p)
        self._n_lead, self._tail_rows, self._tail = p.n, self._tail_rows[:0], self._tail[:0]

    mp.setattr(qpsolve.QpSolver, "_unit_columns", full)


def test_unit_column_products_move_inputs_by_rounding(plant_setup, plant_dataset, monkeypatch):
    # the solver forms A x, A' y and S_0 over g's columns only, with the
    # unit columns (u_f, y_f, sigma) as (row, value) pairs
    net, params, sim_cfg = plant_setup
    bank = build_bank(plant_dataset.y, 10, seed=5)
    hs = assemble(plant_dataset, bank, t_ini=5, horizon=10)
    eq = netsim.equilibrium_state(params, net)
    scen = Scenario(sim_steps=70, activation_step=40, disturbance=netsim.DisturbanceSpec(seed=7))
    for make in (lambda: DkpcController(hs, bank, DkpcConfig()),
                 lambda: DeepcController(hs, DeepcConfig(lambda_sigma=1e5))):
        ctrl = make()
        unit = run_closed_loop(netsim.NetworkPlant(net, params, sim_cfg, initial=eq), ctrl, scen)
        assert ctrl._solver._n_lead == hs.n_cols
        with monkeypatch.context() as mp:
            full_products(mp)
            ctrl = make()
            full = run_closed_loop(netsim.NetworkPlant(net, params, sim_cfg, initial=eq), ctrl,
                                   scen)
        assert ctrl._solver._n_lead == ctrl._solver.problem.n
        assert all(st == SOLVED for st, on in zip(unit.status, unit.active) if on)
        assert np.max(np.abs(unit.u - full.u)) <= 1e-12


def factor_sizes(mp, name):
    """Record the order of every matrix passed to ``scipy.linalg.<name>``."""
    sizes = []
    factor = getattr(scipy.linalg, name)
    mp.setattr(scipy.linalg, name,
               lambda a, *args, **kw: sizes.append(len(a)) or factor(a, *args, **kw))
    return sizes


def test_controllers_factor_only_equality_rows(lti_setup, monkeypatch, request):
    # both controllers' cost is diagonal and positive: the ADMM system is
    # m_eq x m_eq, and it is built only by a loop that enters ADMM
    sys, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, u_min=-0.1, u_max=0.1)
    deepc_cfg = deepc_config(cfg, 1e3)
    x0 = 4.0 * np.random.default_rng(7).standard_normal(3)
    scen = Scenario(sim_steps=20, activation_step=6)
    sizes = factor_sizes(monkeypatch, "cho_factor")
    makes = (lambda: DkpcController(hs, bank, cfg), lambda: DeepcController(hs, deepc_cfg))
    # with the polish, this loop never enters ADMM and builds no ADMM system
    m_eqs = []
    for make in makes:
        sizes.clear()
        ctrl = make()
        trace = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, scen)
        m_eqs.append(ctrl._solver.problem.m_eq)
        assert np.all(trace.iterations == 0)
        assert ctrl._solver._factored_rho is None and ctrl._solver._factor is None
        assert sizes and max(sizes) <= m_eqs[-1]
    request.getfixturevalue("admm_only")  # every step runs ADMM
    for make, m_eq in zip(makes, m_eqs):
        sizes.clear()
        ctrl = make()
        trace = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, scen)
        assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on)
        assert np.all(trace.iterations[trace.active] > 0)
        # the leading Schur block at set-up, then the ADMM systems
        assert sizes[0] == ctrl._solver._split < m_eq
        assert max(sizes[1:]) == m_eq < ctrl._solver.problem.n


def test_dense_or_zero_diagonal_cost_factors_full_system(lti_setup, monkeypatch, admm_only):
    _, hs, bank, cfg = lti_setup
    short = QpSettings(max_iter=50)
    # lambda_g = 0: an (n,) P with zero entries, expanded to n x n by the solver
    prob = build_dkpc_qp(hs, bank, dataclasses.replace(cfg, lambda_g=0.0))
    assert prob.P.shape == (prob.n,)
    cho_sizes = factor_sizes(monkeypatch, "cho_factor")
    lu_sizes = factor_sizes(monkeypatch, "lu_factor")
    solver = QpSolver(prob, short)
    solver.update(b_eq=constant_window(hs, bank, 0.1, -0.05))
    assert lu_sizes == []  # built by the first ADMM iteration
    assert solver.solve().iterations > 0
    # the KKT form of the ADMM system, (n + m_eq)^2, by LU; no Cholesky
    assert lu_sizes and lu_sizes[0] == prob.n + prob.m_eq
    assert cho_sizes == []


def test_output_bounds_hold_from_the_second_predicted_sample(lti_setup):
    # the first y_f block is the current output, which u_t cannot move;
    # bounding it made the QP infeasible while the measurement broke the
    # bound.  The later blocks carry it, and the loop enters the band.
    sys, hs, bank, cfg = lti_setup
    cfg = dataclasses.replace(cfg, y_min=-0.005, y_max=0.005)
    deepc_cfg = deepc_config(cfg, 1e5)
    x0 = 4.0 * np.random.default_rng(7).standard_normal(3)
    scen = Scenario(sim_steps=25, activation_step=6)
    for ctrl in (DkpcController(hs, bank, cfg), DeepcController(hs, deepc_cfg)):
        predicted = []
        solve_step = ctrl.solve_step

        def recording_step(y_k, solve_step=solve_step, predicted=predicted):
            res = solve_step(y_k)
            predicted.append(res.predicted_y)
            return res

        ctrl.solve_step = recording_step
        trace = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, scen)
        act = trace.active
        assert len(predicted) == np.count_nonzero(act)
        assert np.max(np.abs(trace.y[scen.activation_step])) > 0.1
        assert all(st == SOLVED for st, on in zip(trace.status, act) if on)
        assert np.all(trace.iterations == 0)
        assert np.max(np.abs(np.array(predicted)[:, 1:])) <= 0.005 + 1e-6
        assert np.max(np.abs(trace.y[scen.activation_step + 3 :])) <= 0.005 + 1e-6


def test_closed_loop_trace_keeps_no_per_step_predictions(lti_setup):
    # perfbench keeps every run's trace of its window, as would a seed
    # panel that collects its runs, so whatever a trace holds per step
    # sets their resident memory.  A (steps, horizon, n_y) prediction
    # stack was 120 of the 150 KB of a 10-bus run and no caller read it;
    # each StepResult still carries its own prediction.
    sys, hs, bank, cfg = lti_setup
    scen = Scenario(sim_steps=30, activation_step=6)
    x0 = np.random.default_rng(7).standard_normal(3)
    trace = run_closed_loop(LtiPlant(sys, x0=x0), DkpcController(hs, bank, cfg), scen)
    assert trace.steps == scen.sim_steps
    held = sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))
    assert held <= trace.steps * (hs.n_u + hs.n_y + 6) * 8


# -- the Gram shared by every controller of one Hankel system --------------------


def network_data(n_bus, length, n_basis):
    """Balanced network, excitation data of seed 1 and its bank of seed 5, as in regulate."""
    net = netsim.default_network(n_bus)
    params = [netsim.InverterParams(p_star=1.0 if i < n_bus // 2 else -1.0)
              for i in range(n_bus)]
    sim_cfg = netsim.SimConfig(dt=0.01)
    eq = netsim.equilibrium_state(params, net)
    inputs = np.random.default_rng(1).uniform(-1.0, 1.0, size=(length, n_bus))
    data = netsim.simulate(eq, inputs, params, net, sim_cfg)
    return net, params, sim_cfg, data, build_bank(data.y, n_basis, seed=5)


@pytest.fixture(scope="module")
def regulate_setup():
    return network_data(10, 1000, 40)


def regulate_run(setup, hs, kind, sim_steps=150):
    """One closed-loop run of perfbench's regulate workload, disturbance seed 7."""
    net, params, sim_cfg, _, bank = setup
    if kind == "DKPC":
        ctrl = DkpcController(hs, bank, DkpcConfig())
    else:
        ctrl = DeepcController(hs, DeepcConfig(lambda_sigma=1e5))
    plant = netsim.NetworkPlant(net, params, sim_cfg, initial=netsim.equilibrium_state(params, net))
    scen = Scenario(sim_steps=sim_steps, activation_step=40,
                    disturbance=netsim.DisturbanceSpec(seed=7))
    return run_closed_loop(plant, ctrl, scen), ctrl


def without_gram(mp):
    """Build every controller's solver without the Hankel system's Gram: the product path."""
    mp.setattr(control, "QpSolver", lambda problem, gram: QpSolver(problem))


def count_gram_formations(mp):
    """A list that gains "plain" or "lifted" for each Gram a Hankel system forms."""
    formed = []
    plain, lifted = behavior._plain_gram, behavior._lifted_gram
    mp.setattr(behavior, "_plain_gram", lambda hs: formed.append("plain") or plain(hs))
    mp.setattr(behavior, "_lifted_gram",
               lambda hs, g: formed.append("lifted") or lifted(hs, g))
    return formed


def test_controller_build_order_does_not_move_inputs(regulate_setup):
    # DeePC's Gram is the block the lifted one copies, whichever comes first
    data, bank = regulate_setup[3:]
    inputs = {}
    for order in (("DKPC", "DeePC"), ("DeePC", "DKPC")):
        hs = assemble(data, bank, t_ini=5, horizon=10)
        for kind in order:
            inputs[order, kind] = regulate_run(regulate_setup, hs, kind, sim_steps=60)[0].u
    for kind in ("DKPC", "DeePC"):
        assert np.array_equal(inputs[("DKPC", "DeePC"), kind], inputs[("DeePC", "DKPC"), kind])


def test_gram_path_matches_product_path_on_regulate(regulate_setup, monkeypatch):
    data, bank = regulate_setup[3:]
    hs = assemble(data, bank, t_ini=5, horizon=10)
    for kind in ("DKPC", "DeePC"):
        trace, ctrl = regulate_run(regulate_setup, hs, kind)
        assert ctrl._solver._lead_gram is not None
        with monkeypatch.context() as mp:
            without_gram(mp)
            ref, ref_ctrl = regulate_run(regulate_setup, hs, kind)
        assert ref_ctrl._solver._lead_gram is None
        assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on)
        assert np.max(np.abs(trace.u - ref.u)) <= 1e-12, kind


def record_solver_calls(mp):
    """A list that gains ("update", b_eq) and ("solve", x, dual) for each call a QpSolver gets."""
    calls = []
    update, solve_qp = QpSolver.update, QpSolver.solve

    def recording_update(self, b_eq):
        calls.append(("update", np.array(b_eq)))
        return update(self, b_eq)

    def recording_solve(self, warm_start=None, warm_start_dual=None):
        calls.append(("solve", warm_start, warm_start_dual))
        return solve_qp(self, warm_start, warm_start_dual)

    mp.setattr(QpSolver, "update", recording_update)
    mp.setattr(QpSolver, "solve", recording_solve)
    return calls


def test_every_active_step_updates_b_eq_once(lti_setup, monkeypatch):
    # the first active step puts its window into b_eq as every later one
    # does: the builders leave it zero
    sys, hs, bank, cfg = lti_setup
    calls = record_solver_calls(monkeypatch)
    for ctrl in (DkpcController(hs, bank, cfg), DeepcController(hs, deepc_config(cfg, 1e5))):
        calls.clear()
        trace = run_closed_loop(LtiPlant(sys, x0=np.random.default_rng(3).standard_normal(3)),
                                ctrl, Scenario(sim_steps=20, activation_step=6))
        assert [c[0] for c in calls] == ["update", "solve"] * np.count_nonzero(trace.active)


def test_solver_driven_by_hand_reproduces_solve_step(regulate_setup, monkeypatch):
    # the public pieces alone make the controller: a builder, a solver
    # given the Hankel system's Gram, update(b_eq=window) each step and
    # the warm start read off the last solution; every value the default
    # run's solve_step passes the solver, and every input it applies,
    # comes out equal
    data, bank = regulate_setup[3:]
    hs = assemble(data, bank, t_ini=5, horizon=10)
    t_ini, n_cols = hs.t_ini, hs.n_cols
    for kind in ("DKPC", "DeePC"):
        with monkeypatch.context() as mp:
            calls = record_solver_calls(mp)
            trace, ctrl = regulate_run(regulate_setup, hs, kind)
        lifted = kind == "DKPC"
        problem = build_dkpc_qp(hs, bank, ctrl.cfg) if lifted else build_deepc_qp(hs, ctrl.cfg)
        solver = QpSolver(problem, gram=(hs.gram(lifted=lifted), n_cols))
        steps = np.flatnonzero(trace.active)
        assert len(calls) == 2 * len(steps)
        last = None
        for k, (update, solve_call) in zip(steps, zip(calls[::2], calls[1::2])):
            b_eq = window_b_eq(hs, bank if lifted else None, trace.u[k - t_ini : k],
                               trace.y[k - t_ini : k])
            solver.update(b_eq=b_eq)
            warm = (None, None) if last is None else (
                last.x, np.concatenate([last.y_eq, last.y_box]))
            assert np.array_equal(update[1], b_eq)
            for got, want in zip(solve_call[1:], warm):
                assert got is None if want is None else np.array_equal(got, want)
            last = solver.solve(*warm)
            u = np.clip(last.x[n_cols : n_cols + hs.n_u], ctrl.cfg.u_min, ctrl.cfg.u_max)
            assert last.status == SOLVED and np.array_equal(u, trace.u[k]), (kind, k)


def test_one_gram_formation_per_hankel_system(regulate_setup, monkeypatch):
    # each row set's Gram is formed once, and only for a controller whose
    # solver reads it: not for lambda_g = 0, where P is not > 0 on g.
    # R = lambda_g (u_f weighs what g does) keeps the Gram
    data, bank = regulate_setup[3:]
    formed = count_gram_formations(monkeypatch)

    def solved(ctrl):
        prime(ctrl, u_val=0.1, y_val=0.01)
        assert ctrl.solve_step(np.full(10, 0.01)).status == SOLVED
        return ctrl._solver._lead_gram is not None

    hs = assemble(data, bank, t_ini=5, horizon=10)
    assert not solved(DeepcController(hs, DeepcConfig(lambda_g=0.0)))
    assert formed == []
    assert solved(DeepcController(hs, DeepcConfig(lambda_sigma=1e5)))
    assert formed == ["plain"]
    controllers = [DkpcController(hs, bank, DkpcConfig()),
                   DkpcController(hs, bank, DkpcConfig(Q=30.0, lambda_g=1.0)),
                   DeepcController(hs, DeepcConfig(R=1.0, lambda_g=1.0))]
    assert all(solved(ctrl) for ctrl in controllers)
    assert formed == ["plain", "lifted"]


def test_thirty_bus_controllers_share_one_gram(monkeypatch):
    # scale guard: 4000 samples and 80 observables, 1300 x 1300 Gram;
    # DKPC and then DeePC from one Hankel system form each row set's once, and their
    # first inputs match those of solvers given no Gram
    *_, data, bank = network_data(30, 4000, 80)
    formed = count_gram_formations(monkeypatch)
    hs = assemble(data, bank, t_ini=5, horizon=10)

    def first_input(make):
        ctrl = prime(make(), u_val=0.05, y_val=0.02)
        step = ctrl.solve_step(np.full(30, 0.02))
        assert step.status == SOLVED
        return step.u

    makers = (lambda: DkpcController(hs, bank, DkpcConfig()),
              lambda: DeepcController(hs, DeepcConfig(lambda_sigma=1e5)))
    shared = [first_input(make) for make in makers]
    assert formed == ["plain", "lifted"] and hs.gram().shape == (1300, 1300)
    with monkeypatch.context() as mp:
        without_gram(mp)
        ref = [first_input(make) for make in makers]
    # measured: 2.9e-15 (DKPC) and 4.7e-13 (DeePC, lambda_sigma 1e5) on inputs near 0.07
    for u, u_ref in zip(shared, ref):
        assert np.max(np.abs(u - u_ref)) <= 1e-11


def count_row_set_work(mp):
    """Lists that gain an entry per equality row set built, A_eq mask scanned and Freivalds test."""
    built, scans, tests = [], [], []
    rows, layout, freivalds = behavior.EqualityRows, qpsolve._unit_layout, qpsolve._freivalds
    mp.setattr(behavior, "EqualityRows", lambda a, t: built.append(a.shape) or rows(a, t))
    mp.setattr(qpsolve, "_unit_layout", lambda a: scans.append(a.shape) or layout(a))
    mp.setattr(qpsolve, "_freivalds", lambda g, a: tests.append(a.shape) or freivalds(g, a))
    return built, scans, tests


def test_later_builds_on_a_row_set_form_nothing(regulate_setup, monkeypatch):
    # a row set is (Hankel system, lifted or not, hard or soft rows): its
    # first build forms the equality rows with their unit columns (u_f,
    # y_f, sigma) placed, not searched for, and checks the Gram; every
    # later build, whatever its weights, reads them and forms no Gram
    data, bank = regulate_setup[3:]
    formed = count_gram_formations(monkeypatch)
    built, scans, tests = count_row_set_work(monkeypatch)
    hs = assemble(data, bank, t_ini=5, horizon=10)

    def build(ctrl):
        for k in range(5):  # a window of the data, which hard rows match too
            ctrl.record(data.u[k], data.y[k])
        assert ctrl.solve_step(data.y[5]).status == SOLVED
        assert ctrl._solver._lead_gram is not None
        return [len(formed), len(built), len(scans), len(tests)]

    assert build(DkpcController(hs, bank, DkpcConfig())) == [2, 1, 0, 1]
    assert build(DkpcController(hs, bank, DkpcConfig(Q=30.0, lambda_g=1.0))) == [2, 1, 0, 1]
    assert build(DeepcController(hs, DeepcConfig(lambda_sigma=1e5))) == [2, 2, 0, 2]
    assert build(DeepcController(hs, DeepcConfig(R=1.0, lambda_g=1.0))) == [2, 2, 0, 2]
    assert build(DeepcController(hs, DeepcConfig(lambda_sigma=np.inf))) == [2, 3, 0, 3]
    assert build(DeepcController(hs, DeepcConfig(lambda_sigma=np.inf, Q=30.0))) == [2, 3, 0, 3]
    assert [shape[0] for shape in built] == [500, 300, 300]


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_ill_conditioned_past_rows_fall_back_without_raising(regulate_setup, monkeypatch, scale):
    # regulate's data with its first 3 samples scaled passes the PE check,
    # but rounding can leave the leading block of the Schur complement or
    # the ADMM system indefinite.  The step then solves or holds the last
    # input under a non-solved status; it never raises.  Measured: at 1e4
    # DKPC ends at max-iterations (it raised LinAlgError from the
    # constructor's split before) and DeePC solves; at 1e8 both factor
    # every active set in full (split 0) and end at factorization-failed
    data, bank = regulate_setup[3:]
    u, y = data.u.copy(), data.y.copy()
    u[:3] *= scale
    y[:3] *= scale
    hs = assemble(Trajectory(u=u, y=y, dt=data.dt), bank, t_ini=5, horizon=10)
    assert hs.pe_report
    short = QpSettings(max_iter=50)
    monkeypatch.setattr(control, "QpSolver", functools.partial(QpSolver, settings=short))
    statuses = []
    for ctrl in (DkpcController(hs, bank, DkpcConfig()),
                 DeepcController(hs, DeepcConfig(lambda_sigma=1e5))):
        held = np.full(10, 0.01)
        step = prime(ctrl, u_val=0.01, y_val=0.01).solve_step(np.full(10, 0.01))
        assert step.status == SOLVED or (step.fallback and np.array_equal(step.u, held))
        statuses.append((step.status, ctrl._solver._split))
    if scale == 1e8:
        assert statuses == [(qpsolve.UNFACTORED, 0)] * 2
    else:
        assert [status for status, _ in statuses] == [qpsolve.MAX_ITERATIONS, SOLVED]


def test_twenty_bus_closed_loop_ends_every_step_at_direct_polish():
    # scale tripwire: at 20 buses max|P x| reaches about 1e2 with q = 0, so
    # polished points whose dual residual passes eps_rel |P x| but not
    # eps_abs sent warm steps to ADMM; 10-bus runs never show it
    net, params, sim_cfg, data, bank = network_data(20, 2000, 40)
    hs = assemble(data, bank, t_ini=5, horizon=10)
    ctrl = DkpcController(hs, bank, DkpcConfig())
    plant = netsim.NetworkPlant(net, params, sim_cfg, initial=netsim.equilibrium_state(params, net))
    scen = Scenario(sim_steps=50, activation_step=40, disturbance=netsim.DisturbanceSpec(seed=7))
    trace = run_closed_loop(plant, ctrl, scen)
    assert np.count_nonzero(trace.active) == 10
    assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on)
    assert np.all(trace.iterations == 0)


def test_zero_regularizer_closed_loop_solves_at_direct_polish(lti_setup):
    # lambda_g = 0 leaves P singular on g and the lifted rows dependent:
    # the LU polish must refine away its regularization shift delta * nu
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, dataclasses.replace(cfg, lambda_g=0.0))
    x0 = np.random.default_rng(7).standard_normal(3)
    trace = run_closed_loop(LtiPlant(sys, x0=x0), ctrl, Scenario(sim_steps=20, activation_step=6))
    assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on)
    assert np.all(trace.iterations == 0)
    assert ctrl._solver._schur_gram is None  # the LU path

def test_trace_csv_columns(tmp_path, lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    plant = LtiPlant(sys, x0=np.random.default_rng(6).standard_normal(3))
    trace = run_closed_loop(plant, ctrl, Scenario(sim_steps=12, activation_step=5))
    path = tmp_path / "trace.csv"
    trace.to_csv(path, comment="config_hash=abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "k,t,active,u_1,u_2,y_1,y_2,cost,status,iters"
    assert len(lines) == 2 + 12


def test_stage_cost_definition(lti_setup):
    sys, hs, bank, cfg = lti_setup
    ctrl = DkpcController(hs, bank, cfg)
    y = np.array([0.2, -0.1])
    u = np.array([0.5, 0.0])
    expected = 10.0 * (y @ y) + 0.1 * (u @ u)
    assert np.isclose(ctrl.stage_cost(u, y), expected)
