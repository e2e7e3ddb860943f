"""Regulation across data, bank and disturbance seeds, and a polish-independent DKPC step.

The default 10-bus experiment (balanced dispatch, 1000 excitation
samples, 40 observables, t_ini 5, horizon 10) with the data and bank
seeds of each pair below.  With hard lifted past rows DKPC missed the
10% gate on pairs 2/6, 3/8 and 4/9 (ratios 0.156-0.256), and its input
depended on the rounding of the polish.
"""

import dataclasses

import numpy as np
import pytest

from dkpc import netsim
from dkpc.behavior import assemble
from dkpc.control import (
    DeepcConfig,
    DeepcController,
    DkpcConfig,
    DkpcController,
    Scenario,
    run_closed_loop,
)
from dkpc.lifting import build_bank
from dkpc.qpsolve import SOLVED, QpSolver

SEED_PAIRS = [(1, 5), (2, 6), (3, 7), (3, 8), (4, 9), (5, 10), (6, 11), (7, 12)]
DISTURBANCES = (7, 11)
ACTIVATION, SIM_STEPS = 40, 150
FINAL_LIMIT = 0.10  # final-window mean |w| at most 10% of the pre-activation level


def default_experiment(data_seed, bank_seed):
    net = netsim.default_network(10)
    params = [netsim.InverterParams(p_star=v) for v in (1, 1, 1, 1, 1, -1, -1, -1, -1, -1)]
    sim_cfg = netsim.SimConfig(dt=0.01)
    inputs = np.random.default_rng(data_seed).uniform(-1.0, 1.0, size=(1000, 10))
    data = netsim.simulate(netsim.equilibrium_state(params, net), inputs, params, net, sim_cfg)
    bank = build_bank(data.y, 40, seed=bank_seed)
    hs = assemble(data, bank, t_ini=5, horizon=10)
    return net, params, sim_cfg, hs, bank


def closed_loop(experiment, controller, disturbance, sim_steps=SIM_STEPS):
    net, params, sim_cfg, _, _ = experiment
    scen = Scenario(sim_steps=sim_steps, activation_step=ACTIVATION,
                    disturbance=netsim.DisturbanceSpec(seed=disturbance))
    return run_closed_loop(netsim.NetworkPlant(net, params, sim_cfg), controller, scen)


@pytest.mark.parametrize("data_seed, bank_seed", SEED_PAIRS,
                         ids=[f"{d}/{b}" for d, b in SEED_PAIRS])
def test_both_controllers_regulate_across_the_seed_panel(data_seed, bank_seed):
    experiment = default_experiment(data_seed, bank_seed)
    _, _, _, hs, bank = experiment
    makes = {"DKPC": lambda: DkpcController(hs, bank, DkpcConfig()),
             "DeePC": lambda: DeepcController(hs, DeepcConfig(lambda_sigma=1e5))}
    for disturbance in DISTURBANCES:
        for kind, make in makes.items():
            trace = closed_loop(experiment, make(), disturbance)
            where = f"{kind}, disturbance {disturbance}"
            assert trace.diverged_at is None and trace.steps == SIM_STEPS, where
            assert all(st == SOLVED for st, on in zip(trace.status, trace.active) if on), where
            assert np.max(np.abs(trace.u)) <= 1.0, where
            pre = np.mean(np.abs(trace.y[ACTIVATION - 10 : ACTIVATION]))
            final = np.mean(np.abs(trace.y[-20:]))
            assert final <= FINAL_LIMIT * pre, f"{where}: ratio {final / pre:.4f}"


def null_space_solve(prob, x_fixed, fixed):
    """Minimize 0.5 x'Px s.t. A_eq x = b_eq with x[fixed] = x_fixed[fixed], by an SVD."""
    free = ~fixed
    a = prob.A_eq[:, free]
    b = prob.b_eq - prob.A_eq[:, fixed] @ x_fixed[fixed]
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > s[0] * max(a.shape) * np.finfo(float).eps))
    particular = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    basis = vt[rank:].T
    p = prob.P[free]
    z = np.linalg.solve(basis.T @ (p[:, None] * basis), -basis.T @ (p * particular))
    x = x_fixed.copy()
    x[free] = particular + basis @ z
    return x


def test_dkpc_step_does_not_depend_on_the_polish():
    # the first active QP of the default experiment: the soft past rows
    # make the equality block full rank, so the Schur polish, the LU
    # polish (P as its n x n matrix) and a null-space solve agree on u_f
    experiment = default_experiment(1, 5)
    _, _, _, hs, bank = experiment
    ctrl = DkpcController(hs, bank, DkpcConfig())
    trace = closed_loop(experiment, ctrl, 7, sim_steps=ACTIVATION + 1)
    assert trace.status[ACTIVATION] == SOLVED
    prob = ctrl._solver.problem
    assert np.linalg.matrix_rank(prob.A_eq) == prob.m_eq
    solvers = QpSolver(prob), QpSolver(dataclasses.replace(prob, P=np.diag(prob.P)))
    assert solvers[0]._schur_gram is not None and solvers[1]._schur_gram is None
    schur, lu = (solver.solve() for solver in solvers)
    assert schur.status == lu.status == SOLVED and schur.polished and lu.polished
    null = null_space_solve(prob, schur.x, schur.y_box != 0.0)
    u_f = slice(hs.n_cols, hs.n_cols + hs.n_u * hs.horizon)
    for other in (lu.x, null):
        assert np.max(np.abs(schur.x[u_f] - other[u_f])) <= 1e-8
    assert np.max(np.abs(lu.x[u_f] - null[u_f])) <= 1e-8
