import dataclasses

import numpy as np
import pytest
import scipy.linalg

from dkpc import netsim, qpsolve
from dkpc.behavior import assemble
from dkpc.control import DeepcConfig, DkpcConfig, build_deepc_qp, build_dkpc_qp
from dkpc.lifting import build_bank
from dkpc.qpsolve import (
    EqualityRows,
    INFEASIBLE,
    MAX_ITERATIONS,
    SOLVED,
    QpProblem,
    QpSettings,
    QpSolver,
    kkt_residuals,
    solve,
)

from oracles import projected_gradient_qp, projected_gradient_qps, random_box_qp

TIGHT = QpSettings(eps_abs=1e-9, eps_rel=0.0, max_iter=100000)


def with_window(prob, hs, bank, data):
    """``prob`` with the past rows of b_eq set to the first t_ini samples of ``data``."""
    u_window, y_window = data.u[: hs.t_ini], data.y[: hs.t_ini]
    parts = [u_window.ravel(), y_window.ravel()]
    if bank is not None:
        parts.append(bank.lift_trajectory(y_window).ravel())
    past = np.concatenate(parts)
    return dataclasses.replace(prob, b_eq=np.concatenate([past, prob.b_eq[past.size :]]))


def unconstrained(P, q):
    n = len(q)
    return QpProblem(
        P=P, q=q, A_eq=np.zeros((0, n)), b_eq=[], lower=[-np.inf] * n, upper=[np.inf] * n
    )


# -- pinned examples ------------------------------------------------------------


def test_active_lower_bound():
    # min 0.5 x^2 subject to x >= 1
    prob = QpProblem(
        P=[[1.0]], q=[0.0], A_eq=np.zeros((0, 1)), b_eq=[], lower=[1.0], upper=[np.inf]
    )
    sol = solve(prob)
    assert sol.status == SOLVED
    assert abs(sol.x[0] - 1.0) <= 1e-6


def test_unconstrained_newton_point():
    sol = solve(unconstrained(np.eye(2), np.array([-1.0, -2.0])))
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-6)


def test_equality_with_box():
    # min (x1-1)^2 + (x2-1)^2 s.t. x1 + x2 = 1, 0 <= x <= 1
    prob = QpProblem(
        P=2 * np.eye(2),
        q=[-2.0, -2.0],
        A_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    sol = solve(prob)
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-6)
    # cross-check against the first-order oracle
    x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower, prob.upper)
    assert np.allclose(sol.x, x_ref, atol=1e-6)


# -- random problem properties ---------------------------------------------------


def test_random_qps_satisfy_kkt():
    rng = np.random.default_rng(0)
    for _ in range(30):
        P, q, A, b, lo, hi = random_box_qp(rng)
        prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
        sol = solve(prob, TIGHT)
        assert sol.status == SOLVED
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res


def test_random_qps_match_projected_gradient_oracle():
    rng = np.random.default_rng(5)
    draws = [random_box_qp(rng, n_max=15, m_max=5) for _ in range(10)]
    for draw, x_ref in zip(draws, projected_gradient_qps(draws)):
        prob = QpProblem(*draw)
        sol = solve(prob, TIGHT)
        assert abs(prob.objective(sol.x) - prob.objective(x_ref)) <= 1e-6 * (
            1 + abs(prob.objective(x_ref))
        )
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-4


def test_singular_psd_box_bounded():
    rng = np.random.default_rng(11)
    for _ in range(6):
        P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=0, definite=False)
        prob = QpProblem(P=P, q=q, A_eq=np.zeros((0, len(q))), b_eq=[], lower=lo, upper=hi)
        sol = solve(prob, TIGHT)
        assert sol.status == SOLVED
        x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, lo, hi)
        assert abs(prob.objective(sol.x) - prob.objective(x_ref)) <= 1e-6 * (
            1 + abs(prob.objective(x_ref))
        )


def test_redundant_consistent_equalities():
    # duplicated rows must not break the solve (identity lifting produces them)
    P = np.diag([2.0, 2.0, 2.0])
    q = np.array([-1.0, 0.0, 1.0])
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 0.5])
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=[-2.0] * 3, upper=[2.0] * 3)
    sol = solve(prob, TIGHT)
    assert sol.status == SOLVED
    assert np.max(np.abs(A @ sol.x - b)) <= 1e-7
    x_ref = projected_gradient_qp(P, q, A[[0, 2]], b[[0, 2]], prob.lower, prob.upper)
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-5


# -- diagonal cost Hessian ----------------------------------------------------------


def random_diagonal_qp(rng):
    """Random feasible QP with an (n,) diagonal P (some entries zero) and active bounds."""
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    p = rng.uniform(0.5, 3.0, len(q))
    p[rng.random(len(q)) < 0.3] = 0.0
    return p, 3.0 * q, A, b, lo, hi


def as_dense(prob):
    """The same QP with its (n,) diagonal P given as the n x n matrix.

    That is the path of a general P: it factors the (n + m_eq)^2 KKT
    form of the ADMM system and polishes through the LU of the free
    variables' KKT matrix.
    """
    return dataclasses.replace(prob, P=np.diag(prob.P))


def diagonal_problems():
    rng = np.random.default_rng(21)
    return [QpProblem(*random_diagonal_qp(rng)) for _ in range(8)]


def test_diagonal_hessian_qps_satisfy_kkt_and_oracle():
    problems = diagonal_problems()
    # the draw covers singular P, equality rows and active bounds
    assert all(p.P.shape == (p.n,) for p in problems)
    assert any(np.any(p.P == 0.0) for p in problems)
    assert any(p.m_eq for p in problems)
    n_active = 0
    for prob in problems:
        solver = QpSolver(prob, TIGHT)
        # the vector form only for a strictly positive diagonal
        positive = bool(np.all(prob.P > 0.0))
        assert solver._P.shape == ((prob.n,) if positive else (prob.n, prob.n))
        sol = solver.solve()
        assert sol.status == SOLVED
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res
        x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower,
                                      prob.upper)
        assert abs(sol.objective - prob.objective(x_ref)) <= 1e-6 * (
            1 + abs(prob.objective(x_ref))
        )
        if positive:  # unique minimizer
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-4
        n_active += int(np.count_nonzero(sol.y_box))
    assert n_active > 0


def test_diagonal_hessian_schur_polish_matches_lu_polish():
    n_schur = 0
    for prob in diagonal_problems():
        solver = QpSolver(prob, TIGHT)
        lu = QpSolver(as_dense(prob), TIGHT)
        assert lu._schur_gram is None
        n_schur += solver._schur_gram is not None
        sol, ref = solver.solve(), lu.solve()
        assert sol.status == ref.status
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-9
    assert n_schur > 0


def random_positive_diagonal_qp(rng):
    """Random feasible QP: strictly positive diagonal P, a duplicated equality row, active bounds."""
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    if len(b):  # identity lifting makes exact duplicates of output rows
        A, b = np.vstack([A, A[:1]]), np.append(b, b[0])
    return rng.uniform(0.5, 3.0, len(q)), 3.0 * q, A, b, lo, hi


def test_positive_diagonal_hessian_schur_polish():
    rng = np.random.default_rng(31)
    problems = [QpProblem(*random_positive_diagonal_qp(rng)) for _ in range(8)]
    assert sum(p.m_eq > 1 for p in problems) >= 4
    n_active = 0
    for prob in problems:
        solver = QpSolver(prob, TIGHT)
        assert solver._schur_gram is not None
        sol = solver.solve()
        assert sol.status == SOLVED and sol.polished
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res
        x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower,
                                      prob.upper)
        assert abs(sol.objective - prob.objective(x_ref)) <= 1e-6 * (
            1 + abs(prob.objective(x_ref))
        )
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-4
        ref = QpSolver(as_dense(prob), TIGHT).solve()
        assert sol.status == ref.status
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-9
        n_active += int(np.count_nonzero(sol.y_box))
    assert n_active > 0


def count_lu_factorizations(mp):
    calls = []
    lu_factor = scipy.linalg.lu_factor
    mp.setattr(scipy.linalg, "lu_factor", lambda *a, **k: calls.append(1) or lu_factor(*a, **k))
    return calls


def count_cho_factorizations(mp):
    """Record the order of every matrix passed to ``scipy.linalg.cho_factor``."""
    sizes = []
    cho_factor = scipy.linalg.cho_factor
    mp.setattr(scipy.linalg, "cho_factor",
               lambda a, *args, **kw: sizes.append(len(a)) or cho_factor(a, *args, **kw))
    return sizes


def test_polish_path_follows_hessian(monkeypatch):
    # P's shape picks the path: an (n,) P > 0 polishes through the Schur
    # complement, no LU; an n x n P, even a diagonal one, or an (n,) P
    # with a zero entry polishes through the LU
    A = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])
    dense = np.diag([2.0, 1.0, 3.0, 1.5])
    dense[0, 2] = dense[2, 0] = 0.25
    for p_mat, schur in ((np.array([2.0, 1.0, 3.0, 1.5]), True), (dense, False),
                         (np.diag([2.0, 1.0, 3.0, 1.5]), False),
                         (np.array([2.0, 0.0, 3.0, 1.5]), False)):
        prob = QpProblem(P=p_mat, q=[4.0, -2.0, 0.5, 4.0], A_eq=A, b_eq=[0.5, 0.2],
                         lower=[-1.0] * 4, upper=[1.0] * 4)
        with monkeypatch.context() as mp:
            calls = count_lu_factorizations(mp)
            solver = QpSolver(prob, TIGHT)
            sol = solver.solve()
        assert sol.status == SOLVED and sol.polished
        assert np.any(sol.y_box != 0.0)
        assert (solver._P.ndim == 1) == (solver._schur_gram is not None) == schur
        assert (len(calls) == 0) == schur
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res


# -- ADMM on the equality rows ------------------------------------------------------


@pytest.fixture(scope="module")
def behavioral_qps(plant_dataset):
    """The DKPC and DeePC QPs of one window of the 10-bus data."""
    bank = build_bank(plant_dataset.y, 20, seed=2)
    hs = assemble(plant_dataset, bank, t_ini=4, horizon=6)
    common = dict(t_ini=4, horizon=6, u_min=-1.0, u_max=1.0)
    cfg = DkpcConfig(**common)
    deepc_cfg = DeepcConfig(lambda_sigma=1e5, **common)
    return [
        with_window(build_dkpc_qp(hs, bank, cfg), hs, bank, plant_dataset),
        with_window(build_deepc_qp(hs, deepc_cfg), hs, None, plant_dataset),
    ]


def box_only_positive_diagonal_qp():
    rng = np.random.default_rng(43)
    _, q, _, _, lo, hi = random_box_qp(rng, n_max=12, m_max=0)
    n = len(q)
    return QpProblem(P=rng.uniform(0.5, 3.0, n), q=3.0 * q, A_eq=np.zeros((0, n)),
                     b_eq=[], lower=lo, upper=hi)


@pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 10.0])
def test_equality_row_admm_solve_as_accurate_as_cholesky(behavioral_qps, rho):
    # the x-update M x = rhs through the m_eq x m_eq system and one
    # refinement step is as accurate as a Cholesky solve of M itself
    rng = np.random.default_rng(41)
    problems = behavioral_qps + [box_only_positive_diagonal_qp()]
    assert [p.m_eq > 0 for p in problems] == [True, True, False]
    for prob in problems:
        solver = QpSolver(prob)
        solver._rho = rho
        solver._refactor()
        # of order m_eq for every problem, 0 for the box-only one
        assert solver._factor[0].shape == (prob.m_eq, prob.m_eq)
        A = prob.A_eq
        M = rho * qpsolve._RHO_EQ_SCALE * (A.T @ A)
        M[np.diag_indices(prob.n)] += solver._P + qpsolve._SIGMA + rho
        chol = scipy.linalg.cho_factor(M, lower=True)
        # a generic right-hand side, and one dominated by the range of A'
        for rhs in (rng.standard_normal(prob.n),
                    1e3 * (A.T @ rng.standard_normal(prob.m_eq)) + rng.standard_normal(prob.n)):
            x, ax = solver._x_update(rhs)
            x_ref = scipy.linalg.cho_solve(chol, rhs)
            assert np.max(np.abs(M @ x - rhs)) <= 2.0 * np.max(np.abs(M @ x_ref - rhs))
            assert np.max(np.abs(ax - A @ x), initial=0.0) <= 1e-12 * (
                1.0 + np.max(np.abs(ax), initial=0.0))


def test_box_only_positive_diagonal_qp_factors_nothing(monkeypatch, admm_only):
    prob = box_only_positive_diagonal_qp()
    with monkeypatch.context() as mp:
        sizes = count_cho_factorizations(mp)
        solver = QpSolver(prob, TIGHT)
        sol = solver.solve()
    assert max(sizes, default=0) == 0  # no factor larger than 0 x 0
    assert sol.status == SOLVED and sol.iterations > 0
    res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
    assert max(res.values()) <= 1e-5, res
    x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower, prob.upper)
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-4


def test_infeasible_positive_diagonal_qp_detected():
    # both splitting systems certify infeasibility
    P = np.array([1.0, 2.0, 0.5])
    box = dict(lower=[-1.0] * 3, upper=[1.0] * 3)
    problems = [
        QpProblem(P=P, q=[1.0, 0.0, -1.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[5.0], **box),
        QpProblem(P=P, q=[0.0, 1.0, 0.0], A_eq=[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
                  b_eq=[0.0, 1.0], lower=[-np.inf] * 3, upper=[np.inf] * 3),
    ]
    for prob in problems:
        solver = QpSolver(prob)
        full = QpSolver(as_dense(prob))
        assert solver.solve().status == full.solve().status == INFEASIBLE
        assert solver._factor[0].shape == (prob.m_eq, prob.m_eq)
        # the dense path's ADMM factor is the LU of the (n + m_eq)^2 KKT matrix
        assert full._factor[0].shape == (prob.n + prob.m_eq, prob.n + prob.m_eq)


def test_equality_row_admm_matches_full_admm(admm_only):
    rng = np.random.default_rng(47)
    for _ in range(8):
        prob = QpProblem(*random_positive_diagonal_qp(rng))
        sol = QpSolver(prob, TIGHT).solve()
        ref = QpSolver(as_dense(prob), TIGHT).solve()
        assert sol.status == ref.status == SOLVED
        assert sol.iterations == ref.iterations
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-9


def test_polish_guard_rejects_conflicting_active_set():
    # both upper bounds active contradict x1 + x2 = 1.5: the KKT solve
    # balances the bound forces against an equality force of order 1 / delta
    prob = QpProblem(P=np.eye(2), q=[-2.0, -2.0], A_eq=[[1.0, 1.0]], b_eq=[1.5],
                     lower=[0.0, 0.0], upper=[1.0, 1.0])
    both_up = np.array([0.0, 1.0, 1.0])
    assert QpSolver(prob)._polish(both_up) is None
    sol = QpSolver(prob).solve(warm_start_dual=both_up)
    assert sol.status == SOLVED and sol.iterations > 0
    assert np.max(np.abs(sol.x - [0.75, 0.75])) <= 1e-6


def test_direct_polish_dual_test_scales_by_polished_p_x():
    # q = 0 and |P x| near 1e9: the polished point's dual residual, about
    # 1e-12 |P x|, exceeds eps_abs yet lies far inside eps_rel max|P x|,
    # so the direct polish is accepted without ADMM
    rng = np.random.default_rng(0)
    n, m = 40, 12
    A = rng.standard_normal((m, n))
    prob = QpProblem(P=10.0 ** rng.uniform(8.0, 10.0, n), q=np.zeros(n), A_eq=A,
                     b_eq=A @ rng.uniform(-1.0, 1.0, n), lower=np.full(n, -np.inf),
                     upper=np.full(n, np.inf))
    settings = QpSettings()
    sol = QpSolver(prob, settings).solve()
    assert sol.status == SOLVED and sol.polished and sol.iterations == 0
    assert settings.eps_abs < sol.dual_residual <= settings.eps_rel * np.max(np.abs(prob.P * sol.x))


@pytest.fixture(scope="module")
def default_dkpc_qp(plant_setup):
    """DKPC's first QP in the default experiment: 1000 samples, 40 observables, 1436 x 500."""
    net, params, sim_cfg = plant_setup
    inputs = np.random.default_rng(1).uniform(-1.0, 1.0, size=(1000, net.n_bus))
    data = netsim.simulate(netsim.equilibrium_state(params, net), inputs, params, net, sim_cfg)
    bank = build_bank(data.y, 40, seed=5)
    cfg = DkpcConfig()
    hs = assemble(data, bank, cfg.t_ini, cfg.horizon)
    return with_window(build_dkpc_qp(hs, bank, cfg), hs, bank, data)


def test_direct_polish_does_not_depend_on_cost_units(default_dkpc_qp):
    # the Schur polish regularizes relative to the cost scale mean(P):
    # scaling (P, q) by c scales its KKT system's multipliers by c and
    # leaves the polished x as it was, to rounding
    problems = [default_dkpc_qp] + [
        QpProblem(*random_positive_diagonal_qp(np.random.default_rng(seed))) for seed in range(20)
    ]
    assert default_dkpc_qp.A_eq.shape == (500, 1436)
    checked = 0
    for i, prob in enumerate(problems):
        ref = QpSolver(prob).solve()
        assert ref.status == SOLVED
        if not (ref.polished and ref.iterations == 0):
            assert i > 0  # the DKPC QP ends at the direct polish
            continue
        checked += 1
        for c in (1e-6, 1e6):
            sol = QpSolver(dataclasses.replace(prob, P=c * prob.P, q=c * prob.q)).solve()
            assert sol.status == SOLVED and sol.polished and sol.iterations == 0, (i, c)
            assert np.max(np.abs(sol.x - ref.x)) <= 1e-12 * np.max(np.abs(ref.x)), (i, c)
    assert checked >= 10


def test_off_diagonal_pair_keeps_dense_hessian():
    P = np.diag([2.0, 1.0, 3.0, 1.5])
    P[0, 2] = P[2, 0] = 0.25
    prob = QpProblem(P=P, q=[1.0, -2.0, 0.5, 4.0], A_eq=[[1.0, 1.0, 1.0, 1.0]], b_eq=[0.5],
                     lower=[-1.0] * 4, upper=[1.0] * 4)
    solver = QpSolver(prob, TIGHT)
    assert solver._P.ndim == 2
    sol = solver.solve()
    assert sol.status == SOLVED
    res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
    assert max(res.values()) <= 1e-5, res


# -- Schur polish: unit-column downdate, cached A x0 ---------------------------------


def same_bits(a, b):
    """Equal arrays bit for bit, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def capture_cho_inputs(mp):
    """Record a copy of every matrix passed to ``scipy.linalg.cho_factor``."""
    mats = []
    cho_factor = scipy.linalg.cho_factor
    mp.setattr(scipy.linalg, "cho_factor",
               lambda a, *args, **kw: mats.append(np.array(a)) or cho_factor(a, *args, **kw))
    return mats


def gemm_schur_matrix(solver, act_idx):
    """S_K by the gather-and-GEMM downdate, the polish's general formula."""
    a_act = solver.problem.A_eq[:, act_idx]
    S = solver._schur_gram - (a_act / solver._schur_diag[act_idx]) @ a_act.T
    S[np.diag_indices_from(S)] += qpsolve._POLISH_DELTA / np.mean(solver.problem.P)
    return S


def unit_and_dense_columns_qp(rng, scale=2.0):
    """Positive diagonal P, eight dense columns and three unit columns (8, 9, 10)."""
    m = 3
    A = np.hstack([rng.standard_normal((m, 8)), np.diag(rng.uniform(0.5, 2.0, m))])
    n = A.shape[1]
    lo, hi = np.full(n, -0.5), np.full(n, 0.5)
    b = A @ rng.uniform(lo, hi)
    return QpProblem(P=rng.uniform(0.5, 3.0, n), q=scale * rng.standard_normal(n),
                     A_eq=A, b_eq=b, lower=lo, upper=hi)


def assembled_schur_factor(solver, factor):
    """The m_eq x m_eq lower factor L of ``_schur_factor``'s ``(split, factor)``."""
    split, (c, _) = factor
    m = solver.problem.m_eq
    L = np.zeros((m, m))
    if split:
        l11, l21t = solver._lead
        L[:split, :split] = np.tril(l11)
        L[split:, :split] = l21t.T
    L[split:, split:] = np.tril(c)
    return L


def test_unit_column_schur_downdate_equals_gemm(behavioral_qps, monkeypatch):
    # unit columns in rows of their own, none above the split row, lower
    # only the diagonal of the trailing block: L L' equals the GEMM S_K
    # to rounding, and only the trailing block is factored.  Every other
    # set hands the GEMM S_K itself to the full Cholesky (split 0).
    col_rows = np.array([[0.0, 1.0, 2.0, 0.5, 1.0, 0.3, -1.0],
                         [-1.5, 2.0, 0.0, 0.0, 1.0, 0.7, 0.4],
                         [0.0, 0.0, 0.0, 0.0, 1.0, -0.2, 1.1]])
    # column 0 sits in row 1, columns 2 and 3 share row 0; 1, 4, 5, 6 are dense
    small = QpProblem(P=np.array([1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.8]), q=np.ones(7),
                      A_eq=col_rows, b_eq=np.zeros(3), lower=-np.ones(7), upper=np.ones(7))
    cases = [(small, 0, {"unit, rows out of column order": [0, 2], "empty": []},
              {"shared row": [2, 3], "mixed": [0, 2, 4], "dense": [1, 4]})]
    for prob in behavioral_qps:
        u_cols = np.flatnonzero(np.isfinite(prob.lower))  # the u_f bounds
        assert np.all(np.count_nonzero(prob.A_eq[:, u_cols], axis=0) == 1)
        split = int(np.flatnonzero(prob.A_eq[:, u_cols[0]])[0])  # the first u_f row
        # unbounded unit columns: y_f below the split row, DeePC's sigma above it
        free_unit = np.flatnonzero((np.count_nonzero(prob.A_eq, axis=0) == 1)
                                   & ~np.isfinite(prob.lower))
        rows = np.argmax(prob.A_eq[:, free_unit] != 0.0, axis=0)
        y_cols, above = free_unit[rows >= split], free_unit[rows < split]
        unit_sets = {"every u_f": u_cols, "some u_f": u_cols[::3],
                     "u_f and y_f": np.r_[u_cols[:4], y_cols[5:9]], "empty": []}
        gemm_sets = {"u_f and g": np.r_[0, 5, u_cols[:4]], "g": [0, 5]}
        if above.size:
            gemm_sets["u_f and a unit column above the split"] = np.r_[above[:2], u_cols[:4]]
        cases.append((prob, split, unit_sets, gemm_sets))
    # the sigma columns of DKPC (soft Yp, Zp rows) and of DeePC (soft Yp rows)
    assert sum("u_f and a unit column above the split" in c[3] for c in cases) == 2
    for prob, split, unit_sets, gemm_sets in cases:
        solver = QpSolver(prob)
        assert solver._split == split
        for name, act_idx in [*unit_sets.items(), *gemm_sets.items()]:
            act_idx = np.asarray(act_idx, dtype=np.intp)
            with monkeypatch.context() as mp:
                mats = capture_cho_inputs(mp)
                factor = solver._schur_factor(act_idx)
            assert len(mats) == 1
            S = gemm_schur_matrix(solver, act_idx)
            if name in unit_sets:
                assert factor[0] == split
                assert mats[0].shape == (prob.m_eq - split,) * 2, name
                L = assembled_schur_factor(solver, factor)
                assert np.max(np.abs(L @ L.T - S)) <= 1e-12 * np.max(np.abs(S)), name
            else:
                assert factor[0] == 0
                assert same_bits(mats[0], S), name


def test_unit_column_products_equal_full_products(behavioral_qps):
    # the trailing run of one-nonzero columns (u_f, y_f and sigma of both
    # controllers) is kept as (row, value) pairs and the leading columns
    # are read as a slice: A x, A' y and S_0 equal the full products to
    # rounding; a problem without such a run has an empty unit part
    rng = np.random.default_rng(61)
    dense = QpProblem(*random_positive_diagonal_qp(rng))
    assert dense.m_eq > 1
    problems = behavioral_qps + [unit_and_dense_columns_qp(rng), dense]
    trailing = []
    for i, prob in enumerate(problems):
        solver = QpSolver(prob)
        k = solver._n_lead
        trailing.append(prob.n - k)
        unit = np.count_nonzero(prob.A_eq, axis=0) == 1
        assert np.all(unit[k:]) and not unit[k - 1]
        x, y = rng.standard_normal(prob.n), rng.standard_normal(prob.m_eq)
        A = prob.A_eq
        assert np.max(np.abs(solver._a_dot(x) - A @ x)) <= 1e-14 * np.max(np.abs(A) @ np.abs(x))
        assert np.max(np.abs(solver._at_dot(y) - A.T @ y)) <= 1e-14 * np.max(
            np.abs(A.T) @ np.abs(y))
        D = solver._schur_diag
        gram = (A / D) @ A.T
        assert np.max(np.abs(solver._schur_gram - gram)) <= 1e-14 * np.max(np.abs(gram))
        # the dense columns' Gram carried by the rows: used where D is one value on them
        supplied = QpSolver(with_gram(prob))
        assert (supplied._lead_gram is not None) == (i < len(behavioral_qps))
        assert np.max(np.abs(supplied._schur_gram - gram)) <= 1e-14 * np.max(np.abs(gram))
    # 10 buses, horizon 6: 60 u_f and 60 y_f; DKPC's sigma softens
    # (10 outputs + 20 observables) x 4 past rows, DeePC's 10 x 4
    assert trailing == [60 + 60 + 120, 60 + 60 + 40, 3, 0]


def rows_with_gram(prob, gram=None):
    """A copy of ``prob``'s equality rows, their unit-column run declared, carrying ``gram``.

    The default ``gram`` is the exact A A' of the dense columns A.
    """
    tail_rows = prob._rows.layout[2]
    a_eq = prob.A_eq.copy()
    if gram is None:
        lead = a_eq[:, : prob.n - len(tail_rows)]
        gram = lead @ lead.T
    return EqualityRows(a_eq, tail_rows, gram)


def with_gram(prob):
    """``prob`` on ``rows_with_gram(prob)``."""
    return dataclasses.replace(prob, A_eq=rows_with_gram(prob))


def test_plain_rows_are_copied_scanned_and_carry_no_gram():
    # a problem given a plain A_eq builds a row set of its own from a
    # read-only copy, leaving the caller's array writeable, and finds its
    # unit columns by a scan; with no Gram to read the solver forms products
    rng = np.random.default_rng(5)
    a_eq = np.hstack([rng.standard_normal((3, 4)), np.eye(3)])
    prob = QpProblem(P=np.ones(7), q=np.zeros(7), A_eq=a_eq, b_eq=np.zeros(3),
                     lower=np.full(7, -1.0), upper=np.ones(7))
    assert a_eq.flags.writeable and not prob.A_eq.flags.writeable
    assert np.array_equal(prob.A_eq, a_eq) and prob.A_eq is prob._rows.a_eq
    assert prob._rows.layout[1] == 4 and prob._rows.gram is None
    assert QpSolver(prob)._lead_gram is None


def test_supplied_gram_checked_against_leading_columns(behavioral_qps):
    # a row set tests its Gram when it is built, by a seeded Freivalds
    # test that compares G v with A (A' v): the exact Gram of the dense
    # columns passes and is the one solvers read; one entry pair off by
    # 1e-9 of the largest entry, a NaN entry, the Gram of one column fewer
    # and a Gram of another shape raise
    for prob in behavioral_qps:
        rows = rows_with_gram(prob)
        gram, k = rows.gram, rows.layout[1]
        assert QpSolver(dataclasses.replace(prob, A_eq=rows))._lead_gram is gram
        i, j = 3, prob.m_eq - 2
        wrong = []
        for value in (gram[i, j] + 1e-9 * np.max(np.abs(gram)), np.nan):
            bad = gram.copy()
            bad[i, j] = bad[j, i] = value
            wrong.append(bad)
        lead = prob.A_eq[:, : k - 1]
        wrong += [lead @ lead.T, gram[1:, 1:]]
        for bad in wrong:
            with pytest.raises(ValueError, match="Gram"):
                rows_with_gram(prob, bad)


def test_supplied_gram_unused_unless_d_is_one_value_on_its_columns(behavioral_qps):
    # a P, and so D, that is not one value on the dense columns, or a
    # dense P, keeps the product path: the solver on rows that carry the
    # Gram is the one built on plain rows, bit for bit
    prob = behavioral_qps[0]
    rows = rows_with_gram(prob)
    k = rows.layout[1]
    uneven = prob.P.copy()
    uneven[k // 2] *= 1.5
    for P in (uneven, np.diag(prob.P)):
        solver = QpSolver(dataclasses.replace(prob, P=P, A_eq=rows))
        ref = QpSolver(dataclasses.replace(prob, P=P))
        assert solver._lead_gram is None
        if ref._schur_gram is not None:
            assert np.array_equal(solver._schur_gram, ref._schur_gram)
        sol, sol_ref = solver.solve(), ref.solve()
        assert sol.status == SOLVED and np.array_equal(sol.x, sol_ref.x)


def test_declared_unit_columns_match_the_scan_and_are_checked(plant_dataset):
    # the controllers' equality rows place u_f, y_f and sigma themselves:
    # that layout is the one a scan of A_eq finds, each row set is built
    # once, carries the Hankel system's Gram and is shared read-only, and a
    # declaration that does not hold raises
    bank = build_bank(plant_dataset.y, 20, seed=2)
    hs = assemble(plant_dataset, bank, t_ini=4, horizon=6)
    for lifted in (True, False):
        for soft in (True, False):
            rows = hs.equality_rows(lifted, soft)
            assert rows is hs.equality_rows(lifted, soft) and not rows.a_eq.flags.writeable
            assert rows.gram is hs.gram(lifted)
            for got, want in zip(rows.layout, qpsolve._unit_layout(rows.a_eq)):
                assert np.array_equal(got, want)
            tail_rows = rows.layout[2]
            with pytest.raises(ValueError, match="unit column"):
                EqualityRows(rows.a_eq.copy(), np.roll(tail_rows, 1))
            second = rows.a_eq.copy()
            second[0, -1] = 1.0  # the last column also meets row 0
            with pytest.raises(ValueError, match="unit column"):
                EqualityRows(second, tail_rows)
    cfg = DkpcConfig(t_ini=4, horizon=6)
    assert build_dkpc_qp(hs, bank, cfg).A_eq is hs.equality_rows(True, True).a_eq


def test_criterion_2_qps_never_take_the_gram_path():
    # the random QPs of acceptance criterion 2, each on rows that carry their exact Gram
    rng = np.random.default_rng(7)
    for k in range(100):
        definite = k % 7 != 3
        P, q, A, b, lo, hi = random_box_qp(rng, n_max=30, m_max=10 if definite else 0,
                                           definite=definite)
        prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
        assert QpSolver(with_gram(prob))._lead_gram is None


def test_bounded_slack_moves_split_to_its_row(behavioral_qps, monkeypatch):
    # a DeePC slack bounded at construction, at half its free value, is a
    # bounded unit column above the u_f rows: the split moves up to its
    # row, the active set with it takes the trailing-block factor, and
    # the solve ends at the direct polish
    prob = behavioral_qps[1]
    first = QpSolver(prob).solve()
    assert first.status == SOLVED and first.polished
    u_split = QpSolver(prob)._split  # the first u_f row
    unit = np.flatnonzero(np.count_nonzero(prob.A_eq, axis=0) == 1)
    rows = np.argmax(prob.A_eq[:, unit] != 0.0, axis=0)
    sig, sig_rows = unit[rows < u_split], rows[rows < u_split]
    k = np.argmax(np.abs(first.x[sig]))
    i = sig[k]
    lower, upper = prob.lower.copy(), prob.upper.copy()
    if first.x[i] > 0.0:  # half the slack, on its side
        upper[i] = 0.5 * first.x[i]
    else:
        lower[i] = 0.5 * first.x[i]
    boxed = dataclasses.replace(prob, lower=lower, upper=upper)
    with monkeypatch.context() as mp:
        sizes = count_cho_factorizations(mp)
        solver = QpSolver(boxed)
        split = solver._split
        sol = solver.solve(warm_start=first.x,
                           warm_start_dual=np.concatenate([first.y_eq, first.y_box]))
    assert split == sig_rows[k] < u_split
    assert sol.status == SOLVED and sol.polished and sol.iterations == 0
    assert sol.y_box[i] != 0.0
    # the leading block once, then a trailing block per polish round: the
    # warm dual knows nothing of the bound, so the first round's point
    # violates it and the second round adds it to the set
    assert sizes == [split] + [prob.m_eq - split] * 2 and sol.factorizations == 2
    res = kkt_residuals(boxed, sol.x, sol.y_eq, sol.y_box)
    assert max(res.values()) <= 1e-5, res


def test_solution_counts_polish_factorizations(monkeypatch):
    # a cold solve factors at least one active set, each counted once;
    # re-solving the unchanged problem from its dual meets the kept set
    rng = np.random.default_rng(53)
    prob = unit_and_dense_columns_qp(rng)
    factored = []
    schur_factor = QpSolver._schur_factor
    monkeypatch.setattr(QpSolver, "_schur_factor",
                        lambda self, act: factored.append(act) or schur_factor(self, act))
    solver = QpSolver(prob, TIGHT)
    cold = solver.solve()
    assert cold.polished and cold.factorizations >= 1
    assert cold.factorizations == len(factored)
    again = solver.solve(warm_start=cold.x, warm_start_dual=np.concatenate([cold.y_eq,
                                                                            cold.y_box]))
    assert again.polished and again.factorizations == 0 and len(factored) == cold.factorizations
    assert same_bits(again.x, cold.x)


def test_mixed_active_set_polish_meets_kkt(monkeypatch):
    # active sets that mix unit and dense columns keep the GEMM downdate
    n_mixed = 0
    for seed in range(5):
        prob = unit_and_dense_columns_qp(np.random.default_rng(seed))
        with monkeypatch.context() as mp:
            mats = capture_cho_inputs(mp)
            factored = []
            schur_factor = QpSolver._schur_factor
            mp.setattr(QpSolver, "_schur_factor",
                       lambda self, act: factored.append(act) or schur_factor(self, act))
            solver = QpSolver(prob, TIGHT)
            sol = solver.solve()
        assert sol.status == SOLVED and sol.polished and sol.iterations == 0
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res
        x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower,
                                      prob.upper)
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-4
        assert len(mats) == len(factored) > 0
        for S, act_idx in zip(mats, factored):
            assert same_bits(S, gemm_schur_matrix(solver, act_idx))
        active = np.flatnonzero(sol.y_box)
        n_mixed += bool(np.any(active < 8) and np.any(active >= 8))
    assert n_mixed > 0


def test_box_only_positive_diagonal_qp_polishes():
    # no equality rows: S_K is 0 x 0 for every active set
    prob = box_only_positive_diagonal_qp()
    sol = QpSolver(prob, TIGHT).solve()
    assert sol.status == SOLVED and sol.polished and sol.iterations == 0
    assert np.any(sol.y_box != 0.0)
    res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
    assert max(res.values()) <= 1e-9, res


def test_update_then_polish_matches_fresh_solver_bit_for_bit():
    # a reused solver keeps the polish entry, A x0 with it, across b_eq
    # updates and returns a fresh solver's x and y (a small change keeps
    # the warm dual's active set optimal, so the one polish round reuses
    # the kept entry)
    rng = np.random.default_rng(53)
    prob = unit_and_dense_columns_qp(rng)
    b_eq = prob.b_eq + 1e-3 * rng.standard_normal(prob.m_eq)
    solver = QpSolver(prob, TIGHT)
    first = solver.solve()
    assert first.polished and np.any(first.y_box != 0.0)
    entry = solver._polish_entry
    warm, dual = first.x, np.concatenate([first.y_eq, first.y_box])
    solver.update(b_eq=b_eq)
    reused = solver.solve(warm_start=warm, warm_start_dual=dual)
    assert reused.factorizations == 0 and solver._polish_entry is entry
    fresh = QpSolver(dataclasses.replace(prob, b_eq=b_eq), TIGHT)
    ref = fresh.solve(warm_start=warm, warm_start_dual=dual)
    assert reused.status == ref.status == SOLVED and reused.iterations == 0
    for got, want in ((reused.x, ref.x), (reused.y_eq, ref.y_eq), (reused.y_box, ref.y_box)):
        assert same_bits(got, want)


# -- statuses ---------------------------------------------------------------------


def test_infeasible_equalities_detected():
    prob = QpProblem(
        P=[[1.0]], q=[0.0], A_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0],
        lower=[-np.inf], upper=[np.inf],
    )
    assert solve(prob).status == INFEASIBLE


def test_infeasible_equality_vs_box_detected():
    prob = QpProblem(
        P=np.eye(2), q=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[5.0],
        lower=[-np.inf, -np.inf], upper=[1.0, 1.0],
    )
    assert solve(prob).status == INFEASIBLE


def test_max_iterations_returns_best_iterate(admm_only):
    rng = np.random.default_rng(3)
    P, q, A, b, lo, hi = random_box_qp(rng)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    starved = QpSettings(eps_abs=1e-14, eps_rel=0.0, max_iter=6)
    sol = solve(prob, starved)
    assert sol.status == MAX_ITERATIONS
    assert sol.iterations == 6
    assert np.all(np.isfinite(sol.x))
    assert np.isfinite(sol.primal_residual) and np.isfinite(sol.dual_residual)


# -- determinism, warm start, reuse ------------------------------------------------


def test_solve_deterministic():
    rng = np.random.default_rng(8)
    P, q, A, b, lo, hi = random_box_qp(rng)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    a = solve(prob)
    b2 = solve(prob)
    assert np.array_equal(a.x, b2.x)
    assert a.iterations == b2.iterations


def test_warm_start_no_worse_than_cold():
    rng = np.random.default_rng(9)
    P, q, A, b, lo, hi = random_box_qp(rng)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    solver = QpSolver(prob)
    cold = solver.solve()
    warm = solver.solve(
        warm_start=cold.x, warm_start_dual=np.concatenate([cold.y_eq, cold.y_box])
    )
    assert warm.iterations <= cold.iterations
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-6


def test_optimal_warm_start_without_polish(request):
    # ADMM started at an optimal primal-dual pair stops at its first check, at the start
    rng = np.random.default_rng(11)
    optima = []
    for _ in range(5):
        P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
        prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
        opt = solve(prob, TIGHT)
        assert opt.status == SOLVED and opt.polished
        optima.append((prob, opt))
    request.getfixturevalue("admm_only")  # the polished optima are in hand
    for prob, opt in optima:
        warm = QpSolver(prob).solve(
            warm_start=opt.x, warm_start_dual=np.concatenate([opt.y_eq, opt.y_box])
        )
        assert warm.status == SOLVED and not warm.polished
        assert 0 < warm.iterations <= qpsolve._CHECK_EVERY
        assert np.max(np.abs(warm.x - opt.x)) <= 1e-9


def test_update_reuses_factorization():
    rng = np.random.default_rng(10)
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    solver = QpSolver(prob, TIGHT)
    solver.solve()
    # change the right-hand side: the shared instance must match a fresh solve
    b2 = A @ rng.uniform(lo, hi) if A.shape[0] else b
    solver.update(b_eq=b2)
    reused = solver.solve()
    fresh = solve(QpProblem(P=P, q=q, A_eq=A, b_eq=b2, lower=lo, upper=hi), TIGHT)
    assert np.max(np.abs(reused.x - fresh.x)) <= 1e-6


def test_update_shares_matrices():
    rng = np.random.default_rng(14)
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=8, m_max=3)
    solver = QpSolver(QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi))
    before = solver.problem
    solver.update(b_eq=-b)
    after = solver.problem
    assert after is not before
    for name in ("P", "q", "A_eq", "lower", "upper"):
        assert getattr(after, name) is getattr(before, name), name
    assert np.array_equal(after.b_eq, -b)
    # the solver's own problem keeps its vectors
    assert np.array_equal(before.b_eq, b)


def test_update_rejects_bad_vectors():
    P = np.eye(3)
    A = np.array([[1.0, 1.0, 0.0]])
    prob = QpProblem(P=P, q=[0.0] * 3, A_eq=A, b_eq=[0.5], lower=[-1.0] * 3, upper=[1.0] * 3)
    solver = QpSolver(prob)
    for b_eq in (np.zeros(2), [np.nan], [-np.inf]):
        with pytest.raises(ValueError, match="b_eq"):
            solver.update(b_eq=b_eq)
        # a failed update leaves the problem as it was
        assert solver.problem is prob
    # q is fixed for the solver's life, like P, A_eq and the bounds
    with pytest.raises(TypeError):
        solver.update(q=[1.0, 0.0, 0.0])
    solver.update(b_eq=[0.25])
    assert solver.solve().status == SOLVED


def test_solve_rejects_non_finite_warm_starts():
    # checked like b_eq in update: from a non-finite start ADMM iterates on NaN
    rng = np.random.default_rng(3)
    f = rng.standard_normal((6, 6))
    prob = QpProblem(P=f @ f.T + 0.5 * np.eye(6), q=rng.standard_normal(6),
                     A_eq=rng.standard_normal((2, 6)), b_eq=[0.1, -0.2],
                     lower=[-1.0] * 6, upper=[1.0] * 6)
    solver = QpSolver(prob)
    cold = solver.solve()
    assert cold.status == SOLVED
    dual = np.concatenate([cold.y_eq, cold.y_box])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="warm_start must be finite"):
            solver.solve(warm_start=np.full(6, bad), warm_start_dual=np.full(8, bad))
        with pytest.raises(ValueError, match="warm_start_dual must be finite"):
            solver.solve(warm_start=cold.x, warm_start_dual=np.where(dual == dual[0], bad, dual))
    assert solver.solve(cold.x, dual).status == SOLVED


def test_problem_rejects_non_finite_vectors():
    base = dict(P=np.eye(2), q=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[0.0],
                lower=[-1.0, -1.0], upper=[1.0, 1.0])
    for bad in (dict(q=[np.nan, 0.0]), dict(q=[0.0, -np.inf]), dict(b_eq=[np.nan]),
                dict(b_eq=[np.inf]), dict(lower=[np.nan, 0.0]), dict(upper=[0.0, np.nan]),
                dict(A_eq=[[np.nan, 1.0]]), dict(A_eq=[[1.0, np.inf]]),
                dict(A_eq=[[-np.inf, 1.0]]),
                # a bound pinned at infinity, on its own side, admits no point
                dict(lower=[np.inf, -1.0], upper=[np.inf, 1.0]),
                dict(lower=[-1.0, -np.inf], upper=[1.0, -np.inf])):
        with pytest.raises(ValueError):
            QpProblem(**{**base, **bad})
    # infinite bounds on their own side stay allowed: they bound nothing
    QpProblem(**{**base, "lower": [-np.inf, -1.0], "upper": [1.0, np.inf]})


def test_solution_objective_matches_problem():
    rng = np.random.default_rng(15)
    for _ in range(5):
        P, q, A, b, lo, hi = random_box_qp(rng, n_max=10, m_max=3)
        prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
        sol = solve(prob)
        assert sol.objective == prob.objective(sol.x)


def test_solution_reports_residuals_within_tolerance():
    rng = np.random.default_rng(12)
    P, q, A, b, lo, hi = random_box_qp(rng)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    settings = QpSettings()
    sol = solve(prob, settings)
    assert sol.status == SOLVED
    scale = max(1.0, np.max(np.abs(sol.x)))
    assert sol.primal_residual <= settings.eps_abs + settings.eps_rel * 10 * scale
    assert np.all(sol.x >= lo - 1e-6) and np.all(sol.x <= hi + 1e-6)


# -- validation ---------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(eps_abs=-1e-6), dict(eps_abs=np.nan), dict(eps_abs=np.inf),
    dict(eps_rel=-1e-6), dict(eps_rel=np.nan), dict(eps_rel=np.inf),
    dict(max_iter=0),
])
def test_settings_validation(bad):
    with pytest.raises(ValueError):
        QpSettings(**bad)


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(P=[[1.0, 0.5], [0.0, 1.0]], q=[0.0, 0.0], A_eq=np.zeros((0, 2)), b_eq=[],
                  lower=[-1, -1], upper=[1, 1])
    with pytest.raises(ValueError):
        QpProblem(P=np.eye(2), q=[0.0, 0.0], A_eq=np.zeros((0, 2)), b_eq=[],
                  lower=[1.0, 0.0], upper=[0.0, 1.0])
    with pytest.raises(ValueError):
        QpProblem(P=np.eye(2), q=[0.0, 0.0], A_eq=[[1.0]], b_eq=[0.0],
                  lower=[-1, -1], upper=[1, 1])
    for P in ([1.0, 1.0, 1.0], np.ones((2, 3))):  # neither (n,) nor (n, n)
        with pytest.raises(ValueError, match="shape"):
            QpProblem(P=P, q=[0.0, 0.0], A_eq=np.zeros((0, 2)), b_eq=[],
                      lower=[-1, -1], upper=[1, 1])
    for P in (np.zeros(0), np.zeros((0, 0))):  # no variables
        with pytest.raises(ValueError, match="no variables"):
            QpProblem(P=P, q=[], A_eq=np.zeros((0, 0)), b_eq=[], lower=[], upper=[])


def _nan_off_diagonal(pair):
    P = np.eye(3)
    P[0, 2] = np.nan
    if pair:
        P[2, 0] = np.nan
    return P


@pytest.mark.parametrize("P, rejected", [
    (np.diag([1.0, np.nan, 2.0]), "finite"),  # NaN on the diagonal
    (np.diag([1.0, np.inf, 2.0]), "finite"),  # inf on the diagonal
    (_nan_off_diagonal(pair=False), "finite"),  # NaN off the diagonal
    (_nan_off_diagonal(pair=True), "finite"),
    (np.diag([1.0, 0.0, -np.inf]), "finite"),
    (np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]]), None),
    (np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "symmetric"),
    (np.array([1.0, np.nan, 2.0]), "finite"),
    (np.array([1.0, np.inf, 2.0]), "finite"),
    (np.array([1.0, 0.0, -np.inf]), "finite"),
], ids=["nan-diagonal", "inf-diagonal", "nan-off-diagonal", "nan-off-diagonal-pair",
        "zero-and-inf-diagonal", "symmetric-pair", "one-sided", "nan-vector", "inf-vector",
        "zero-and-inf-vector"])
def test_problem_symmetry_rule(P, rejected):
    # P passes exactly when it is finite and, as an n x n matrix, the
    # transpose compare passes; an (n,) P is the diagonal of a symmetric matrix
    finite = bool(np.isfinite(P).all())
    symmetric = P.ndim == 1 or np.array_equal(P, P.T) or np.allclose(P, P.T, atol=1e-10)
    assert (rejected is None) == (finite and symmetric)
    kwargs = dict(q=np.zeros(3), A_eq=np.zeros((0, 3)), b_eq=[], lower=-np.ones(3),
                  upper=np.ones(3))
    if rejected is None:
        QpProblem(P=P, **kwargs)
    else:
        with pytest.raises(ValueError, match=rejected):
            QpProblem(P=P, **kwargs)
