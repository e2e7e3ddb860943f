import numpy as np
import pytest

from dkpc import qpsolve
from dkpc.qpsolve import (
    INFEASIBLE,
    MAX_ITERATIONS,
    SOLVED,
    QpProblem,
    QpSettings,
    QpSolver,
    kkt_residuals,
    solve,
)

from oracles import projected_gradient_qp, random_box_qp

TIGHT = QpSettings(eps_abs=1e-9, eps_rel=0.0, max_iter=100000)


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
    for _ in range(10):
        P, q, A, b, lo, hi = random_box_qp(rng, n_max=15, m_max=5)
        prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
        sol = solve(prob, TIGHT)
        x_ref = projected_gradient_qp(P, q, A, b, lo, hi)
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
    """Random feasible QP with diagonal P (some entries zero) and active bounds."""
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    p = rng.uniform(0.5, 3.0, len(q))
    p[rng.random(len(q)) < 0.3] = 0.0
    return np.diag(p), 3.0 * q, A, b, lo, hi


def force_dense_hessian(mp):
    """Make every new solver keep P dense, even when it is diagonal."""
    mp.setattr(qpsolve._Hessian, "of", classmethod(lambda cls, P: cls(P)))


def diagonal_problems():
    rng = np.random.default_rng(21)
    return [QpProblem(*random_diagonal_qp(rng)) for _ in range(8)]


def test_diagonal_hessian_qps_satisfy_kkt_and_oracle():
    problems = diagonal_problems()
    # the draw covers singular P, equality rows and active bounds
    assert any(np.any(np.diagonal(p.P) == 0.0) for p in problems)
    assert any(p.m_eq for p in problems)
    n_active = 0
    for prob in problems:
        solver = QpSolver(prob, TIGHT)
        assert solver._P_s.is_diagonal and solver._P_s.data.shape == (prob.n,)
        sol = solver.solve()
        assert sol.status == SOLVED
        res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
        assert max(res.values()) <= 1e-5, res
        x_ref = projected_gradient_qp(prob.P, prob.q, prob.A_eq, prob.b_eq, prob.lower,
                                      prob.upper)
        assert abs(sol.objective - prob.objective(x_ref)) <= 1e-6 * (
            1 + abs(prob.objective(x_ref))
        )
        if np.all(np.diagonal(prob.P) > 0.0):  # unique minimizer
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-4
        n_active += int(np.count_nonzero(sol.y_box))
    assert n_active > 0


def test_diagonal_hessian_matches_dense_path(monkeypatch):
    for prob in diagonal_problems():
        diag = QpSolver(prob, TIGHT)
        with monkeypatch.context() as mp:
            force_dense_hessian(mp)
            dense = QpSolver(prob, TIGHT)
        assert diag._P_s.is_diagonal and not dense._P_s.is_diagonal
        sol, ref = diag.solve(), dense.solve()
        assert sol.status == ref.status and sol.iterations == ref.iterations
        assert np.max(np.abs(sol.x - ref.x)) <= 1e-12
        assert abs(sol.objective - ref.objective) <= 1e-12 * (1 + abs(ref.objective))


def test_off_diagonal_pair_keeps_dense_hessian():
    P = np.diag([2.0, 1.0, 3.0, 1.5])
    P[0, 2] = P[2, 0] = 0.25
    prob = QpProblem(P=P, q=[1.0, -2.0, 0.5, 4.0], A_eq=[[1.0, 1.0, 1.0, 1.0]], b_eq=[0.5],
                     lower=[-1.0] * 4, upper=[1.0] * 4)
    solver = QpSolver(prob, TIGHT)
    assert not solver._P_s.is_diagonal
    sol = solver.solve()
    assert sol.status == SOLVED
    res = kkt_residuals(prob, sol.x, sol.y_eq, sol.y_box)
    assert max(res.values()) <= 1e-5, res


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


def test_max_iterations_returns_best_iterate():
    rng = np.random.default_rng(3)
    P, q, A, b, lo, hi = random_box_qp(rng)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    starved = QpSettings(eps_abs=1e-14, eps_rel=0.0, max_iter=6, check_every=3, polish=False)
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


def test_update_reuses_factorization():
    rng = np.random.default_rng(10)
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    solver = QpSolver(prob, TIGHT)
    solver.solve()
    # change the right-hand side: the shared instance must match a fresh solve
    b2 = A @ rng.uniform(lo, hi) if A.shape[0] else b
    q2 = rng.standard_normal(len(q))
    solver.update(q=q2, b_eq=b2)
    reused = solver.solve()
    fresh = solve(QpProblem(P=P, q=q2, A_eq=A, b_eq=b2, lower=lo, upper=hi), TIGHT)
    assert np.max(np.abs(reused.x - fresh.x)) <= 1e-6


def test_update_bounds_matches_fresh_solve():
    rng = np.random.default_rng(13)
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=12, m_max=4)
    prob = QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi)
    solver = QpSolver(prob, TIGHT)
    solver.solve()
    # shrink the box around a point that keeps the equalities feasible
    x_feas = rng.uniform(0.5 * lo, 0.5 * hi)
    lo2, hi2 = 0.5 * lo, 0.5 * hi
    b2 = A @ x_feas
    solver.update(b_eq=b2, lower=lo2, upper=hi2)
    reused = solver.solve()
    fresh = solve(QpProblem(P=P, q=q, A_eq=A, b_eq=b2, lower=lo2, upper=hi2), TIGHT)
    assert reused.status == fresh.status == SOLVED
    assert np.max(np.abs(reused.x - fresh.x)) <= 1e-6


def test_update_shares_matrices():
    rng = np.random.default_rng(14)
    P, q, A, b, lo, hi = random_box_qp(rng, n_max=8, m_max=3)
    solver = QpSolver(QpProblem(P=P, q=q, A_eq=A, b_eq=b, lower=lo, upper=hi))
    before = solver.problem
    solver.update(q=-q, lower=lo - 1.0)
    after = solver.problem
    assert after is not before
    assert after.P is before.P and after.A_eq is before.A_eq
    assert np.array_equal(after.q, -q) and np.array_equal(after.lower, lo - 1.0)
    # the solver's own problem keeps its vectors
    assert np.array_equal(before.q, q) and np.array_equal(before.lower, lo)


def test_update_rejects_bad_vectors():
    P = np.eye(3)
    A = np.array([[1.0, 1.0, 0.0]])
    prob = QpProblem(P=P, q=[0.0] * 3, A_eq=A, b_eq=[0.5], lower=[-1.0] * 3, upper=[1.0] * 3)
    solver = QpSolver(prob)
    bad = [
        dict(q=np.zeros(2)),
        dict(b_eq=np.zeros(2)),
        dict(lower=-np.ones(4)),
        dict(upper=np.ones(2)),
        dict(lower=[2.0, -1.0, -1.0]),  # lower > upper
        dict(lower=[-1.0] * 3, upper=[1.0, -2.0, 1.0]),
        dict(q=[0.0, np.nan, 0.0]),
        dict(b_eq=[np.nan]),
        dict(lower=[np.nan, -1.0, -1.0]),
        dict(upper=[1.0, 1.0, np.nan]),
        dict(q=[np.inf, 0.0, 0.0]),
        dict(b_eq=[-np.inf]),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            solver.update(**kwargs)
        # a failed update leaves the problem as it was
        assert solver.problem is prob
    # infinite bounds stay allowed
    solver.update(lower=[-np.inf] * 3, upper=[np.inf, 1.0, np.inf])
    assert solver.solve().status == SOLVED


def test_problem_rejects_non_finite_vectors():
    base = dict(P=np.eye(2), q=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[0.0],
                lower=[-1.0, -1.0], upper=[1.0, 1.0])
    for name, val in (("q", [np.nan, 0.0]), ("q", [0.0, -np.inf]), ("b_eq", [np.nan]),
                      ("b_eq", [np.inf]), ("lower", [np.nan, 0.0]), ("upper", [0.0, np.nan])):
        with pytest.raises(ValueError):
            QpProblem(**{**base, name: val})


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
