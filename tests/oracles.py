"""Independent reference implementations used to cross-check the package.

Deliberately simple and slow: scalar loops, first-order iterations and
brute-force filters, sharing no code path with the implementations they
verify.
"""

import math

import numpy as np


def injections_scalar(theta, susceptance):
    """Loop evaluation of the lossless power flow equation."""
    n = len(theta)
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if j != i:
                acc += susceptance[i][j] * math.sin(theta[i] - theta[j])
        out.append(acc)
    return np.array(out)


def _fista_box(P, q, lower, upper, x0=None, max_iter=60000, tol=1e-14):
    """Accelerated projected gradient for a box-constrained QP, started at x0 (default 0)."""
    n = q.shape[0]
    lip = float(np.max(np.linalg.eigvalsh(P)))
    step = 1.0 / max(lip, 1e-12)
    x = np.clip(np.zeros(n) if x0 is None else x0, lower, upper)
    z = x.copy()
    t = 1.0
    for _ in range(max_iter):
        x_new = np.clip(z - step * (P @ z + q), lower, upper)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x, t = x_new, t_new
    return x


def projected_gradient_qp(P, q, A_eq, b_eq, lower, upper, outer_tol=1e-9, max_outer=80):
    """Reference QP solve: projected gradient with augmented-Lagrangian equalities.

    For box-only problems this is plain accelerated projected gradient;
    equality constraints are handled by multiplier updates on a fixed
    quadratic penalty, each inner solve warm-started from the previous
    round's minimizer.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.asarray(A_eq, dtype=float).reshape(-1, q.shape[0])
    b = np.asarray(b_eq, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if A.shape[0] == 0:
        return _fista_box(P, q, lower, upper)
    mu = 10.0 * (1.0 + float(np.max(np.abs(P))))
    nu = np.zeros(A.shape[0])
    x = np.zeros(q.shape[0])
    prev = np.inf
    for _ in range(max_outer):
        P_aug = P + mu * (A.T @ A)
        q_aug = q + A.T @ (nu - mu * b)
        x = _fista_box(P_aug, q_aug, lower, upper, x0=x)
        residual = A @ x - b
        gap = float(np.max(np.abs(residual)))
        if gap < outer_tol:
            break
        nu = nu + mu * residual
        if gap > 0.5 * prev:  # multipliers alone converge too slowly
            mu *= 4.0
        prev = gap
    return x


def dominance_filter(points):
    """All-pairs non-dominated filter on (epsilon, j_u) tuples."""
    kept = []
    for i, (eps_i, ju_i) in enumerate(points):
        dominated = False
        for j, (eps_j, ju_j) in enumerate(points):
            if i == j:
                continue
            if eps_j <= eps_i and ju_j <= ju_i and (eps_j < eps_i or ju_j < ju_i):
                dominated = True
                break
        if not dominated:
            kept.append((eps_i, ju_i))
    return kept


def random_box_qp(rng, n_max=30, m_max=10, definite=True):
    """Random feasible QP with finite box bounds and consistent equalities."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    f = rng.standard_normal((n, n))
    P = f @ f.T
    if definite:
        P = P + 0.5 * np.eye(n)
    q = rng.standard_normal(n)
    lower = -1.0 - rng.random(n)
    upper = 1.0 + rng.random(n)
    A = rng.standard_normal((m, n))
    b = A @ rng.uniform(lower, upper)
    return P, q, A, b, lower, upper
