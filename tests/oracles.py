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


def pe_rank_svd(u, order, rtol=None):
    """Persistency-of-excitation verdict from the singular values of a loop-built Hankel.

    The documented rule: the depth-``order`` block Hankel of the input
    needs full row rank n_u * order, counting the singular values above
    sigma_1 * max(rows, cols) * eps, or sigma_1 * rtol.  Returns the
    report's fields as a dict, plus the singular values (None when the
    sequence is too short to build a wide enough Hankel).
    """
    u = np.asarray(u, dtype=float)
    u = u.reshape(u.shape[0], -1)
    t_len, n_u = u.shape
    required = n_u * order
    n_cols = t_len - order + 1
    if n_cols < required:
        reason = f"sequence too short: {n_cols} Hankel columns cannot reach row rank {required}"
        return dict(is_pe=False, rank=0, required_rank=required, n_cols=max(n_cols, 0),
                    threshold=0.0, reason=reason, sv=None)
    h = np.empty((required, n_cols))
    for j in range(n_cols):
        for k in range(order):
            h[k * n_u:(k + 1) * n_u, j] = u[j + k]
    sv = np.linalg.svd(h, compute_uv=False)
    scale = max(h.shape) * np.finfo(float).eps if rtol is None else rtol
    threshold = float(sv[0] * scale)
    rank = int(np.sum(sv > threshold))
    reason = "" if rank == required else f"numerical rank {rank} < {required}"
    return dict(is_pe=rank == required, rank=rank, required_rank=required, n_cols=n_cols,
                threshold=threshold, reason=reason, sv=sv)


def droop_step(x, u, params, susceptance, dt, euler):
    """One plant step written out from the parameter list, in the documented update order.

    ``x`` is (theta, omega, p_filt, u_filt); the float operations are
    those of the per-sample update, so a faithful simulator matches this
    bit for bit.
    """
    theta, omega, p_filt, u_filt = x
    p_star = np.array([p.p_star for p in params], dtype=float)
    k_p = np.array([p.k_p for p in params], dtype=float)
    omega_pc = np.array([p.omega_pc for p in params], dtype=float)
    omega_b = np.array([p.omega_b for p in params], dtype=float)
    alpha = omega_pc * dt if euler else 1.0 - np.exp(-omega_pc * dt)
    p = np.sum(susceptance * np.sin(theta[:, None] - theta[None, :]), axis=1)
    u_filt = u_filt + alpha * (u - u_filt)
    p_filt = p_filt + alpha * (p - p_filt)
    return theta + dt * omega_b * omega, k_p * (p_star + u_filt - p_filt), p_filt, u_filt
