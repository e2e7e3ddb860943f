"""Independent reference implementations used to cross-check the package.

Deliberately simple: scalar loops, first-order iterations and
brute-force filters, sharing no code path with the implementations they
verify.  The QP oracle runs a whole set of problems as one stack.
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


def _fista_box(P, q, lower, upper, x0, max_iter=60000, tol=1e-14):
    """Accelerated projected gradient for a stack of box-constrained QPs, started at x0.

    ``P`` is (k, n, n), the vectors (k, n).  Each problem takes its own
    step 1 / lambda_max(P) and stops at its own tolerance; the ones still
    iterating are kept in compacted arrays.  A problem whose step turns
    against its momentum, (z - x_new)'(x_new - x) > 0, restarts it with
    t = 1 (gradient restart, O'Donoghue and Candes, Found. Comput. Math.
    2015); without it, ill-conditioned problems oscillate to the cap.
    """
    lip = np.linalg.eigvalsh(P)[:, -1]
    step = 1.0 / np.maximum(lip, 1e-12)
    out = np.clip(x0, lower, upper)
    idx = np.arange(q.shape[0])  # problems still iterating
    x, z = out.copy(), out.copy()
    t = np.ones(q.shape[0])
    for _ in range(max_iter):
        grad = np.matmul(P, z[:, :, None])[:, :, 0] + q
        x_new = np.clip(z - step[:, None] * grad, lower, upper)
        diff = x_new - x
        t = np.where(np.sum((z - x_new) * diff, axis=1) > 0.0, 1.0, t)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new)[:, None] * diff
        done = np.max(np.abs(diff), axis=1) < tol
        if done.any():
            out[idx[done]] = x_new[done]
            keep = ~done
            if not keep.any():
                return out
            idx, P, q, step, t_new = idx[keep], P[keep], q[keep], step[keep], t_new[keep]
            lower, upper, x_new, z = lower[keep], upper[keep], x_new[keep], z[keep]
        x, t = x_new, t_new
    out[idx] = x
    return out


def projected_gradient_qps(problems, outer_tol=1e-9, max_outer=80):
    """Reference solves of many QPs: projected gradient with augmented-Lagrangian equalities.

    ``problems`` holds ``(P, q, A_eq, b_eq, lower, upper)`` tuples, P
    either the n x n matrix or the (n,) diagonal of a diagonal one; returns
    one minimizer per problem.  Equality constraints are handled by
    multiplier updates on a quadratic penalty, each inner solve
    warm-started from the previous round's minimizer.  A problem without
    equality rows ends after its first round, plain accelerated projected
    gradient from zero.  The problems run as one zero-padded stack: a
    padded variable is boxed to [0, 0], a padded row is 0 = 0, and each
    problem keeps its own penalty, multipliers and stopping point.
    """
    rows = []
    for P_i, q_i, A_i, b_i, lo_i, hi_i in problems:
        q_i = np.asarray(q_i, dtype=float).ravel()
        rows.append((P_i, q_i, np.asarray(A_i, dtype=float).reshape(-1, q_i.shape[0]), b_i,
                     lo_i, hi_i))
    k = len(rows)
    n = max(r[1].shape[0] for r in rows)
    m = max(r[2].shape[0] for r in rows)
    P, A = np.zeros((k, n, n)), np.zeros((k, m, n))
    q, b, lower, upper = np.zeros((k, n)), np.zeros((k, m)), np.zeros((k, n)), np.zeros((k, n))
    for i, (P_i, q_i, A_i, b_i, lo_i, hi_i) in enumerate(rows):
        n_i, m_i = A_i.shape[1], A_i.shape[0]
        P[i, :n_i, :n_i] = np.diag(P_i) if np.ndim(P_i) == 1 else P_i
        A[i, :m_i, :n_i] = A_i
        q[i, :n_i], b[i, :m_i], lower[i, :n_i], upper[i, :n_i] = q_i, np.ravel(b_i), lo_i, hi_i
    mu = 10.0 * (1.0 + np.max(np.abs(P), axis=(1, 2)))
    nu = np.zeros((k, m))
    x = np.zeros((k, n))
    prev = np.full(k, np.inf)
    At = A.transpose(0, 2, 1)
    gram = np.matmul(At, A)
    live = np.arange(k)  # problems still in their outer rounds
    for _ in range(max_outer):
        mu_l = mu[live]
        P_aug = P[live] + mu_l[:, None, None] * gram[live]
        shift = nu[live] - mu_l[:, None] * b[live]
        q_aug = q[live] + np.matmul(At[live], shift[:, :, None])[:, :, 0]
        x[live] = _fista_box(P_aug, q_aug, lower[live], upper[live], x[live])
        residual = np.matmul(A[live], x[live][:, :, None])[:, :, 0] - b[live]
        gap = np.max(np.abs(residual), axis=1, initial=0.0)
        go = ~(gap < outer_tol)
        live, residual, gap = live[go], residual[go], gap[go]
        if live.size == 0:
            break
        nu[live] += mu[live][:, None] * residual
        mu[live] *= np.where(gap > 0.5 * prev[live], 4.0, 1.0)  # multipliers alone are too slow
        prev[live] = gap
    return [x[i, : r[1].shape[0]] for i, r in enumerate(rows)]


def projected_gradient_qp(P, q, A_eq, b_eq, lower, upper, outer_tol=1e-9, max_outer=80):
    """Reference solve of one QP (see ``projected_gradient_qps``)."""
    return projected_gradient_qps([(P, q, A_eq, b_eq, lower, upper)], outer_tol, max_outer)[0]


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
                    reason=reason, sv=None)
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
                reason=reason, sv=sv)


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
