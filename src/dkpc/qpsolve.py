"""Embedded dense convex QP solver.

Solves

    minimize    0.5 x'Px + q'x
    subject to  A_eq x = b_eq,   lower <= x <= upper

by operator splitting (ADMM with over-relaxation and adaptive penalty)
on the stacked constraint [A_eq; I] x in [b_eq, b_eq] x [lower, upper],
after Ruiz equilibration of the problem data.  Termination is always
checked on unscaled residuals.  The linear-system factorization depends
only on (P, A_eq, penalty), so a solver instance amortizes it across
repeated solves where only q and b_eq change, which is the access
pattern of a receding-horizon loop.  An active-set polish step refines
converged iterates to near-machine KKT residuals; polish
factorizations are cached per active set.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

SOLVED = "solved"
MAX_ITERATIONS = "max-iterations"
INFEASIBLE = "infeasible-detected"

_RHO_MIN = 1e-6
_RHO_MAX = 1e6


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data.

    ``lower``/``upper`` may contain +-inf for absent bounds; ``A_eq``
    may be empty (shape (0, n)) for box-only problems.
    """

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        q = np.asarray(self.q, dtype=float).ravel()
        n = q.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"P has shape {P.shape}, expected ({n}, {n})")
        if not np.allclose(P, P.T, atol=1e-10):
            raise ValueError("P must be symmetric within 1e-10")
        A_eq = np.asarray(self.A_eq, dtype=float)
        if A_eq.size == 0:
            A_eq = A_eq.reshape(0, n)
        A_eq = np.atleast_2d(A_eq)
        if A_eq.shape[1] != n:
            raise ValueError(f"A_eq has {A_eq.shape[1]} columns, expected {n}")
        q, b_eq, lower, upper = _checked_vectors(
            n, A_eq.shape[0], q, self.b_eq, self.lower, self.upper
        )
        for name, val in (
            ("P", P), ("q", q), ("A_eq", A_eq), ("b_eq", b_eq),
            ("lower", lower), ("upper", upper),
        ):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m_eq(self) -> int:
        return self.A_eq.shape[0]

    def objective(self, x: np.ndarray, Px: np.ndarray | None = None) -> float:
        """Cost at ``x``; pass ``Px = P @ x`` when it is already known."""
        if Px is None:
            Px = self.P @ x
        return float(0.5 * x @ Px + self.q @ x)


def _checked_vectors(n: int, m_eq: int, q, b_eq, lower, upper):
    """Coerce and check the vectors of a QP with n variables and m_eq equality rows.

    ``q`` and ``b_eq`` must be finite; the bounds may hold +-inf but no
    NaN, and ``lower <= upper``.  Returns the four float vectors.
    """
    vecs = []
    for name, val, size in (("q", q, n), ("b_eq", b_eq, m_eq), ("lower", lower, n),
                            ("upper", upper, n)):
        vec = np.asarray(val, dtype=float).ravel()
        if vec.shape[0] != size:
            raise ValueError(f"{name} has length {vec.shape[0]}, expected {size}")
        vecs.append(vec)
    q, b_eq, lower, upper = vecs
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(b_eq))):
        raise ValueError("q and b_eq must be finite")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("bounds must not be NaN")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")
    return q, b_eq, lower, upper


@dataclass(frozen=True)
class QpSettings:
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iter: int = 20000
    sigma: float = 1e-6
    alpha: float = 1.6
    rho: float = 0.1
    rho_eq_scale: float = 1e3
    check_every: int = 25
    adaptive_rho: bool = True
    scaling_iters: int = 10
    eps_infeasible: float = 1e-8
    polish: bool = True
    polish_delta: float = 1e-12
    polish_trigger: float = 1e3
    polish_cache_size: int = 8


@dataclass
class QpSolution:
    x: np.ndarray
    objective: float
    status: str
    primal_residual: float
    dual_residual: float
    iterations: int
    y_eq: np.ndarray
    y_box: np.ndarray
    polished: bool = False


def kkt_residuals(
    problem: QpProblem, x: np.ndarray, y_eq: np.ndarray, y_box: np.ndarray
) -> dict[str, float]:
    """Stationarity, primal feasibility and complementarity residuals.

    Complementarity folds in dual-sign violations: a positive multiplier
    on an infinite upper bound (or negative on an infinite lower bound)
    counts as residual of its own magnitude.
    """
    stat = problem.P @ x + problem.q + y_box
    if problem.m_eq:
        stat += problem.A_eq.T @ y_eq
    eq_res = problem.A_eq @ x - problem.b_eq if problem.m_eq else np.zeros(0)
    box_viol = np.maximum(problem.lower - x, 0.0) + np.maximum(x - problem.upper, 0.0)
    up = np.maximum(y_box, 0.0)
    lo = np.maximum(-y_box, 0.0)
    fin_up = np.isfinite(problem.upper)
    fin_lo = np.isfinite(problem.lower)
    comp = 0.0
    if np.any(fin_up):
        comp = max(comp, np.max(up[fin_up] * np.abs(problem.upper - x)[fin_up]))
    if np.any(fin_lo):
        comp = max(comp, np.max(lo[fin_lo] * np.abs(x - problem.lower)[fin_lo]))
    if np.any(~fin_up):
        comp = max(comp, np.max(up[~fin_up]))
    if np.any(~fin_lo):
        comp = max(comp, np.max(lo[~fin_lo]))
    return {
        "stationarity": float(np.max(np.abs(stat))),
        "primal_eq": float(np.max(np.abs(eq_res))) if eq_res.size else 0.0,
        "primal_box": float(np.max(box_viol)) if box_viol.size else 0.0,
        "complementarity": float(comp),
    }


def _inf_col_norms(mat: np.ndarray) -> np.ndarray:
    if mat.size == 0:
        return np.zeros(mat.shape[1])
    return np.max(np.abs(mat), axis=0)


class _Hessian:
    """The cost Hessian in the form the solver multiplies with.

    A P with no off-diagonal nonzeros (the cost of both behavioral
    controllers) is kept as its diagonal vector, so no product reads an
    n x n array.  Adding exact zeros leaves a sum unchanged, so every
    result equals the dense one bit for bit.  Any other P stays dense.
    """

    def __init__(self, data: np.ndarray):
        self.data = data  # (n,) diagonal or (n, n) dense

    @classmethod
    def of(cls, P: np.ndarray) -> "_Hessian":
        """Diagonal form if P has no off-diagonal nonzeros; one pass, no n x n temporary."""
        diag = np.diagonal(P)
        if np.count_nonzero(P) == np.count_nonzero(diag):
            return cls(diag.copy())
        return cls(P)

    @property
    def is_diagonal(self) -> bool:
        return self.data.ndim == 1

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.data * x if self.is_diagonal else self.data @ x

    def col_norms(self) -> np.ndarray:
        return np.abs(self.data) if self.is_diagonal else _inf_col_norms(self.data)

    def scaled(self, dd: np.ndarray) -> "_Hessian":
        """diag(dd) P diag(dd), as a new array."""
        if self.is_diagonal:
            return _Hessian((self.data * dd) * dd)
        return _Hessian((self.data * dd[None, :]) * dd[:, None])

    def add_to(self, mat: np.ndarray) -> None:
        """``mat += P`` in place, for an n x n array or view ``mat``."""
        if self.is_diagonal:
            mat[np.diag_indices(mat.shape[0])] += self.data
        else:
            mat += self.data


class QpSolver:
    """Reusable operator-splitting engine bound to one problem structure.

    ``update`` swaps the vectors that change between receding-horizon
    steps (q, b_eq, bounds) without touching the cached factorization,
    the equilibration or the polish cache.  It validates the new
    vectors only: P and A_eq are checked once, when the ``QpProblem``
    is built, and are shared unchanged by every updated problem.
    Altering P or A_eq requires a new instance.

    A diagonal P is detected once, here, and kept as a vector (scaled
    and unscaled) for every product the solver forms; the dense path
    serves any other P.  Both give the same iterates bit for bit.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings | None = None):
        self.problem = problem
        self.settings = settings or QpSettings()
        self._scale(problem)
        s = self.settings
        n = problem.n
        if problem.m_eq:
            self._gram = s.rho_eq_scale * (self._A_s.T @ self._A_s)
            self._gram[np.diag_indices(n)] += self._s_box * self._s_box
        else:
            self._gram = np.diag(self._s_box * self._s_box)
        self._rho = s.rho
        self._factor = None
        self._polish_cache: dict[bytes, tuple] = {}
        self._refactor()

    # -- equilibration ---------------------------------------------------

    def _scale(self, p: QpProblem) -> None:
        """Modified Ruiz equilibration of the stacked (P, [A_eq; I]) data.

        Produces variable scales d, row scales e (equality rows and box
        rows separately) and a cost scale c; the box block of the
        constraint stays diagonal with coefficients s = e_box * d.
        """
        n, m_eq = p.n, p.m_eq
        iters = max(self.settings.scaling_iters, 0)
        d = np.ones(n)
        e_eq = np.ones(m_eq)
        s_box = np.ones(n)
        self._P = _Hessian.of(p.P)
        P_s = self._P
        A_s = p.A_eq.copy()
        c = 1.0
        for _ in range(iters):
            col = np.maximum(P_s.col_norms(), s_box)
            if m_eq:
                col = np.maximum(col, _inf_col_norms(A_s))
                row_eq = np.max(np.abs(A_s), axis=1)
            else:
                row_eq = np.zeros(0)
            dd = 1.0 / np.sqrt(np.clip(col, 1e-8, None))
            de = 1.0 / np.sqrt(np.clip(row_eq, 1e-8, None))
            ds = 1.0 / np.sqrt(np.clip(s_box, 1e-8, None))
            P_s = P_s.scaled(dd)
            if m_eq:
                A_s = (A_s * dd[None, :]) * de[:, None]
            s_box = s_box * ds * dd
            d *= dd
            e_eq *= de
            # cost normalization
            pc = P_s.col_norms()
            denom = max(float(np.mean(pc)) if pc.size else 0.0,
                        float(np.max(np.abs(c * d * p.q))) if n else 0.0)
            if denom > 1e-8:
                gamma = 1.0 / denom
                P_s.data *= gamma
                c *= gamma
        self._d = d
        self._e_eq = e_eq
        self._s_box = s_box
        self._e_box = s_box / d
        self._c = c
        self._P_s = P_s
        self._A_s = A_s

    # -- scaled linear algebra -------------------------------------------

    def _refactor(self) -> None:
        s = self.settings
        m = self._rho * self._gram
        self._P_s.add_to(m)
        m[np.diag_indices_from(m)] += s.sigma
        self._factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)

    def _matvec_s(self, x: np.ndarray) -> np.ndarray:
        if self.problem.m_eq:
            return np.concatenate([self._A_s @ x, self._s_box * x])
        return self._s_box * x

    def _rmatvec_s(self, w: np.ndarray) -> np.ndarray:
        m_eq = self.problem.m_eq
        if m_eq:
            return self._A_s.T @ w[:m_eq] + self._s_box * w[m_eq:]
        return self._s_box * w

    # -- public API ------------------------------------------------------

    def update(
        self,
        q: np.ndarray | None = None,
        b_eq: np.ndarray | None = None,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
    ) -> None:
        """Replace cost/right-hand-side vectors; keeps the factorization.

        Checks only the vectors (length, finiteness, ``lower <= upper``)
        and raises ValueError without changing the problem if one fails.
        The new ``problem`` shares the ``P`` and ``A_eq`` arrays of the
        old one; they are not re-validated.
        """
        p = self.problem
        vecs = _checked_vectors(
            p.n,
            p.m_eq,
            p.q if q is None else q,
            p.b_eq if b_eq is None else b_eq,
            p.lower if lower is None else lower,
            p.upper if upper is None else upper,
        )
        updated = copy.copy(p)
        for name, val in zip(("q", "b_eq", "lower", "upper"), vecs):
            object.__setattr__(updated, name, val)
        self.problem = updated

    def solve(
        self,
        warm_start: np.ndarray | None = None,
        warm_start_dual: np.ndarray | None = None,
    ) -> QpSolution:
        p, s = self.problem, self.settings
        n, m_eq = p.n, p.m_eq
        m = m_eq + n
        c, d, e_eq, e_box, s_box = self._c, self._d, self._e_eq, self._e_box, self._s_box

        q_s = c * d * p.q
        lo_s = np.concatenate([e_eq * p.b_eq, e_box * p.lower])
        hi_s = np.concatenate([e_eq * p.b_eq, e_box * p.upper])
        e_all = np.concatenate([e_eq, e_box])

        if warm_start is not None:
            xw = np.asarray(warm_start, dtype=float)
            if xw.shape != (n,):
                raise ValueError(f"warm start has shape {xw.shape}, expected ({n},)")
            x = xw / d
        else:
            x = np.zeros(n)
        if warm_start_dual is not None:
            yw = np.asarray(warm_start_dual, dtype=float)
            if yw.shape != (m,):
                raise ValueError(f"dual warm start has shape {yw.shape}, expected ({m},)")
            y = c * yw / e_all
        else:
            y = np.zeros(m)
        z = np.clip(self._matvec_s(x), lo_s, hi_s)

        rho = np.empty(m)
        rho[:m_eq] = self._rho * s.rho_eq_scale
        rho[m_eq:] = self._rho

        best: Optional[tuple[float, np.ndarray, np.ndarray, np.ndarray, float, float]] = None
        y_prev_check = y.copy()
        last_polish_iter = -(10**9)
        iters_done = 0

        def unscaled_residuals(xv, yv, zv):
            """Residuals, tolerance scales and P x in original problem units."""
            xu = d * xv
            yu = e_all * yv / c
            zu = zv / e_all
            axu = np.concatenate([p.A_eq @ xu, xu]) if m_eq else xu
            pxu = self._P.matvec(xu)
            atyu = p.A_eq.T @ yu[:m_eq] + yu[m_eq:] if m_eq else yu.copy()
            r_p = np.max(np.abs(axu - zu)) if m else 0.0
            r_d = np.max(np.abs(pxu + p.q + atyu))
            sc_p = max(np.max(np.abs(axu)), np.max(np.abs(zu))) if m else 0.0
            sc_d = max(np.max(np.abs(pxu)), np.max(np.abs(atyu)), np.max(np.abs(p.q)))
            return r_p, r_d, sc_p, sc_d, pxu

        def finish(status, xv, yv, pxu, r_p, r_d, iters, polished=False, scaled=True):
            if scaled:
                xu = d * xv
                yu = e_all * yv / c
            else:
                xu, yu = xv, yv
            return QpSolution(
                x=xu,
                objective=p.objective(xu, pxu),
                status=status,
                primal_residual=float(r_p),
                dual_residual=float(r_d),
                iterations=iters,
                y_eq=yu[:m_eq].copy(),
                y_box=yu[m_eq:].copy(),
                polished=polished,
            )

        # A warm start that already satisfies the KKT conditions returns
        # immediately, so a warm solve never needs more iterations than cold.
        r_p, r_d, sc_p, sc_d, px = unscaled_residuals(x, y, z)
        eps_pri = s.eps_abs + s.eps_rel * sc_p
        eps_dua = s.eps_abs + s.eps_rel * sc_d
        if r_p <= eps_pri and r_d <= eps_dua:
            return finish(SOLVED, x, y, px, r_p, r_d, 0)

        # direct attempt: the active-set KKT solve handles (consistent)
        # rank-deficient behavioral equality rows that stall the splitting
        # iteration, and its cached factorization makes repeated
        # receding-horizon solves cheap
        if s.polish:
            last_polish_iter = 0
            pol = self._polish(e_all * y / c)
            if pol is not None:
                xp, yp, pxp, rp_p, rd_p = pol
                if rp_p <= eps_pri and rd_p <= eps_dua:
                    return finish(
                        SOLVED, xp, yp, pxp, rp_p, rd_p, 0, polished=True, scaled=False
                    )

        for it in range(1, s.max_iter + 1):
            rhs = s.sigma * x - q_s + self._rmatvec_s(rho * z - y)
            x_tilde = scipy.linalg.cho_solve(self._factor, rhs, check_finite=False)
            z_tilde = self._matvec_s(x_tilde)
            x = s.alpha * x_tilde + (1.0 - s.alpha) * x
            z_relaxed = s.alpha * z_tilde + (1.0 - s.alpha) * z
            z_new = np.clip(z_relaxed + y / rho, lo_s, hi_s)
            y = y + rho * (z_relaxed - z_new)
            z = z_new
            iters_done = it

            if it % s.check_every != 0 and it != s.max_iter:
                continue

            r_p, r_d, sc_p, sc_d, px = unscaled_residuals(x, y, z)
            eps_pri = s.eps_abs + s.eps_rel * sc_p
            eps_dua = s.eps_abs + s.eps_rel * sc_d
            score = max(r_p / max(eps_pri, 1e-300), r_d / max(eps_dua, 1e-300))
            if best is None or score < best[0]:
                best = (score, x.copy(), y.copy(), px, r_p, r_d)

            converged = r_p <= eps_pri and r_d <= eps_dua
            # primal proximity alone triggers a polish attempt: with nearly
            # dependent equality rows the ADMM dual can stall while the
            # direct KKT solve still reaches the optimum
            near = r_p <= s.polish_trigger * eps_pri
            if s.polish and (converged or (near and it - last_polish_iter >= 2 * s.check_every)):
                last_polish_iter = it
                pol = self._polish(e_all * y / c)
                if pol is not None:
                    xp, yp, pxp, rp_p, rd_p = pol
                    good = rp_p <= eps_pri and rd_p <= eps_dua
                    if good and (not converged or max(rp_p, rd_p) <= max(r_p, r_d)):
                        return finish(
                            SOLVED, xp, yp, pxp, rp_p, rd_p, it, polished=True, scaled=False
                        )
            if converged:
                return finish(SOLVED, x, y, px, r_p, r_d, it)

            if self._primal_infeasible((y - y_prev_check) * e_all):
                return finish(INFEASIBLE, x, y, px, r_p, r_d, it)
            y_prev_check = y.copy()

            if s.adaptive_rho and it != s.max_iter:
                num = r_p / max(sc_p, 1e-12)
                den = r_d / max(sc_d, 1e-12)
                if den > 0 and num > 0:
                    factor = float(np.sqrt(num / den))
                    if factor > 5.0 or factor < 0.2:
                        self._rho = float(np.clip(self._rho * factor, _RHO_MIN, _RHO_MAX))
                        self._refactor()
                        rho[:m_eq] = self._rho * s.rho_eq_scale
                        rho[m_eq:] = self._rho

        if best is not None:
            _, xb, yb, px, r_p, r_d = best
        else:
            xb, yb = x, y
        return finish(MAX_ITERATIONS, xb, yb, px, r_p, r_d, iters_done)

    # -- infeasibility certificate ----------------------------------------

    def _primal_infeasible(self, dy: np.ndarray) -> bool:
        """Primal-infeasibility certificate test on an unscaled dual step."""
        p = self.problem
        eps = self.settings.eps_infeasible
        norm = np.max(np.abs(dy)) if dy.size else 0.0
        if norm <= eps:
            return False
        v = dy / norm
        at_v = p.A_eq.T @ v[: p.m_eq] + v[p.m_eq :] if p.m_eq else v.copy()
        if np.max(np.abs(at_v)) > eps:
            return False
        lo = np.concatenate([p.b_eq, p.lower])
        hi = np.concatenate([p.b_eq, p.upper])
        pos = np.maximum(v, 0.0)
        neg = np.minimum(v, 0.0)
        # an unbounded side with nonzero multiplier cannot certify
        if np.any(pos[~np.isfinite(hi)] > eps) or np.any(neg[~np.isfinite(lo)] < -eps):
            return False
        fin_hi = np.isfinite(hi)
        fin_lo = np.isfinite(lo)
        support = float(hi[fin_hi] @ pos[fin_hi]) + float(lo[fin_lo] @ neg[fin_lo])
        return support < -eps

    # -- polish ------------------------------------------------------------

    def _polish(self, y_unscaled: np.ndarray):
        """Refine the iterate by solving the active-set KKT system.

        Operates on the original (unscaled) data.  The candidate active
        set is seeded from the dual signs, then adjusted a few rounds:
        bounds the trial point violates are added, actives whose
        multipliers come out with the wrong sign are dropped.  Returns
        ``(x, y_full, P x, r_primal, r_dual)`` only when the final point
        is a clean KKT point, else None.
        """
        p = self.problem
        m_eq = p.m_eq
        y_box = y_unscaled[m_eq:]
        pinned = p.lower == p.upper
        low_act = (y_box < 0.0) & ~pinned & np.isfinite(p.lower)
        up_act = (y_box > 0.0) & ~pinned & np.isfinite(p.upper)

        dual_cap = 1e7 * (1.0 + np.max(np.abs(p.q)) + np.max(np.abs(y_unscaled)))
        for _ in range(8):
            result = self._polish_once(pinned, low_act, up_act)
            if result is None:
                return None
            x, y_full, _, r_p, r_d = result
            mu = y_full[m_eq:]
            if np.max(np.abs(y_full), initial=0.0) > dual_cap:
                return None  # nearly singular active-set system
            scale = 1e-8 * (1.0 + np.max(np.abs(mu), initial=0.0))
            wrong_low = low_act & (mu > scale)
            wrong_up = up_act & (mu < -scale)
            feas_tol = 1e-9 * (1.0 + np.max(np.abs(x), initial=0.0))
            add_low = (x < p.lower - feas_tol) & ~pinned & ~low_act
            add_up = (x > p.upper + feas_tol) & ~pinned & ~up_act
            if not (wrong_low.any() or wrong_up.any() or add_low.any() or add_up.any()):
                return result
            low_act = (low_act & ~wrong_low) | add_low
            up_act = (up_act & ~wrong_up) | add_up
            low_act &= ~up_act  # a bound cannot be active on both sides
        return None

    def _polish_once(self, pinned, low_act, up_act):
        """One active-set KKT solve in the equilibrated space.

        Scaling keeps the regularized KKT matrix well conditioned, which
        allows a tiny regularization and hence near-exact enforcement of
        ill-conditioned behavioral equality rows.
        """
        p, s = self.problem, self.settings
        n, m_eq = p.n, p.m_eq
        c, d, e_eq = self._c, self._d, self._e_eq
        act_idx = np.flatnonzero(pinned | low_act | up_act)
        key = np.packbits(
            np.concatenate([pinned | low_act | up_act, up_act]).astype(np.uint8)
        ).tobytes()

        cached = self._polish_cache.get(key)
        if cached is None:
            k_act = act_idx.size
            dim = n + m_eq + k_act
            kkt = np.zeros((dim, dim))
            self._P_s.add_to(kkt[:n, :n])
            kkt[np.diag_indices(n)] += s.polish_delta
            if m_eq:
                kkt[n : n + m_eq, :n] = self._A_s
                kkt[:n, n : n + m_eq] = self._A_s.T
            for row, col in enumerate(act_idx):
                kkt[n + m_eq + row, col] = 1.0
                kkt[col, n + m_eq + row] = 1.0
            kkt[range(n, dim), range(n, dim)] -= s.polish_delta
            try:
                lu = scipy.linalg.lu_factor(kkt, check_finite=False)
            except (scipy.linalg.LinAlgError, ValueError):
                return None
            if len(self._polish_cache) >= s.polish_cache_size:
                self._polish_cache.pop(next(iter(self._polish_cache)))
            cached = (lu, act_idx)
            self._polish_cache[key] = cached
        lu, act_idx = cached

        lo, hi = p.lower, p.upper
        bound_act = np.where(up_act[act_idx], hi[act_idx], lo[act_idx])
        rhs = np.concatenate([-c * d * p.q, e_eq * p.b_eq, bound_act / d[act_idx]])
        sol = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
        if not np.all(np.isfinite(sol)):
            return None
        # iterative refinement against the unregularized KKT system; keep
        # going while the residual still drops (ill-conditioned behavioral
        # rows need several passes)
        tol = 1e-14 * (1.0 + np.max(np.abs(rhs)))
        best_sol, best_rn = sol, np.inf
        for _ in range(15):
            resid = rhs - self._kkt_apply_scaled(sol, act_idx)
            rn = float(np.max(np.abs(resid)))
            if not np.isfinite(rn):
                break
            if rn < best_rn:
                best_sol, best_rn = sol, rn
            if rn < tol or rn > 0.7 * best_rn:
                break
            sol = sol + scipy.linalg.lu_solve(lu, resid, check_finite=False)
        sol = best_sol

        x = d * sol[:n]
        y_full = np.zeros(m_eq + n)
        y_full[:m_eq] = e_eq * sol[n : n + m_eq] / c
        y_full[m_eq + act_idx] = sol[n + m_eq :] / (c * d[act_idx])
        viol = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        r_p = float(np.max(viol, initial=0.0))
        if m_eq:
            r_p = max(r_p, float(np.max(np.abs(p.A_eq @ x - p.b_eq))))
        aty = p.A_eq.T @ y_full[:m_eq] + y_full[m_eq:] if m_eq else y_full[m_eq:]
        px = self._P.matvec(x)
        r_d = float(np.max(np.abs(px + p.q + aty)))
        if not (np.isfinite(r_p) and np.isfinite(r_d)):
            return None
        return x, y_full, px, r_p, r_d

    def _kkt_apply_scaled(self, sol: np.ndarray, act_idx: np.ndarray) -> np.ndarray:
        """Apply the unregularized polish KKT matrix (scaled space)."""
        n, m_eq = self.problem.n, self.problem.m_eq
        x = sol[:n]
        nu = sol[n : n + m_eq]
        mu = sol[n + m_eq :]
        top = self._P_s.matvec(x)
        if m_eq:
            top += self._A_s.T @ nu
        if act_idx.size:
            top[act_idx] += mu
        parts = [top]
        if m_eq:
            parts.append(self._A_s @ x)
        parts.append(x[act_idx])
        return np.concatenate(parts)


def solve(
    problem: QpProblem,
    settings: QpSettings | None = None,
    warm_start: np.ndarray | None = None,
) -> QpSolution:
    """One-shot solve; builds a solver instance and discards it."""
    return QpSolver(problem, settings).solve(warm_start=warm_start)
