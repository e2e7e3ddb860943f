"""Embedded dense convex QP solver.

Solves

    minimize    0.5 x'Px + q'x
    subject to  A_eq x = b_eq,   lower <= x <= upper

Each solve first polishes directly: one active-set KKT solve, the set
read off the warm-start dual.  It is accepted on the termination test
of OSQP (Stellato et al., Math. Prog. Comp. 2020): the primal residual
against the zero point's scale, max(|b_eq|, |clip(0, lower, upper)|),
which needs no product with A_eq, and the dual residual against
max(|q|, |P x|) at the polished point, and on a guard against nearly
singular active sets that reads only what the KKT point fixes (see
``QpSolver._polish``), not the incoming dual.  Otherwise the solver
runs operator splitting (ADMM with over-relaxation and adaptive
penalty) on the stacked constraint [A_eq; I] x in [b_eq, b_eq] x
[lower, upper], checks termination on its residuals and polishes
iterates that come close.  Every step reads P, A_eq, q, b_eq and the
bounds as given.  Factorizations depend only on (P, A_eq, bounds,
penalty, active set), so a solver instance amortizes them across the
solves of a receding-horizon loop, where only b_eq changes
(``update``); q and the bounds are fixed when the solver is built.  ADMM
checks termination every ``_CHECK_EVERY`` iterations.

P is given as its (n,) diagonal or as an (n, n) matrix, and its shape
picks the path; each path serves every problem shape, m_eq = 0
included.  Both polishes fix the active variables at their bounds,
solve for the free ones and the equality multipliers, and read the
bound multipliers off the stationarity rows.  An (n,) P > 0 (both
controllers' cost) stays a vector, and every factor is a Cholesky of
order m_eq or less: the ADMM x-update goes through
A D^-1 A' + I / rho_eq (matrix inversion lemma, one refinement step),
the polish through the Schur complement on the equality rows, a
downdate of S_0 = A D^-1 A' + (delta / mu) I with D = P + delta mu
(``QpSolver._schur_split``).  mu = mean(P) is the cost scale, so the
regularization is delta relative to the cost whatever the units of P
and q.  If rounding leaves the leading block of S_0 indefinite, every
active set is factored in full instead; a failed factor fails only its
polish, and an ADMM system that will not factor ends the solve with
``UNFACTORED``.  Every problem holds its equality rows as
``EqualityRows``: the controllers' come from their Hankel system, with
the trailing run of columns with one nonzero in A_eq (u_f, y_f and
sigma) placed and the Gram of the dense columns before it (g) tested
once, by a Freivalds test, when the row set is built; a plain A_eq is
copied into rows of its own, scanned for the run, with no Gram.  The
run is kept as (row, value) pairs: both Gram matrices
(``QpSolver._gram``) and the products of a polish step and of the ADMM
x-update touch only the dense columns of A_eq, read as a slice.  Where
P is one value on them (both controllers: 2 lambda_g on g), each Gram
is the rows' one over D's value there plus the unit columns' diagonal,
and no rows x cols product is formed; otherwise a symmetric rank update
forms it.
With hard lifted rows DKPC's inputs hung on the polish's rounding
(reordering the rows of one Schur Cholesky moved them by up to 1.8e-3
on regulate), so rows are never permuted.  Any other (n,) P is
expanded once to its n x n matrix, and
an n x n P factors by LU the quasi-definite KKT matrix (``_kkt``) of
each system: the ADMM x-update's, (n + m_eq)^2, and the free
variables' one per active set, (n_F + m_eq)^2, regularized by an
absolute delta, which the polish refines against the unregularized
matrix.  On rank-deficient equality rows (DKPC with hard lifted rows)
the two polishes return different valid points.  The ADMM factor is
built on the first ADMM iteration: a solve that ends at the direct
polish needs none.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

SOLVED = "solved"
MAX_ITERATIONS = "max-iterations"
INFEASIBLE = "infeasible-detected"
UNFACTORED = "factorization-failed"  # rounding left the ADMM system indefinite

_RHO_MIN = 1e-6
_RHO_MAX = 1e6
_RHO = 0.1  # initial box-row penalty; adapted between checks
_RHO_EQ_SCALE = 1e3  # equality-row penalty over box-row penalty
_SIGMA = 1e-6  # proximal term of the x-update
_ALPHA = 1.6  # over-relaxation
_EPS_INFEASIBLE = 1e-8
_POLISH_DELTA = 1e-12  # KKT regularization of the polish (relative to mean(P) on the Schur path)
_POLISH_REFINE_STEPS = 3  # LU polish: refinement steps against the unregularized KKT
_POLISH_TRIGGER = 1e3  # polish an ADMM iterate once r_p <= this * eps_pri
_CHECK_EVERY = 25  # ADMM iterations between termination checks
_FREIVALDS_SEED = 0  # sign vector of the check on a row set's Gram


def _unit_layout(a_eq: np.ndarray):
    """The unit columns of A_eq (one nonzero) and the trailing run of them.

    Returns ``(unit_row, k, tail_rows, tail)``: each unit column's row
    (-1 for any other column) and k, where the run starts (u_f, y_f and
    sigma of both controllers follow their dense g block), with the run
    as (row, value) pairs.  A problem with no such run has k = n and an
    empty run.
    """
    nonzero = a_eq != 0.0
    unit = np.count_nonzero(nonzero, axis=0) == 1
    cols = np.flatnonzero(unit)
    unit_row = np.full(a_eq.shape[1], -1)
    if cols.size:
        unit_row[cols] = np.argmax(nonzero[:, cols], axis=0)
    dense = np.flatnonzero(~unit)
    k = int(dense[-1]) + 1 if dense.size else 0
    tail_rows = unit_row[k:]
    return unit_row, k, tail_rows, a_eq[tail_rows, np.arange(k, a_eq.shape[1])]


def _freivalds(g: np.ndarray, a: np.ndarray) -> bool:
    """Whether G passes a seeded Freivalds test as the Gram A A'.

    G v is compared with A (A' v) for a random sign vector v.  For G
    formed by any sum of the products of inner dimension c = A's column
    count, entry i of either one is off the exact A A' v by at most
    gamma_{c + m} (|A| |A'| |v|)_i <= gamma_{c + m} |a_i| sum_j |a_j|
    (Cauchy-Schwarz; a_i is row i of A, m its row count), so the two
    differ by at most about (c + m) eps |a_i| sum_j |a_j|.  A difference
    beyond twice that, or a non-finite G, fails.
    """
    m, c = a.shape
    v = np.random.default_rng(_FREIVALDS_SEED).choice([-1.0, 1.0], size=m)
    gap = np.abs(g @ v - a @ (a.T @ v))
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    return bool(np.all(gap <= 2.0 * (c + m) * np.finfo(float).eps * norms * norms.sum()))


class EqualityRows:
    """Equality rows A_eq with their unit-column layout and, optionally, their Gram.

    Every ``QpProblem`` holds one (``QpProblem._rows``); problems that
    differ only in P, q, b_eq and the bounds (the controllers built on
    one Hankel system) share one instance, so A_eq is checked, laid out
    and its Gram tested once for all their solvers.  ``tail_rows`` gives
    the rows of the trailing run of unit columns (one nonzero each; u_f,
    y_f and sigma of both controllers): the run is checked, not searched
    for, and the leading columns count as dense whatever they hold.
    Without it A_eq is scanned (``_unit_layout``).  ``gram`` is G = A A'
    of the k dense columns A = A_eq[:, :k]; it must pass the Freivalds
    test (``_freivalds``) here, or ValueError is raised.  A solver
    starts every Gram it forms from it where the vector P is one value
    on those k columns.  The 2-D ``a_eq`` and ``gram`` are taken over and
    made read-only, since the layout and the verdict are about their
    values.
    """

    def __init__(self, a_eq: np.ndarray, tail_rows: np.ndarray | None = None,
                 gram: np.ndarray | None = None):
        a_eq = np.asarray(a_eq, dtype=float)
        if not np.isfinite(a_eq).all():
            raise ValueError("A_eq must be finite")
        if tail_rows is None:
            self.layout = _unit_layout(a_eq)
        else:
            n = a_eq.shape[1]
            k = n - len(tail_rows)
            tail = a_eq[tail_rows, np.arange(k, n)]
            if np.any(tail == 0.0) or np.any(np.count_nonzero(a_eq[:, k:], axis=0) != 1):
                raise ValueError("a declared unit column of A_eq is not one nonzero in its row")
            unit_row = np.full(n, -1)
            unit_row[k:] = tail_rows
            self.layout = unit_row, k, unit_row[k:], tail
        if gram is not None:
            gram = np.asarray(gram, dtype=float)
            m = len(a_eq)
            if gram.shape != (m, m) or not _freivalds(gram, a_eq[:, :self.layout[1]]):
                raise ValueError("gram is not the Gram of A_eq's dense columns")
            gram.flags.writeable = False
        a_eq.flags.writeable = False
        self.a_eq, self.gram = a_eq, gram


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data.

    ``P`` is the (n,) diagonal of a diagonal cost Hessian or the
    symmetric (n, n) matrix.  ``P``, ``A_eq``, ``q`` and ``b_eq`` must
    be finite; ``A_eq`` may be empty (shape (0, n)) for box-only problems.
    ``A_eq`` may be given as ``EqualityRows``, checked when they were
    built; a plain array is copied into new ones.  Either way the
    problem holds their array as ``A_eq`` and them as ``_rows``.
    ``lower``/``upper`` may contain -inf/+inf for absent bounds, but no
    NaN and no lower bound of +inf or upper bound of -inf, which no
    point satisfies.
    """

    P: np.ndarray
    q: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _rows: EqualityRows = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        P = np.asarray(self.P, dtype=float)
        q = np.asarray(self.q, dtype=float).ravel()
        n = q.shape[0]
        if n == 0:
            raise ValueError("the QP has no variables")
        if P.shape not in ((n,), (n, n)):
            raise ValueError(f"P has shape {P.shape}, expected ({n},) or ({n}, {n})")
        if not np.isfinite(P).all():
            raise ValueError("P must be finite")
        if P.ndim == 2 and not (np.array_equal(P, P.T) or np.allclose(P, P.T, atol=1e-10)):
            raise ValueError("P must be symmetric within 1e-10")
        rows = self.A_eq
        if not isinstance(rows, EqualityRows):
            A_eq = np.array(rows, dtype=float)  # a copy: the row set makes it read-only
            rows = EqualityRows(np.atleast_2d(A_eq.reshape(0, n) if A_eq.size == 0 else A_eq))
        A_eq = rows.a_eq
        if A_eq.shape[1] != n:
            raise ValueError(f"A_eq has {A_eq.shape[1]} columns, expected {n}")
        q, b_eq = _finite_vector("q", q, n), _finite_vector("b_eq", self.b_eq, A_eq.shape[0])
        lower, upper = _vector("lower", self.lower, n), _vector("upper", self.upper, n)
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("a bound is pinned at infinity (lower +inf or upper -inf)")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        for name, val in (
            ("P", P), ("q", q), ("A_eq", A_eq), ("b_eq", b_eq),
            ("lower", lower), ("upper", upper), ("_rows", rows),
        ):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m_eq(self) -> int:
        return self.A_eq.shape[0]

    def objective(self, x: np.ndarray, Px: np.ndarray | None = None) -> float:
        """Cost at ``x``; pass ``Px``, P times x, when it is already known."""
        if Px is None:
            Px = _p_matvec(self.P, x)
        return float(0.5 * x @ Px + self.q @ x)


def _p_matvec(P: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P x for P given as its (n,) diagonal or as an (n, n) matrix."""
    return P * x if P.ndim == 1 else P @ x


def _vector(name: str, val, size: int) -> np.ndarray:
    """``val`` as a float vector of length ``size``."""
    vec = np.asarray(val, dtype=float).ravel()
    if vec.shape[0] != size:
        raise ValueError(f"{name} has length {vec.shape[0]}, expected {size}")
    return vec


def _finite_vector(name: str, val, size: int) -> np.ndarray:
    """``_vector``, which must be finite."""
    vec = _vector(name, val, size)
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} must be finite")
    return vec


@dataclass(frozen=True)
class QpSettings:
    """Tolerances and iteration budget; the polish always runs."""

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self) -> None:
        for name in ("eps_abs", "eps_rel"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {val}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


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
    factorizations: int = 0  # active sets this solve factored for the polish


def kkt_residuals(
    problem: QpProblem, x: np.ndarray, y_eq: np.ndarray, y_box: np.ndarray
) -> dict[str, float]:
    """Stationarity, primal feasibility and complementarity residuals.

    Complementarity folds in dual-sign violations: a positive multiplier
    on an infinite upper bound (or negative on an infinite lower bound)
    counts as residual of its own magnitude.
    """
    stat = _p_matvec(problem.P, x) + problem.q + y_box + problem.A_eq.T @ y_eq
    eq_res = problem.A_eq @ x - problem.b_eq
    box_viol = np.maximum(problem.lower - x, 0.0) + np.maximum(x - problem.upper, 0.0)
    up = np.maximum(y_box, 0.0)
    lo = np.maximum(-y_box, 0.0)
    fin_up = np.isfinite(problem.upper)
    fin_lo = np.isfinite(problem.lower)
    comp = max(
        np.max(up[fin_up] * np.abs(problem.upper - x)[fin_up], initial=0.0),
        np.max(lo[fin_lo] * np.abs(x - problem.lower)[fin_lo], initial=0.0),
        np.max(up[~fin_up], initial=0.0),
        np.max(lo[~fin_lo], initial=0.0),
    )
    return {
        "stationarity": float(np.max(np.abs(stat))),
        "primal_eq": float(np.max(np.abs(eq_res), initial=0.0)),
        "primal_box": float(np.max(box_viol, initial=0.0)),
        "complementarity": float(comp),
    }


class QpSolver:
    """Reusable operator-splitting engine bound to one problem structure.

    ``update`` swaps b_eq, the one vector that changes between
    receding-horizon steps, without touching the ADMM factorization or
    the polish factor, which is kept for the last active set factored
    only, with its ``A x0``.  It validates b_eq only: P, A_eq, q and the
    bounds are checked once, when the ``QpProblem`` is built, and are
    shared unchanged by every updated problem.  Altering any of them
    requires a new instance.

    An (n,) P with every entry > 0 stays a vector for every product
    the solver forms; any other (n,) P is expanded here, once, to the
    dense form that serves an (n, n) P.  Layout and Gram of A_eq come
    from the problem's ``EqualityRows``, checked when they were built:
    the solver scans and tests nothing.  Their Gram replaces the
    product of the dense columns where the vector P is one value on
    them (``_gram``).
    """

    def __init__(self, problem: QpProblem, settings: QpSettings | None = None):
        self.problem = problem
        self.settings = settings or QpSettings()
        P = problem.P
        self._P = P if P.ndim == 2 or np.all(P > 0.0) else np.diag(P)
        rows = problem._rows
        # each unit column's row (-1 for a dense one) and the trailing run of
        # them from column _n_lead on, kept as (row, value) pairs
        self._unit_row, self._n_lead, self._tail_rows, self._tail = rows.layout
        self._rho = _RHO
        # the splitting system is built for _factored_rho on the first ADMM
        # iteration (``_refactor``); a solve that ends before it needs none
        self._factored_rho: float | None = None
        self._factor = self._split_diag = None
        # the last factored active set: its key and (factor, K, r3, A x0)
        self._polish_key = self._polish_entry = None
        self._factorizations = 0  # active sets factored by the current solve
        # the vector P solves both linear systems on the equality rows;
        # A D^-1 A' for the polish and its leading block factor
        # (``_schur_split``) are formed once here, with delta taken
        # relative to the cost scale mean(P)
        self._schur_diag = self._schur_delta = self._schur_gram = None
        self._lead = self._trail = None
        self._split = 0
        self._lead_gram = None  # the Gram of the dense columns, where P is one value on them
        if self._P.ndim == 1:
            if rows.gram is not None and np.all(self._P[:self._n_lead] == self._P[0]):
                self._lead_gram = rows.gram
            mu = float(np.mean(self._P))
            self._schur_diag = self._P + _POLISH_DELTA * mu
            self._schur_delta = _POLISH_DELTA / mu
            self._schur_gram = self._gram(self._schur_diag)
            self._schur_split(problem)

    def _gram(self, D: np.ndarray) -> np.ndarray:
        """A_eq D^-1 A_eq' for a positive (n,) D.

        The k = ``_n_lead`` dense columns as the rows' Gram over D's one
        value there (``_lead_gram``), or else by a symmetric rank update
        (syrk); each later column, a unit column, adds (a / D) a to its
        row's diagonal entry only.
        """
        k = self._n_lead
        if self._lead_gram is not None:
            g = self._lead_gram / D[0]
        else:
            b = self.problem.A_eq[:, :k] / np.sqrt(D[:k])
            g = b @ b.T  # one triangle (syrk)
        tail = self._tail
        g[np.diag_indices_from(g)] += np.bincount(self._tail_rows, (tail / D[k:]) * tail, len(g))
        return g

    def _a_dot(self, x: np.ndarray) -> np.ndarray:
        """A_eq x: the leading columns as a slice, the trailing unit columns by their pairs."""
        k = self._n_lead
        ax = self.problem.A_eq[:, :k] @ x[:k]
        ax += np.bincount(self._tail_rows, self._tail * x[k:], ax.size)
        return ax

    def _at_dot(self, y: np.ndarray) -> np.ndarray:
        """A_eq' y: the leading columns as a slice, the trailing unit columns by their pairs."""
        k = self._n_lead
        return np.concatenate([self.problem.A_eq[:, :k].T @ y, self._tail * y[self._tail_rows]])

    # -- ADMM linear algebra ---------------------------------------------

    def _refactor(self) -> None:
        """Factor the ADMM x-update system for the current rho.

        The x-update solves M x = rhs with
        M = P + sigma I + rho (rho_eq_scale A'A + I), A = A_eq.
        For the vector P that is D + rho_eq A'A with a diagonal D, and
        only G = A D^-1 A' + I / rho_eq, m_eq x m_eq, is factored
        (Cholesky; see ``_x_update``).  A dense P factors the
        quasi-definite KKT form of M, (n + m_eq)^2, by LU (``_kkt``).
        A Cholesky that fails raises LinAlgError and leaves the solver
        unfactored.
        """
        rho_eq = self._rho * _RHO_EQ_SCALE
        if self._P.ndim == 2:
            kkt = _kkt(self._P, _SIGMA + self._rho, self.problem.A_eq, 1.0 / rho_eq)
            self._factor = scipy.linalg.lu_factor(kkt, check_finite=False)
        else:
            self._split_diag = self._P + _SIGMA + self._rho
            g = self._gram(self._split_diag)
            g[np.diag_indices_from(g)] += 1.0 / rho_eq
            self._factor = scipy.linalg.cho_factor(g, lower=True, check_finite=False)
        self._factored_rho = self._rho

    def _x_update(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve M x = rhs (see ``_refactor``); returns x and A x.

        A dense P solves [[P + (sigma + rho) I, A'], [A, -I / rho_eq]]
        [x; nu] = [rhs; 0], so A x = nu / rho_eq.  The vector P takes
        x = D^-1 (rhs - A' w) with G w = A D^-1 rhs (matrix inversion
        lemma).  Its residual is M x - rhs = A' t, t = rho_eq A x - w,
        up to the rounding of the division, and A x is measured; one
        refinement step against M then adds M^-1 A' t = D^-1 A' s /
        rho_eq with G s = t.  It brings the residual down to that of a
        Cholesky of M, which the lemma alone misses by orders of
        magnitude.  A of the correction is (t - s / rho_eq) / rho_eq by
        the same algebra.
        """
        rho_eq = self._rho * _RHO_EQ_SCALE
        if self._P.ndim == 2:
            n = self.problem.n
            sol = scipy.linalg.lu_solve(
                self._factor, np.concatenate([rhs, np.zeros(self.problem.m_eq)]),
                check_finite=False)
            return sol[:n], sol[n:] / rho_eq
        D = self._split_diag
        w = scipy.linalg.cho_solve(self._factor, self._a_dot(rhs / D), check_finite=False)
        x = (rhs - self._at_dot(w)) / D
        ax = self._a_dot(x)
        t = rho_eq * ax - w
        s = scipy.linalg.cho_solve(self._factor, t, check_finite=False)
        return x - self._at_dot(s) / (rho_eq * D), ax - (t - s / rho_eq) / rho_eq

    # -- public API ------------------------------------------------------

    def update(self, b_eq: np.ndarray) -> None:
        """Replace the right-hand side b_eq; keeps every factorization.

        Checks only b_eq (length, finiteness) and raises ValueError
        without changing the problem if it fails.  The new ``problem``
        shares the ``P``, ``A_eq``, q and bound arrays of the old one;
        they are not re-validated.
        """
        p = self.problem
        b_eq = _finite_vector("b_eq", b_eq, p.m_eq)
        updated = copy.copy(p)
        object.__setattr__(updated, "b_eq", b_eq)
        self.problem = updated

    def solve(
        self,
        warm_start: np.ndarray | None = None,
        warm_start_dual: np.ndarray | None = None,
    ) -> QpSolution:
        """Solve from ``warm_start`` (x) and ``warm_start_dual`` (y_eq, then y_box).

        An omitted start is zero; one of the wrong length or with a
        non-finite entry raises ValueError naming it.
        """
        p, s = self.problem, self.settings
        n, m_eq = p.n, p.m_eq
        m = m_eq + n
        self._factorizations = 0

        x = np.zeros(n) if warm_start is None else _finite_vector("warm_start", warm_start, n)
        y = (np.zeros(m) if warm_start_dual is None
             else _finite_vector("warm_start_dual", warm_start_dual, m))

        def residuals(xv, yv, zv):
            """Residuals, tolerance scales and P x of an ADMM iterate."""
            ax = np.concatenate([p.A_eq @ xv, xv])
            px = _p_matvec(self._P, xv)
            aty = p.A_eq.T @ yv[:m_eq] + yv[m_eq:]
            r_p = np.max(np.abs(ax - zv))
            r_d = np.max(np.abs(px + p.q + aty))
            sc_p = max(np.max(np.abs(ax)), np.max(np.abs(zv)))
            sc_d = max(np.max(np.abs(px)), np.max(np.abs(aty)), np.max(np.abs(p.q)))
            return r_p, r_d, sc_p, sc_d, px

        def finish(status, xv, yv, px, r_p, r_d, iters, polished=False):
            return QpSolution(
                x=xv,
                objective=p.objective(xv, px),
                status=status,
                primal_residual=float(r_p),
                dual_residual=float(r_d),
                iterations=iters,
                y_eq=yv[:m_eq].copy(),
                y_box=yv[m_eq:].copy(),
                polished=polished,
                factorizations=self._factorizations,
            )

        # direct attempt: the active-set KKT solve handles (consistent)
        # rank-deficient behavioral equality rows that stall the splitting
        # iteration, and its kept factorization makes repeated
        # receding-horizon solves cheap.  Its primal test takes the zero
        # point's scales, which need no product with A_eq; its dual test
        # scales by |q| and |P x| at the point it returns.
        last_polish_iter = 0
        sc_p = max(np.max(np.abs(p.b_eq), initial=0.0),
                   np.max(np.abs(np.clip(0.0, p.lower, p.upper)), initial=0.0))
        eps_pri = s.eps_abs + s.eps_rel * sc_p
        pol = self._polish(y)
        if pol is not None:
            xp, yp, pxp, rp_p, rd_p = pol
            sc_d = max(np.max(np.abs(p.q), initial=0.0), np.max(np.abs(pxp), initial=0.0))
            if rp_p <= eps_pri and rd_p <= s.eps_abs + s.eps_rel * sc_d:
                return finish(SOLVED, xp, yp, pxp, rp_p, rd_p, 0, polished=True)

        lo = np.concatenate([p.b_eq, p.lower])
        hi = np.concatenate([p.b_eq, p.upper])
        # the equality rows' bounds coincide, so their z is b_eq whatever A x is
        z = lo.copy()
        z[m_eq:] = np.clip(x, p.lower, p.upper)
        rho = np.empty(m)
        rho[:m_eq] = self._rho * _RHO_EQ_SCALE
        rho[m_eq:] = self._rho
        best = None  # (score, x, y, P x, r_p, r_d) of the best checked iterate
        y_prev_check = y.copy()

        for it in range(1, s.max_iter + 1):
            if self._factored_rho != self._rho:
                try:
                    self._refactor()
                except scipy.linalg.LinAlgError:
                    r_p, r_d, _, _, px = residuals(x, y, z)
                    return finish(UNFACTORED, x, y, px, r_p, r_d, it - 1)
            w = rho * z - y
            rhs = _SIGMA * x - p.q + (self._at_dot(w[:m_eq]) + w[m_eq:])
            x_tilde, ax_tilde = self._x_update(rhs)
            z_tilde = np.concatenate([ax_tilde, x_tilde])
            x = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
            z_relaxed = _ALPHA * z_tilde + (1.0 - _ALPHA) * z
            z_new = np.clip(z_relaxed + y / rho, lo, hi)
            y = y + rho * (z_relaxed - z_new)
            z = z_new

            if it % _CHECK_EVERY != 0 and it != s.max_iter:
                continue

            r_p, r_d, sc_p, sc_d, px = residuals(x, y, z)
            eps_pri = s.eps_abs + s.eps_rel * sc_p
            eps_dua = s.eps_abs + s.eps_rel * sc_d
            score = max(r_p / max(eps_pri, 1e-300), r_d / max(eps_dua, 1e-300))
            if best is None or score < best[0]:
                best = (score, x.copy(), y.copy(), px, r_p, r_d)

            converged = r_p <= eps_pri and r_d <= eps_dua
            # primal proximity alone triggers a polish attempt: with nearly
            # dependent equality rows the ADMM dual can stall while the
            # direct KKT solve still reaches the optimum
            near = r_p <= _POLISH_TRIGGER * eps_pri
            if converged or (near and it - last_polish_iter >= 2 * _CHECK_EVERY):
                last_polish_iter = it
                pol = self._polish(y)
                if pol is not None:
                    xp, yp, pxp, rp_p, rd_p = pol
                    good = rp_p <= eps_pri and rd_p <= eps_dua
                    if good and (not converged or max(rp_p, rd_p) <= max(r_p, r_d)):
                        return finish(SOLVED, xp, yp, pxp, rp_p, rd_p, it, polished=True)
            if converged:
                return finish(SOLVED, x, y, px, r_p, r_d, it)

            if self._primal_infeasible(y - y_prev_check):
                return finish(INFEASIBLE, x, y, px, r_p, r_d, it)
            y_prev_check = y.copy()

            if it != s.max_iter:
                num = r_p / max(sc_p, 1e-12)
                den = r_d / max(sc_d, 1e-12)
                if den > 0 and num > 0:
                    factor = float(np.sqrt(num / den))
                    if factor > 5.0 or factor < 0.2:
                        self._rho = float(np.clip(self._rho * factor, _RHO_MIN, _RHO_MAX))
                        rho[:m_eq] = self._rho * _RHO_EQ_SCALE
                        rho[m_eq:] = self._rho

        # max_iter >= 1 and the last iteration is always checked, so best is set
        _, xb, yb, px, r_p, r_d = best
        return finish(MAX_ITERATIONS, xb, yb, px, r_p, r_d, s.max_iter)

    # -- infeasibility certificate ----------------------------------------

    def _primal_infeasible(self, dy: np.ndarray) -> bool:
        """Primal-infeasibility certificate test on a dual step."""
        p = self.problem
        eps = _EPS_INFEASIBLE
        norm = np.max(np.abs(dy))
        if norm <= eps:
            return False
        v = dy / norm
        at_v = p.A_eq.T @ v[: p.m_eq] + v[p.m_eq :]
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

    def _polish(self, y: np.ndarray):
        """Refine the iterate by solving the active-set KKT system.

        The candidate active set is seeded from the signs of the dual
        ``y``, then adjusted a few rounds: bounds the trial point
        violates are added, actives whose multipliers come out with the
        wrong sign are dropped.  Returns ``(x, y_full, P x, r_primal,
        r_dual)`` only when the final point is a clean KKT point, else
        None.

        A round ends the polish with None when a constraint force,
        max|A_eq' y_eq| or max|y_box|, exceeds 1e7 (1 + max|q| + max|P x|):
        at a KKT point the two sum to -(P x + q), so forces far beyond
        that cancel, the mark of a nearly singular active set.  The guard
        reads neither y_eq, which is not unique along dependent equality
        rows (DKPC's reach 1e9 at a clean point), nor ``y``, which only
        seeds the active set, so cold and warm solves are judged alike.
        """
        p = self.problem
        m_eq = p.m_eq
        y_box = y[m_eq:]
        pinned = p.lower == p.upper
        low_act = (y_box < 0.0) & ~pinned & np.isfinite(p.lower)
        up_act = (y_box > 0.0) & ~pinned & np.isfinite(p.upper)

        for _ in range(8):
            result = self._polish_once(pinned, low_act, up_act)
            if result is None:
                return None
            x, y_full, _, r_p, r_d = result
            mu = y_full[m_eq:]
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
        """One active-set KKT solve.

        The active variables x_K sit at their bounds; the free ones and
        the equality multipliers nu solve the regularized KKT system of
        the free columns and the equality rows.  The regularization is
        tiny, so ill-conditioned behavioral rows hold almost exactly: the
        vector P solves the system by ``_schur_solve``, with delta taken
        relative to the cost scale mean(P) so that it does not depend on
        the units of P and q, and a dense P by ``_lu_solve``, with an
        absolute delta that its refinement removes.  The factor of the
        last factored active set is kept; any other set is factored anew
        and replaces it, each such factorization counted in
        ``QpSolution.factorizations``.  Both read mu_K off the
        stationarity rows.  Returns None for a failed factorization, a
        non-finite point or forces that trip the guard of ``_polish``.
        """
        p = self.problem
        n, m_eq = p.n, p.m_eq
        act = pinned | low_act | up_act
        key = np.packbits(np.concatenate([act, up_act]).astype(np.uint8)).tobytes()

        if key != self._polish_key:
            self._factorizations += 1
            act_idx = np.flatnonzero(act)
            r3 = np.where(up_act[act_idx], p.upper[act_idx], p.lower[act_idx])
            try:
                if self._schur_gram is not None:
                    factor = self._schur_factor(act_idx)
                else:
                    free = np.flatnonzero(~act)
                    kkt = _kkt(self._P[np.ix_(free, free)], _POLISH_DELTA, p.A_eq[:, free],
                               _POLISH_DELTA)
                    factor = scipy.linalg.lu_factor(kkt, check_finite=False)
            except (scipy.linalg.LinAlgError, ValueError):
                return None
            ax0 = None  # A x0 of ``_schur_solve``; the LU path does not read it
            if self._schur_gram is not None:
                x0 = -p.q / self._schur_diag
                x0[act_idx] = r3
                ax0 = self._a_dot(x0)
            self._polish_key, self._polish_entry = key, (factor, act_idx, r3, ax0)
        act_idx = self._polish_entry[1]

        lo, hi = p.lower, p.upper
        solve_kkt = self._schur_solve if self._schur_gram is not None else self._lu_solve
        x, nu, at_y_eq = solve_kkt(self._polish_entry, -p.q, p.b_eq)
        px = _p_matvec(self._P, x)

        y_full = np.zeros(m_eq + n)
        y_full[:m_eq] = nu
        y_box = y_full[m_eq:]
        y_box[act_idx] = -(p.q + px + at_y_eq)[act_idx]
        viol = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        r_p = float(np.max(viol, initial=0.0))
        r_p = max(r_p, float(np.max(np.abs(self._a_dot(x) - p.b_eq), initial=0.0)))
        r_d = float(np.max(np.abs(px + p.q + (at_y_eq + y_box))))
        # a non-finite x makes r_p, and a non-finite y r_d, non-finite
        if not (np.isfinite(r_p) and np.isfinite(r_d)):
            return None
        # forces far beyond -(P x + q), their KKT sum, cancel (see ``_polish``)
        force = max(np.max(np.abs(at_y_eq), initial=0.0), np.max(np.abs(y_box), initial=0.0))
        scale = 1.0 + np.max(np.abs(p.q), initial=0.0) + np.max(np.abs(px), initial=0.0)
        if force > 1e7 * scale:
            return None
        return x, y_full, px, r_p, r_d

    def _lu_solve(self, entry, r1, r2):
        """Solve for x_F and nu by LU, x_K = r3; returns ``(x, nu, A' nu)``.

        ``entry`` is the kept polish tuple ``(LU factor, K, r3, None)``.  The
        regularization moves A x off its target by delta nu.  With a
        singular P and dependent equality rows (DKPC with lambda_g = 0)
        nu reaches 1e8 and that shift fails the primal tolerance.  Each
        step solves the regularized system for the unregularized
        residual, and a refinement step is kept while it lowers it.
        """
        lu, act_idx, r3, _ = entry
        free = np.ones(self.problem.n, dtype=bool)
        free[act_idx] = False
        n_f = self.problem.n - act_idx.size
        x = np.zeros(self.problem.n)
        x[act_idx] = r3

        def residual(sol):  # writes x_F = sol[:n_f] into x
            x[free] = sol[:n_f]
            stat = r1 - self._P @ x - self._at_dot(sol[n_f:])
            return np.concatenate([stat[free], r2 - self._a_dot(x)])

        sol = scipy.linalg.lu_solve(lu, residual(np.zeros(n_f + self.problem.m_eq)),
                                    check_finite=False)
        res = residual(sol)
        for _ in range(_POLISH_REFINE_STEPS):
            step = sol + scipy.linalg.lu_solve(lu, res, check_finite=False)
            res_step = residual(step)
            # a NaN residual compares False and ends the refinement
            if not np.max(np.abs(res_step), initial=0.0) < np.max(np.abs(res), initial=0.0):
                break
            sol, res = step, res_step
        x[free] = sol[:n_f]
        return x, sol[n_f:], self._at_dot(sol[n_f:])

    def _schur_split(self, p: QpProblem) -> None:
        """Split S_0 = A D^-1 A' + delta' I at row s and factor its leading block.

        Records each unit column's downdate (a / D) a, its one nonzero a
        read at the row the layout gives.  s is the first
        row that a unit column with a finite bound touches: the first
        ``u_f`` row of both controllers, 0 if there is none.  The bounds
        are fixed for the solver's life, so every active set of unit
        columns changes S_0 only in diagonal entries at or below s, and
        with G = A D^-1 A' split there, L11 = chol(G11 + delta' I),
        L21 = G21 L11^-T and C0 = G22 - L21 L21' are formed once, in the
        natural row order; ``_schur_factor`` then factors only the
        trailing block.  delta' = delta / mean(P) (``__init__``).  If
        rounding leaves G11 + delta' I indefinite (data whose first
        samples are 1e4 times the rest), s falls back to 0.
        """
        cols = np.flatnonzero(self._unit_row >= 0)
        rows = self._unit_row[cols]
        lead = cols < self._n_lead  # the trailing run is the rest
        a = np.concatenate([p.A_eq[rows[lead], cols[lead]], self._tail])
        self._unit_down = np.zeros(p.n)
        self._unit_down[cols] = (a / self._schur_diag[cols]) * a
        bounded = np.isfinite(p.lower[cols]) | np.isfinite(p.upper[cols])
        s = self._split = int(rows[bounded].min()) if bounded.any() else 0
        gram = self._schur_gram
        if s == 0:
            self._trail = gram
            return
        l11 = gram[:s, :s].copy()
        l11[np.diag_indices(s)] += self._schur_delta
        try:
            l11 = scipy.linalg.cho_factor(l11, lower=True, overwrite_a=True, check_finite=False)[0]
        except scipy.linalg.LinAlgError:
            # rounding left the leading block indefinite: every active set
            # is factored in full, and a failed factor fails its polish only
            self._split, self._trail = 0, gram
            return
        l21t = scipy.linalg.solve_triangular(l11, gram[s:, :s].T, lower=True, check_finite=False)
        self._lead = (l11, l21t)
        self._trail = gram[s:, s:] - l21t.T @ l21t  # one triangle (syrk)

    def _schur_factor(self, act_idx: np.ndarray):
        """Factor S_K = A_F D_F^-1 A_F' + delta' I; returns ``(split, Cholesky factor)``.

        S_K is S_0 downdated by the |K| active columns, with D = P +
        delta mean(P) and delta' = delta / mean(P).  When each active
        column is a unit column (one nonzero a), no two in one row and
        none above the split row s (the u_f bounds of both controllers),
        the downdate lowers only diagonal entries of the trailing block:
        S_K = L L' with the once-formed L11, L21 and
        L22 = chol(C0 - diag((a / D) a) + delta' I), an (m_eq - s)^2
        factor; rows and downdates are looked up in the layout and the
        table of ``_schur_split``.  Every active column
        carries a bound fixed at construction, so a unit column of K
        never lies above s; any other set (dense or shared-row columns)
        keeps the gather-and-GEMM downdate of G and a full Cholesky,
        split 0.  For s = 0 the diagonal path gives that GEMM's S_K bit
        for bit.
        """
        split = self._split
        rows = self._unit_row[act_idx]  # -1 for a column that is not a unit column
        if np.all(rows >= split) and np.count_nonzero(np.bincount(rows)) == rows.size:
            S = self._trail.copy()
            S[rows - split, rows - split] -= self._unit_down[act_idx]
        else:
            split = 0
            a_act = self.problem.A_eq[:, act_idx]
            S = self._schur_gram - (a_act / self._schur_diag[act_idx]) @ a_act.T
        S[np.diag_indices_from(S)] += self._schur_delta
        return split, scipy.linalg.cho_factor(S, lower=True, overwrite_a=True, check_finite=False)

    def _schur_solve(self, entry, r1, r2):
        """Solve the Schur path's KKT system by elimination; returns ``(x, nu, A' nu)``.

        The active variables sit at their bounds (x_K = r3), the free
        ones are x_F = D_F^-1 (r1_F - A_F' nu), and nu solves
        S_K nu = A x0 - r2 with x0 = D^-1 r1 and x0_K = r3.
        ``entry`` is the kept polish tuple ``((split, factor), K, r3, A x0)``;
        A x0 reads only q, the fixed bounds and K, so ``_polish_once``
        forms it once, when it factors K.
        With a split s > 0, S_K nu = b is solved by block substitution:
        z1 = L11^-1 b1, nu2 = L22^-T L22^-1 (b2 - L21 z1) and
        nu1 = L11^-T (z1 - L21' nu2).
        """
        (split, cho), act_idx, r3, ax0 = entry
        rhs = ax0 - r2
        if split:
            l11, l21t = self._lead  # BLAS trsv: solve_triangular's checks cost more here
            z1 = scipy.linalg.blas.dtrsv(l11, rhs[:split], lower=1)
            nu2 = scipy.linalg.cho_solve(cho, rhs[split:] - l21t.T @ z1, check_finite=False)
            nu = np.concatenate([scipy.linalg.blas.dtrsv(l11, z1 - l21t @ nu2, trans=1, lower=1),
                                 nu2])
        else:
            nu = scipy.linalg.cho_solve(cho, rhs, check_finite=False)
        at_nu = self._at_dot(nu)
        x = (r1 - at_nu) / self._schur_diag
        x[act_idx] = r3
        return x, nu, at_nu


def _kkt(P: np.ndarray, shift, A: np.ndarray, reg: float) -> np.ndarray:
    """The quasi-definite matrix [[P + diag(shift), A'], [A, -reg I]] that LU factors."""
    n, m = P.shape[0], A.shape[0]
    kkt = np.block([[P, A.T], [A, np.zeros((m, m))]])
    kkt[range(n), range(n)] += shift
    kkt[range(n, n + m), range(n, n + m)] = -reg
    return kkt


def solve(
    problem: QpProblem,
    settings: QpSettings | None = None,
    warm_start: np.ndarray | None = None,
) -> QpSolution:
    """One-shot solve; builds a solver instance and discards it."""
    return QpSolver(problem, settings).solve(warm_start=warm_start)
