"""Hankel-matrix trajectory algebra for behavioral predictive control.

Provides the data trajectory container, depth-L block Hankel
construction, persistency-of-excitation rank checks, a least-squares
oracle for trajectory membership on known LTI systems, and assembly of
the stacked lifted/input/output Hankel system used by the controllers.

The persistency check first tries to certify full row rank from one
Cholesky of the shifted rows x rows Gram matrix, formed by lag sums of
the samples without building the Hankel; data the certificate cannot
clear is decided by the full SVD of the Hankel, as before.

A Hankel system forms, on first use and once for every controller
built on it, the Gram of its stacked rows and the controllers'
equality rows.  The Gram comes from lag sums that never subtract a
term (``_lag_sums``), so each entry has the rounding of a product of
the rows however large some samples are; the PE check's deep Hankel
keeps its own cheaper recurrence (``_lag_gram``), whose rounding bound
covers the terms it subtracts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from ._csvio import read_csv, write_csv
from .qpsolve import EqualityRows

# which computation decided a PeReport
PE_LENGTH = "length"  # too few Hankel columns for the required rank
PE_CHOLESKY = "gram-cholesky"  # full row rank certified by a shifted Gram Cholesky
PE_SVD = "svd"  # rank counted from the singular values
# factor by which the certificate's Gram shift exceeds its rounding bound
_PE_SAFETY = 16.0


@dataclass(frozen=True)
class Trajectory:
    """Aligned input/output record of a simulation run.

    ``u[k]`` is the input applied at step k and ``y[k]`` the output
    measured at step k (before the input acts).
    """

    u: np.ndarray  # (T, n_u)
    y: np.ndarray  # (T, n_y)
    dt: float = 1.0

    def __post_init__(self) -> None:
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if u.ndim != 2 or y.ndim != 2:
            raise ValueError("u and y must be (T, d) arrays")
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} steps but y has {y.shape[0]}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def length(self) -> int:
        return self.u.shape[0]

    @property
    def n_u(self) -> int:
        return self.u.shape[1]

    @property
    def n_y(self) -> int:
        return self.y.shape[1]


def hankel(seq: np.ndarray, depth: int) -> np.ndarray:
    """Block Hankel matrix of a vector sequence.

    Column j stacks ``seq[j], ..., seq[j+depth-1]``; rows are
    sample-major (all channels of the first step, then the second).
    Shape is ``(d * depth, T - depth + 1)`` for d-dimensional samples.
    """
    seq = np.asarray(seq, dtype=float)
    if seq.ndim == 1:
        seq = seq[:, None]
    t_len, d = seq.shape
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > t_len:
        raise ValueError(f"depth {depth} exceeds sequence length {t_len}")
    # windows[j, c, k] = seq[j + k, c] -> rows ordered step-major
    windows = np.lib.stride_tricks.sliding_window_view(seq, depth, axis=0)
    return windows.transpose(2, 1, 0).reshape(depth * d, t_len - depth + 1).copy()


@dataclass(frozen=True)
class PeReport:
    """Outcome of a persistency-of-excitation rank check.

    ``decided_by`` names the computation that decided it: ``PE_LENGTH``
    (too few Hankel columns), ``PE_CHOLESKY`` (the Gram certificate) or
    ``PE_SVD`` (the singular values).
    """

    is_pe: bool
    order: int
    rank: int
    required_rank: int
    n_cols: int
    reason: str = ""
    decided_by: str = PE_SVD

    def __bool__(self) -> bool:
        return self.is_pe


def _lag_gram(u: np.ndarray, order: int) -> np.ndarray:
    """Upper block triangle of G = H H^T, H = hankel(u, order), by lag sums.

    ``u`` is a C-ordered (T, n_u) array.  Block (i, j) of G is
    sum_k u[k+i] u[k+j]^T over the n = T - order + 1 Hankel columns.  The
    first block row is one product of the first n samples with the
    n-sample windows at every lag; down each block diagonal, block
    (i, j) is then block (i-1, j-1) plus the tail pair u[n-1+i] u[n-1+j]^T
    minus the head pair u[i-1] u[j-1]^T.  H is never formed, and blocks
    below the diagonal stay zero.
    """
    t_len, n_u = u.shape
    n = t_len - order + 1
    rows = n_u * order
    g = np.zeros((rows, rows))
    lagged = np.lib.stride_tricks.sliding_window_view(u, n, axis=0).transpose(0, 2, 1)
    # lagged[j] = u[j : j + n]; one (n_u x n) by (n x n_u) product per lag
    g[:n_u] = np.matmul(u[:n].T, lagged).transpose(1, 0, 2).reshape(n_u, rows)
    # block k of ends[0] is the tail sample u[n-1+k], of ends[1] the head sample u[k-1]
    ends = np.zeros((2, rows))
    ends[0] = u[n - 1 :].ravel()
    ends[1, n_u:] = u[: order - 1].ravel()
    signed = np.stack([ends[0].reshape(order, n_u), -ends[1].reshape(order, n_u)], axis=2)
    work = np.empty((n_u, rows))
    for i in range(1, order):
        lo = i * n_u
        # tail pair minus head pair of every block in row i, as one rank-2 product
        pairs = np.matmul(signed[i], ends[:, lo:], out=work[:, : rows - lo])
        np.add(g[lo - n_u : lo, lo - n_u : rows - n_u], pairs, out=g[lo : lo + n_u, lo:])
    return g


def _gram_certificate(u: np.ndarray, order: int, c: float) -> bool:
    """Whether a Cholesky proves sigma_min(H) > c * sigma_1(H), so rank(H) = rows.

    H is the r x n input Hankel of depth L = ``order`` (r <= n), G its
    lag-sum Gram (``_lag_gram``), t = trace(G) and mu = (c^2 + delta) * t.
    A floating-point Cholesky of fl(G - mu I) that runs to completion
    proves lambda_min(H H^T) > c^2 * t, and t >= lambda_max(H H^T) =
    sigma_1^2, so every singular value of H exceeds c * sigma_1: rank r.
    The rounding it must cover, with unit roundoff u = eps/2 and
    gamma_k = k u / (1 - k u):

    - the Gram.  Entry (i, j) of G, block row i, sums N <= n + 2L
      products: n in the first block row's product, then one tail and one
      head pair per step down its block diagonal.  So
      |G - H H^T| <= gamma_N (|H||H|^T + 2 |P||P|^T), where P is the
      zero-padded Hankel of the head samples u[0..L-2], each counted once
      in the first row and once as subtracted.  ||H||_F^2 = t, and
      ||P||_2 <= sum_k ||u[k]||, whose square is at most
      (1 + ln L) sum_k (k + 1) ||u[k]||^2 <= (1 + ln L) t (Cauchy-Schwarz;
      head sample k sits in k + 1 columns of H).  Hence
      ||G - H H^T||_2 <= gamma_N (3 + 2 ln L) t;
    - the shift of the diagonal, <= u t;
    - the Cholesky: on completion fl(G - mu I) + E = R^T R with R
      nonsingular and ||E||_2 <= gamma_{r+1} t (Rump, "Verification of
      positive definiteness", BIT 46, 2006), so lambda_min(G - mu I) > -gamma_{r+1} t.

    Together lambda_min(H H^T) > mu - b u t (1 + O(r u)) with
    b = (n + 2L)(3 + 2 ln L) + r + 2, so delta = 16 b eps, 32 times that
    bound, covers it.  The certified gap, sigma_min - c sigma_1 >=
    (delta - bound) sigma_1 / 2, is then some 15 b eps sigma_1, far beyond
    the SVD's own rounding of sigma_min (a modest multiple of eps sigma_1),
    so both computations decide alike.  A larger delta only sends more
    borderline data to the SVD.  Products below the normal range add up
    to (r + n + 2L) tiny per entry; t >= (r + n + 2L)^2 tiny / eps keeps
    that under eps t.  Any other case returns False: t non-finite or
    below that floor (zero data included), (c^2 + delta) r >= 1 (where
    lambda_min <= t / r <= mu for every matrix) or a failed Cholesky.
    The one r x r array, G, is shifted and factored in place.
    """
    t_len, n_u = u.shape
    rows, cols = n_u * order, t_len - order + 1
    eps = np.finfo(float).eps
    bound = (cols + 2 * order) * (3.0 + 2.0 * np.log(order)) + rows + 2
    shift = c * c + _PE_SAFETY * bound * eps
    if shift * rows >= 1.0:
        return False
    g = _lag_gram(u, order)
    t = float(np.trace(g))
    if not (np.isfinite(t) and t >= (rows + cols + 2 * order) ** 2 * np.finfo(float).tiny / eps):
        return False
    g.flat[:: rows + 1] -= shift * t
    # the Fortran-ordered transpose's lower triangle is G's filled upper one
    _, info = lapack.dpotrf(g.T, lower=1, clean=0, overwrite_a=1)
    return info == 0


def pe_order(n_basis: int, t_ini: int, horizon: int) -> int:
    """Order of the persistency check of a lifted behavioral model: n_basis + t_ini + horizon.

    The Hankel depth L = t_ini + horizon plus the lifted state's
    dimension, which stands in for the plant order n of Willems' lemma
    (inputs persistently exciting of order L + n).
    """
    return n_basis + t_ini + horizon


def is_persistently_exciting(u: np.ndarray, order: int, rtol: float | None = None) -> PeReport:
    """Check full row rank of the depth-``order`` input Hankel matrix.

    Rank is counted from singular values against the threshold
    ``sigma_max * max(rows, cols) * eps`` (eps is the machine epsilon),
    or ``sigma_max * rtol`` when ``rtol`` is given.  Full rank is first
    sought as a certificate from one Cholesky of the shifted Gram matrix
    (see ``_gram_certificate``), which costs lag sums of the samples (a
    tail pair added and a head pair subtracted per block) instead of a
    product over every Hankel column, and never forms the Hankel; the
    SVD decides whenever the certificate cannot, so both give the same
    report.  A non-finite sample raises a ValueError naming its step.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    u = np.ascontiguousarray(u)
    if order < 1:
        raise ValueError("order must be >= 1")
    bad = ~np.all(np.isfinite(u), axis=1)
    if np.any(bad):
        raise ValueError(f"non-finite input at step {int(np.argmax(bad))}")
    t_len, n_u = u.shape
    required = n_u * order
    n_cols = t_len - order + 1
    if n_cols < required:
        return PeReport(
            is_pe=False,
            order=order,
            rank=0,
            required_rank=required,
            n_cols=max(n_cols, 0),
            reason=(
                f"sequence too short: {n_cols} Hankel columns cannot reach "
                f"row rank {required}"
            ),
            decided_by=PE_LENGTH,
        )
    eps = np.finfo(float).eps
    if _gram_certificate(u, order, max(required, n_cols) * eps if rtol is None else rtol):
        rank, decided_by = required, PE_CHOLESKY
    else:
        h = hankel(u, order)
        sv = np.linalg.svd(h, compute_uv=False)
        threshold = sv[0] * max(h.shape) * eps if rtol is None else sv[0] * rtol
        rank, decided_by = int(np.count_nonzero(sv > threshold)), PE_SVD
    ok = rank == required
    return PeReport(
        is_pe=ok,
        order=order,
        rank=rank,
        required_rank=required,
        n_cols=n_cols,
        reason="" if ok else f"numerical rank {rank} < {required}",
        decided_by=decided_by,
    )


@dataclass(frozen=True)
class LtiSystem:
    """Minimal discrete-time LTI simulator, x' = Ax + Bu, y = Cx.

    Serves as the known reference system for trajectory-membership
    checks and for exactness tests of the behavioral controllers.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
            raise ValueError("B/C dimensions inconsistent with A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_u(self) -> int:
        return self.b.shape[1]

    @property
    def n_y(self) -> int:
        return self.c.shape[0]

    def simulate(self, u: np.ndarray, x0: np.ndarray | None = None, dt: float = 1.0) -> Trajectory:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.n_u:
            raise ValueError(f"expected {self.n_u} input channels, got {u.shape[1]}")
        x = np.zeros(self.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()
        ys = np.empty((u.shape[0], self.n_y))
        for k in range(u.shape[0]):
            ys[k] = self.c @ x
            x = self.a @ x + self.b @ u[k]
        return Trajectory(u=u, y=ys, dt=dt)


def random_stable_lti(
    rng: np.random.Generator,
    n_states: int,
    n_u: int,
    n_y: int,
    spectral_radius: float = 0.85,
) -> LtiSystem:
    """Draw a random LTI system scaled to the given spectral radius."""
    a = rng.standard_normal((n_states, n_states))
    radius = max(abs(np.linalg.eigvals(a)))
    a *= spectral_radius / radius
    b = rng.standard_normal((n_states, n_u))
    c = rng.standard_normal((n_y, n_states))
    return LtiSystem(a=a, b=b, c=c)


def verify_fundamental_lemma(
    sys: LtiSystem,
    t_len: int,
    depth: int,
    seed: int = 0,
    query: Trajectory | None = None,
) -> float:
    """Least-squares membership residual of a fresh window in the data span.

    Generates a length-``t_len`` data trajectory of ``sys`` under seeded
    random inputs, plus a fresh length-``depth`` query trajectory from a
    random initial state (unless ``query`` is supplied), then solves

        min_g || [H_L(u_d); H_L(y_d)] g - [u; y] ||_2

    and returns the residual norm.  For exact data from a controllable
    LTI system with persistently exciting inputs the residual vanishes.
    """
    rng = np.random.default_rng(seed)
    u_d = rng.uniform(-1.0, 1.0, size=(t_len, sys.n_u))
    data = sys.simulate(u_d, x0=rng.standard_normal(sys.n_states))
    pe = is_persistently_exciting(data.u, depth + sys.n_states)
    if not pe:
        raise ValueError(f"data not persistently exciting: {pe.reason}")
    if query is None:
        u_new = rng.uniform(-1.0, 1.0, size=(depth, sys.n_u))
        query = sys.simulate(u_new, x0=rng.standard_normal(sys.n_states))
    if query.length != depth:
        raise ValueError(f"query trajectory must have length {depth}")
    stacked = np.vstack([hankel(data.u, depth), hankel(data.y, depth)])
    target = np.concatenate([query.u.ravel(), query.y.ravel()])
    g, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return float(np.linalg.norm(stacked @ g - target))


@dataclass(frozen=True)
class HankelSystem:
    """Stacked depth-L Hankel blocks defining the behavioral constraint.

    Row partitions: the first ``T_ini`` block-rows of the input and
    output blocks are the past window, the last ``N`` block-rows the
    future window.  The lifted block holds only the ``T_ini`` past
    block-rows, the only ones a controller matches.  ``pe_report`` is the
    persistency check of the input data (``assemble``).  ``gram`` and
    ``equality_rows`` form the Gram of the stacked rows and the
    controllers' equality rows once and keep them for every controller
    built on the system.
    """

    z: np.ndarray  # (n_basis * T_ini, n_cols)
    u: np.ndarray  # (n_u * L, n_cols)
    y: np.ndarray  # (n_y * L, n_cols)
    t_ini: int
    horizon: int
    n_u: int
    n_y: int
    n_basis: int
    pe_report: PeReport = field(compare=False)
    _equality_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.t_ini < 1 or self.horizon < 1:
            raise ValueError("t_ini and horizon must be >= 1")
        depth = self.depth
        expect = {
            "z": (self.n_basis * self.t_ini, self.n_cols),
            "u": (self.n_u * depth, self.n_cols),
            "y": (self.n_y * depth, self.n_cols),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} block has shape {got}, expected {shape}")

    @property
    def depth(self) -> int:
        return self.t_ini + self.horizon

    @property
    def n_cols(self) -> int:
        return self.u.shape[1]

    @property
    def u_past(self) -> np.ndarray:
        return self.u[: self.n_u * self.t_ini]

    @property
    def u_future(self) -> np.ndarray:
        return self.u[self.n_u * self.t_ini :]

    @property
    def y_past(self) -> np.ndarray:
        return self.y[: self.n_y * self.t_ini]

    @property
    def y_future(self) -> np.ndarray:
        return self.y[self.n_y * self.t_ini :]

    def rows(self, lifted: bool = True) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The past row blocks [Up, Yp], then Z if ``lifted``, and the future ones [Uf, Yf].

        Every Gram (``gram``) and the controllers' ``A_eq`` stack the rows
        in this order.
        """
        past = [self.u_past, self.y_past, self.z] if lifted else [self.u_past, self.y_past]
        return past, [self.u_future, self.y_future]

    def equality_rows(self, lifted: bool = True, soft: bool = True) -> EqualityRows:
        """The controllers' equality rows over x = (g, u_f, y_f, sigma), formed once and kept.

        A_eq = [Sp, 0, 0, -E; Uf, -I, 0, 0; Yf, 0, -I, 0], with the past
        rows Sp and the future rows of ``rows(lifted)``: Sp g - E sigma
        matches the past window, Uf g = u_f and Yf g = y_f.  With ``soft``
        sigma has one entry per past row after Up, and E places them on
        those rows; without, sigma is empty and the rows are hard.  Each
        row set is built on its first call, read-only (``EqualityRows``),
        and shared by every controller built on the system.
        """
        key = (lifted, soft)
        if key not in self._equality_rows:
            past, future = self.rows(lifted)
            n_past, n_cols = sum(len(block) for block in past), self.n_cols
            n_soft = n_past - self.n_u * self.t_ini if soft else 0
            n_uf, n_yf = len(self.u_future), len(self.y_future)
            a_eq = np.zeros((n_past + n_uf + n_yf, n_cols + n_uf + n_yf + n_soft))
            row = 0
            for block in [*past, *future]:
                a_eq[row : row + len(block), :n_cols] = block
                row += len(block)
            a_eq[n_past - n_soft : n_past, n_cols + n_uf + n_yf :] = -np.eye(n_soft)
            a_eq[n_past:, n_cols : n_cols + n_uf + n_yf] = -np.eye(n_uf + n_yf)
            # the rows of the unit columns u_f, y_f and sigma
            tail_rows = np.r_[n_past : len(a_eq), n_past - n_soft : n_past]
            self._equality_rows[key] = EqualityRows(a_eq, tail_rows)
        return self._equality_rows[key]

    @cached_property
    def _plain_gram(self) -> np.ndarray:
        return _plain_gram(self)

    @cached_property
    def _lifted_gram(self) -> np.ndarray:
        return _lifted_gram(self, self._plain_gram)

    def gram(self, lifted: bool = True) -> np.ndarray:
        """Gram S S' of the stacked rows S = [Up; Yp; Z; Uf; Yf], without Z unless ``lifted``.

        Each is formed on its first call, by lag sums of the samples
        (``_lag_sums``), and kept, read-only (rows^2 floats).  The rows
        without Z come first: the lifted Gram adds only the Z rows' sums
        to that one, an exact copy, so neither result depends on which
        row set was asked for first.
        """
        return self._lifted_gram if lifted else self._plain_gram


def _samples(h: np.ndarray, c: int) -> np.ndarray:
    """The n + L - 1 samples (C-ordered rows) of a depth-L block Hankel ``h`` of c channels."""
    return np.concatenate([h[:c].T, h[c:, -1].reshape(-1, c)])


def _lag_sums(a: np.ndarray, la: int, b: np.ndarray, lb: int, n: int, out: np.ndarray,
              first_lag: int = 0) -> None:
    """Write blocks (i, j) of A B' with j - i >= ``first_lag`` into ``out``, by lag sums.

    A and B are the depth-la and depth-lb block Hankel matrices of n
    columns over the samples ``a`` (ca channels) and ``b`` (cb channels),
    C-ordered.  Block (i, j) of A B' is sum_{k<n} a[k+i] b[k+j]', the sum
    over m = k + i in [i, i + n) of a[m] b[m+d]' with lag d = j - i.
    Every block row shares the interior m in [s, n), s = min(la - 1, n):
    one product of those samples per lag, all lags in one batched
    product.  Each block then adds its s terms outside it, the Hankel
    columns k < s - i and k >= n - i, as one product per block row.  No
    term is subtracted, so an entry has the rounding of a sum of its n
    terms, as in the product A B', however large some samples are; a
    recurrence that adds tail terms and subtracts head terms down each
    block diagonal (``_lag_gram``) does not.  A and B are never formed.
    """
    ca, cb = a.shape[1], b.shape[1]
    s = min(la - 1, n)
    lagged = np.lib.stride_tricks.sliding_window_view(b[s:], n - s, axis=0)[:lb]
    # lag d in columns d cb to (d + 1) cb
    interior = np.matmul(a[s:n].T, lagged.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(ca, -1)
    t, row = np.arange(s), np.arange(la)[:, None]
    edge = np.where(t < s - row, t, t + n - s)  # the Hankel columns outside block row i's interior
    b_cols = np.lib.stride_tricks.sliding_window_view(b.ravel(), lb * cb)[::cb]  # column k of B
    edges = np.matmul(a[edge + row].transpose(0, 2, 1), b_cols[edge])
    for i in range(min(la, lb - first_lag)):
        j = i + first_lag
        np.add(interior[:, first_lag * cb : (lb - i) * cb], edges[i, :, j * cb :],
               out=out[i * ca : (i + 1) * ca, j * cb :])


def _symmetric_lag_sums(a: np.ndarray, depth: int, n: int) -> np.ndarray:
    """A A' of the depth-L block Hankel of the samples ``a`` (``_lag_sums``), exactly symmetric."""
    g = np.empty((a.shape[1] * depth,) * 2)
    _lag_sums(a, depth, a, depth, n, g)
    g = np.triu(g)  # the upper block triangle holds the upper triangle
    g += np.triu(g, 1).T
    return g


def _plain_samples(hs: HankelSystem) -> tuple[np.ndarray, np.ndarray]:
    """Samples w[k] = (u[k], y[k]) and, for each row of the rows without Z, its row of W.

    W is the depth-L Hankel of w, with sample-major rows; the second
    array lists, in the order of ``hs.rows(lifted=False)``, the W row of
    each [Up; Yp; Uf; Yf] row.
    """
    w = np.hstack([_samples(hs.u, hs.n_u), _samples(hs.y, hs.n_y)])
    pos = np.arange(w.shape[1] * hs.depth).reshape(hs.depth, -1)
    t, n_u = hs.t_ini, hs.n_u
    return w, np.concatenate([pos[:t, :n_u], pos[:t, n_u:], pos[t:, :n_u], pos[t:, n_u:]],
                             axis=None)


def _plain_gram(hs: HankelSystem) -> np.ndarray:
    """G = S S' of ``hs``'s rows without Z, S = [Up; Yp; Uf; Yf], by lag sums of (u, y)."""
    w, order = _plain_samples(hs)
    g = _symmetric_lag_sums(w, hs.depth, hs.n_cols)[np.ix_(order, order)]
    g.flags.writeable = False
    return g


def _lifted_gram(hs: HankelSystem, plain: np.ndarray) -> np.ndarray:
    """G of [Up; Yp; Z; Uf; Yf]: ``plain``, the Gram without Z, with the Z rows' lag sums added."""
    w, order = _plain_samples(hs)
    z = _samples(hs.z, hs.n_basis)
    n, depth, t_ini = hs.n_cols, hs.depth, hs.t_ini
    zw = np.empty((len(hs.z), len(order)))
    _lag_sums(z, t_ini, w, depth, n, zw)  # Z block i, W block j >= i
    _lag_sums(w, depth, z, t_ini, n, zw.T, first_lag=1)  # the rest, as W Z' blocks
    cross = zw[:, order]
    p = sum(len(block) for block in hs.rows(lifted=False)[0])  # Z follows these past rows
    g = np.block([
        [plain[:p, :p], cross[:, :p].T, plain[:p, p:]],
        [cross[:, :p], _symmetric_lag_sums(z, t_ini, n), cross[:, p:]],
        [plain[p:, :p], cross[:, p:].T, plain[p:, p:]],
    ])
    g.flags.writeable = False
    return g


def assemble(data: Trajectory, bank, t_ini: int, horizon: int) -> HankelSystem:
    """Build the stacked lifted/input/output Hankel system from data.

    The persistency check of order ``pe_order`` always runs and its
    report is kept on the system.  It is advisory here (warning only);
    controller construction treats a failed report as an error.
    """
    depth = t_ini + horizon
    if data.length < depth:
        raise ValueError(
            f"trajectory length {data.length} shorter than Hankel depth {depth}"
        )
    lifted = bank.lift_trajectory(data.y)
    report = is_persistently_exciting(data.u, pe_order(bank.n_basis, t_ini, horizon))
    if not report:
        warnings.warn(
            f"input data not persistently exciting of order {report.order}: "
            f"{report.reason}",
            stacklevel=2,
        )
    return HankelSystem(
        z=hankel(lifted[: data.length - horizon], t_ini),
        u=hankel(data.u, depth),
        y=hankel(data.y, depth),
        t_ini=t_ini,
        horizon=horizon,
        n_u=data.n_u,
        n_y=data.n_y,
        n_basis=bank.n_basis,
        pe_report=report,
    )


def trajectory_to_csv(traj: Trajectory, path: str | Path, comment: str | None = None) -> None:
    """Write a trajectory as CSV with header ``k,t,u_1..u_n,y_1..y_n``."""
    header = (
        ["k", "t"]
        + [f"u_{i + 1}" for i in range(traj.n_u)]
        + [f"y_{i + 1}" for i in range(traj.n_y)]
    )
    rows = ([k, k * traj.dt, *row] for k, row in enumerate(np.hstack([traj.u, traj.y]).tolist()))
    write_csv(path, header, rows, comment)


def trajectory_from_csv(path: str | Path) -> Trajectory:
    """Read a ``trajectory_to_csv`` file; dt is the spacing of its first two times."""
    header, rows = read_csv(path)
    n_u = sum(1 for name in header if name.startswith("u_"))
    n_y = sum(1 for name in header if name.startswith("y_"))
    if not rows:
        raise ValueError(f"no trajectory rows in {path}")
    times = [float(row[1]) for row in rows]
    us = [[float(v) for v in row[2 : 2 + n_u]] for row in rows]
    ys = [[float(v) for v in row[2 + n_u : 2 + n_u + n_y]] for row in rows]
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return Trajectory(u=np.asarray(us), y=np.asarray(ys), dt=dt)
