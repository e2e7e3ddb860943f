"""Quantitative evaluation of closed-loop runs.

Tracking error is the integrated time-weighted absolute error, control
effort the summed input norm; a min-max-normalized mixed index and a
non-dominated frontier compare tunings and controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._csvio import cell, read_csv, write_csv

DKPC = "DKPC"
DEEPC = "DeePC"


@dataclass(frozen=True)
class RunMetrics:
    """Scores of one closed-loop run under one configuration."""

    epsilon: float
    j_u: float
    config_tag: tuple
    controller_kind: str

    def __post_init__(self) -> None:
        if self.epsilon < 0.0 or self.j_u < 0.0:
            raise ValueError("metrics must be nonnegative")


@dataclass(frozen=True)
class FrontierPoint:
    j_u: float
    epsilon: float
    config_tag: tuple


def itae(errors: np.ndarray, dt: float) -> float:
    """Integrated time-weighted absolute error, sum_k t_k |e_k|, t_k = k dt.

    The first sample is weighted by dt.  Multi-channel errors reduce to
    a scalar per step by the sum of absolute channel errors.
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    if errors.shape[0] == 0:
        raise ValueError("empty error trace")
    per_step = np.sum(np.abs(errors), axis=1)
    t = dt * np.arange(1, errors.shape[0] + 1)
    return float(np.sum(t * per_step))


def control_effort(us: np.ndarray) -> float:
    """Summed Euclidean norm of the input vectors."""
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if us.shape[0] == 0:
        raise ValueError("empty input trace")
    return float(np.sum(np.linalg.norm(us, axis=1)))


def _normalize(values: np.ndarray) -> np.ndarray:
    lo = values.min()
    span = values.max() - lo
    if span <= 0.0:
        return np.zeros_like(values)
    return (values - lo) / span


def mixed_index(points: Sequence[RunMetrics], alpha: float) -> np.ndarray:
    """Blend of normalized tracking error and control effort per point.

    Both axes are min-max normalized over the pooled collection, so the
    values are comparable across controllers scored together; a
    collapsed axis normalizes to zero.
    """
    if not points:
        raise ValueError("empty metrics collection")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    eps = _normalize(np.array([p.epsilon for p in points], dtype=float))
    j_u = _normalize(np.array([p.j_u for p in points], dtype=float))
    return alpha * eps + (1.0 - alpha) * j_u


def pareto_frontier(points: Sequence[RunMetrics]) -> list[FrontierPoint]:
    """Non-dominated subset under componentwise <= on (epsilon, j_u).

    Sorted by control effort ascending; duplicated coordinates are all
    kept (neither strictly dominates the other).
    """
    if not points:
        raise ValueError("empty metrics collection")
    kept = []
    for i, p in enumerate(points):
        dominated = False
        for j, other in enumerate(points):
            if i == j:
                continue
            if (
                other.epsilon <= p.epsilon
                and other.j_u <= p.j_u
                and (other.epsilon < p.epsilon or other.j_u < p.j_u)
            ):
                dominated = True
                break
        if not dominated:
            kept.append(FrontierPoint(j_u=p.j_u, epsilon=p.epsilon, config_tag=p.config_tag))
    kept.sort(key=lambda fp: (fp.j_u, fp.epsilon, fp.config_tag))
    return kept


@dataclass(frozen=True)
class AlphaWinner:
    alpha: float
    dkpc_tag: tuple
    dkpc_index: float
    deepc_tag: tuple
    deepc_index: float

    @property
    def winner(self) -> str:
        return DKPC if self.dkpc_index <= self.deepc_index else DEEPC


def best_per_alpha(
    dkpc: Sequence[RunMetrics],
    deepc: Sequence[RunMetrics],
    alphas: Iterable[float],
) -> list[AlphaWinner]:
    """Minimum mixed index per controller over a preference grid.

    Normalization pools both collections so the per-controller optima
    are directly comparable.
    """
    dkpc = list(dkpc)
    deepc = list(deepc)
    if not dkpc or not deepc:
        raise ValueError("both metric collections must be nonempty")
    pooled = dkpc + deepc
    rows = []
    for alpha in alphas:
        scores = mixed_index(pooled, alpha)
        s_dkpc = scores[: len(dkpc)]
        s_deepc = scores[len(dkpc) :]
        i = int(np.argmin(s_dkpc))
        j = int(np.argmin(s_deepc))
        rows.append(
            AlphaWinner(
                alpha=float(alpha),
                dkpc_tag=dkpc[i].config_tag,
                dkpc_index=float(s_dkpc[i]),
                deepc_tag=deepc[j].config_tag,
                deepc_index=float(s_deepc[j]),
            )
        )
    return rows


def _tag_fields(tag: tuple) -> list:
    """``q, r, lambda_g, lambda_sigma`` cells of a tag; lambda_sigma empty for DKPC."""
    return [*tag[:3], tag[3] if len(tag) > 3 else ""]


def write_sweep_csv(
    rows: Sequence[tuple[RunMetrics, str]],
    path: str | Path,
    comment: str | None = None,
) -> None:
    """Write sweep rows ``controller,q,r,lambda_g,lambda_sigma,epsilon,j_u,status``."""
    write_csv(
        path,
        ["controller", "q", "r", "lambda_g", "lambda_sigma", "epsilon", "j_u", "status"],
        (
            [m.controller_kind, *_tag_fields(m.config_tag), m.epsilon, m.j_u, run_status]
            for m, run_status in rows
        ),
        comment,
    )


def read_sweep_csv(path: str | Path) -> list[tuple[RunMetrics, str]]:
    """Rows of a ``write_sweep_csv`` file; raises ValueError naming a malformed row."""
    header, records = read_csv(path)
    rows: list[tuple[RunMetrics, str]] = []
    for idx, record in enumerate(records):
        rec = dict(zip(header, record))
        try:
            tag = (float(rec["q"]), float(rec["r"]), float(rec["lambda_g"]))
            if rec["lambda_sigma"]:
                tag = tag + (float(rec["lambda_sigma"]),)
            rows.append(
                (
                    RunMetrics(
                        epsilon=float(rec["epsilon"]),
                        j_u=float(rec["j_u"]),
                        config_tag=tag,
                        controller_kind=rec["controller"],
                    ),
                    rec.get("status", ""),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed sweep row {idx + 2} in {path}: {exc}") from exc
    return rows


def write_frontier_csv(
    frontiers: dict[str, Sequence[FrontierPoint]],
    path: str | Path,
    comment: str | None = None,
) -> None:
    """Write ``controller,j_u,epsilon,q,r,lambda_g,lambda_sigma`` rows, controllers sorted."""
    write_csv(
        path,
        ["controller", "j_u", "epsilon", "q", "r", "lambda_g", "lambda_sigma"],
        (
            [kind, fp.j_u, fp.epsilon, *_tag_fields(fp.config_tag)]
            for kind in sorted(frontiers)
            for fp in frontiers[kind]
        ),
        comment,
    )


def write_winners_csv(
    winners: Sequence[AlphaWinner], path: str | Path, comment: str | None = None
) -> None:
    """Write ``alpha,dkpc_index,dkpc_tag,deepc_index,deepc_tag,winner``; tags joined by ``/``."""
    write_csv(
        path,
        ["alpha", "dkpc_index", "dkpc_tag", "deepc_index", "deepc_tag", "winner"],
        (
            [
                w.alpha,
                w.dkpc_index,
                "/".join(str(cell(v)) for v in w.dkpc_tag),
                w.deepc_index,
                "/".join(str(cell(v)) for v in w.deepc_tag),
                w.winner,
            ]
            for w in winners
        ),
        comment,
    )
