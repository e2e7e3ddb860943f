"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
MIN_BEYOND = 10


def tail_percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile that leaves ``min_beyond`` samples above its rank.

    Raises ValueError when the sample is too small for that, so a
    workload that is sized too small fails instead of reporting a
    percentile resting on a handful of points.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it, need {min_beyond}"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_metric_names(names) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")
