"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark's machine shares its cores with other work and changes
speed by up to 1.8x, for seconds or minutes at a time, and process CPU
time slows down with it.  So while a workload runs, one pass of this
kernel is timed between plant steps, at most every ``EVERY_S`` seconds,
never inside a timed control step, and a few passes are timed around
every set-up.  Each timed interval is then rescaled to the speed at
which one pass takes ``NOMINAL_S``:

    rescaled = as timed * NOMINAL_S / (median pass within HALF_WIDTH_S of it)

One pass is an LU factorization of a fixed 300x300 matrix, the kind of
dense linear algebra the solver runs.  Of the kernels tried (this one;
a Python loop over small numpy calls with a 120x120 LU solve;
matrix-vector products streaming 8 MB), it tracked the program's own
slowdowns best overall (see README.md).  It is the benchmark's own code,
so a change to the program leaves it unchanged.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

# about one pass on the fast phases of the 2-vCPU machine that defined
# the benchmark; any fixed value would do
NOMINAL_S = 0.001
EVERY_S = 0.05
HALF_WIDTH_S = 0.5
_SIZE = 300


class Reference:
    """The reference kernel and the time series of its passes."""

    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self.clock = clock
        self.matrix = rng.standard_normal((_SIZE, _SIZE)) + _SIZE * np.eye(_SIZE)
        self.times: list[float] = []  # midpoint of each pass, ascending
        self.passes: list[float] = []  # seconds per pass
        self.spent = 0.0  # seconds spent in passes, for taking them out of run times
        self._last = -float("inf")
        self._pass()  # first call pays for loading, not timed

    def _pass(self) -> None:
        scipy.linalg.lu_factor(self.matrix, check_finite=False)

    def sample(self) -> None:
        """Time one pass."""
        t0 = self.clock()
        self._pass()
        self._last = self.clock()
        self.times.append(0.5 * (t0 + self._last))
        self.passes.append(self._last - t0)
        self.spent += self._last - t0

    def tick(self) -> None:
        """Time one pass if the last one ended ``EVERY_S`` ago or more."""
        if self.clock() - self._last >= EVERY_S:
            self.sample()

    def pass_time(self, start: float, end: float | None = None) -> float:
        """Median pass over ``[start, end]`` widened by ``HALF_WIDTH_S`` each way."""
        end = start if end is None else end
        lo = bisect.bisect_left(self.times, start - HALF_WIDTH_S)
        hi = bisect.bisect_right(self.times, end + HALF_WIDTH_S)
        if lo == hi:  # nothing near: the closest pass on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.median(self.passes[lo:hi])

    def scale(self, start: float, end: float | None = None) -> float:
        """Factor that rescales an interval to nominal machine speed."""
        return NOMINAL_S / self.pass_time(start, end)
