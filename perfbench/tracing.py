"""In-memory span tracer that wraps the public calls of each dkpc layer.

A span records (name, start, end, parent, run); counts are kept at the
same boundaries.  Wrapping replaces a function or method in every
namespace that refers to it and is undone by ``restore``, so the same
process can measure an untraced pass and a traced pass back to back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

_MISSING = object()


class Tracer:
    """Collects spans and counts; spans stay in memory until ``dump``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``on_result(counts, result)`` adds counts."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) in place."""
        own = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        setattr(owner, attr, self.wrap(current, name, on_result))
        self._undo.append((owner, attr, own))

    def patch_function(
        self, fn: Callable, name: str, modules: Iterable[ModuleType], on_result: Callable | None = None
    ) -> None:
        """Wrap ``fn`` in every module namespace that binds it."""
        wrapped = self.wrap(fn, name, on_result)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, fn))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write spans and counts as JSON (one span per line after the header)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def inclusive_times(spans: list[list]) -> Counter:
    """Total duration per span name, counting only the outermost span of a name."""
    totals: Counter = Counter()
    for name, start, end, parent, _ in spans:
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            totals[name] += end - start
    return totals


def layer_self_times(spans: list[list]) -> Counter:
    """Self time summed per layer, the span-name prefix before the first dot."""
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return totals
