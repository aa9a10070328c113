"""In-memory span tracer that wraps functions from outside the package.

A span is [name, start, end, parent, op]: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the label of the benchmark
operation that caused it.  Spans stay in memory until the pass ends; the
self time of a span is its duration minus the durations of its direct
children (spans nest properly because a pass is single-threaded).

A *leaf* span records nothing beneath it: the calls it makes count as its
own work.  That keeps re-entrant helpers (``__sub__`` calling ``__neg__``
and ``__add__``) and a function's private use of another layer (the
products inside ``pow_capped``) from splitting one unit of work in two.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._leaf_depth = 0

    def wrap(self, owner, attr: str, name: str, *, leaf: bool = False, count=None):
        """Replace owner.attr by a recording wrapper.  ``count`` is an
        optional (stat, fn) pair; fn(args, result) is added to the counter
        ``<name>.<stat>`` on each recorded call."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._leaf_depth:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            if leaf:
                self._leaf_depth += 1
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
                if leaf:
                    self._leaf_depth -= 1
            if count is not None:
                stat, measure = count
                counts[f"{name}.{stat}"] += measure(args, result)
            return result

        setattr(owner, attr, wrapper)
        return wrapper

    def self_times(self) -> dict:
        """name -> (calls, self seconds)."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent >= 0:
                covered[parent] += d
        out: dict = defaultdict(lambda: [0, 0.0])
        for (name, *_), d, c in zip(self.spans, durations, covered):
            agg = out[name]
            agg[0] += 1
            agg[1] += d - c
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op]) + "\n")
