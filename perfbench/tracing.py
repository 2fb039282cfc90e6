"""In-memory spans for the traced benchmark run.

A span is recorded around one call from the benchmark into a public
library function; it is ``[name, start, end, parent, job]`` where
``parent`` is the position of the enclosing span among the spans of the
same job (-1 for the job's root span, named ``cli.main``) and times are
seconds of the job process's clock (by default ``time.perf_counter``).  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
spans' duration minus the time covered by their direct children (jobs are
single-threaded, so children never overlap).
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter


class Tracer:
    """Collects spans and counts for one job process."""

    enabled = True

    def __init__(self, job: int = 0, clock=time.perf_counter):
        self.job = job
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), 0.0, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class NullTracer:
    """The untraced path: the same calls, no spans, no counts."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Per-name self time (seconds) and call count over a list of spans.

    ``parent`` indices are positions in the same list, as one Tracer
    writes them, so call this once per job.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    calls: Counter = Counter()
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
        calls[name] += 1
    return out, calls
