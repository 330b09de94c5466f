"""Span tracing and summary statistics for the benchmark.

Spans are recorded from the benchmark's own code, around each call into a
package layer; the package itself is not instrumented.  A span is a list
``[name, start, end, parent, query]``: ``parent`` is the index of the
enclosing span (None for a root) and ``query`` the id of the query it
belongs to.  Spans stay in memory until the run ends.
"""

import json
import time
from contextlib import nullcontext

# The tail is the highest percentile that still has this many samples
# beyond it, so it never rests on a handful of outliers.
TAIL_BEYOND = 10


class Tracer:
    """Records nested spans in memory."""

    def __init__(self):
        self.spans = []
        self.query = 0
        self._open = []

    def span(self, name: str):
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, query in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "query": query}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer._open.append(self.index)
        tracer.spans.append([self.name, time.perf_counter(), None, parent, tracer.query])

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._open.pop()
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    _null = nullcontext()

    def __init__(self):
        self.query = 0

    def span(self, name: str):
        return self._null


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def median(values) -> float:
    """Nearest-rank median of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile, beyond)``.  With n samples that is the
    nearest-rank percentile 100 * (n - TAIL_BEYOND) / n, i.e. the sample
    with exactly TAIL_BEYOND larger ranks above it.  With too few samples
    there is no such percentile and the maximum is returned with
    ``beyond`` 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100 * rank / n, TAIL_BEYOND
