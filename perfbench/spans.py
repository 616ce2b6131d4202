"""In-memory spans around the benchmark's calls into isingpoly.

A span records one call (or one loop of calls to the same public function)
into a layer: its name, start, end, parent span and the counts the call
produced. Layers are the package's modules; the benchmark's own code is the
`bench` layer. Spans stay in memory and are written out once the run ends.

`NullTracer` has the same interface and records nothing; the timed runs use
it, so tracing costs them one no-op context manager per call site.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("graphs", "polymers", "clusters", "formulas", "model", "audit", "cli")


class Span:
    __slots__ = ("id", "name", "layer", "metric", "parent", "pass_index",
                 "start", "end", "counts")

    def __init__(self, sid, name, layer, metric, parent, pass_index):
        self.id = sid
        self.name = name
        self.layer = layer
        self.metric = metric
        self.parent = parent
        self.pass_index = pass_index
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int) -> None:
        """Add n to the per-layer count metric `key` (e.g. polymers.count)."""
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "metric": self.metric, "parent": self.parent,
                "pass": self.pass_index, "start": self.start,
                "end": self.end, "counts": self.counts}


class Tracer:
    """Records spans; the layer is the part of the name before the first dot."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_index = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, metric: str | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, name.split(".", 1)[0], metric, parent,
                   self.pass_index)
        self.spans.append(rec)
        self._stack.append(sid)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [s.as_dict() for s in self.spans]},
                      fh)


class _NullSpan:
    __slots__ = ()

    def count(self, key: str, n: int) -> None:
        pass


class NullTracer:
    enabled = False
    pass_index = 0
    _span = _NullSpan()

    @contextmanager
    def span(self, name: str, metric: str | None = None):
        yield self._span


def span_cost(n: int = 20_000, repeats: int = 5) -> float:
    """Seconds one recorded span costs over the no-op span of an untraced
    pass: the median over `repeats` timings of n empty spans each way."""
    def timed(tracer) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("bench.probe", "bench.probe_s"):
                pass
        return time.perf_counter() - t0

    null = NullTracer()
    return statistics.median(timed(Tracer()) - timed(null)
                             for _ in range(repeats)) / n


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def summarize_pass(spans: list[Span]) -> dict:
    """Per-layer self time, per-metric totals and counts, how much of the
    job time (spans named bench.job[...]) the layer spans cover, and how many
    spans the timed job phase recorded (check-phase spans are not timed)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    layer_self = {layer: 0.0 for layer in LAYERS}
    metrics: dict[str, float] = {}
    counts: dict[str, int] = {}
    job_wall = 0.0
    covered = 0.0
    job_spans = 0
    for s in spans:
        if s.layer in layer_self:
            layer_self[s.layer] += own[s.id]
        if s.metric is not None:
            metrics[s.metric] = metrics.get(s.metric, 0.0) + s.duration
        for key, n in s.counts.items():
            counts[key] = counts.get(key, 0) + n
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        if not root.name.startswith("bench.job["):
            continue
        job_spans += 1
        if s is root:
            job_wall += s.duration
        elif s.layer != "bench":
            covered += own[s.id]
    return {"layer_self": layer_self, "metrics": metrics, "counts": counts,
            "job_wall": job_wall, "covered": covered, "job_spans": job_spans}
