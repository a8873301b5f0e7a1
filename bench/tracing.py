"""In-memory span tracing installed from outside the package.

Each layer is wrapped at the name its caller looks up (for example
``gibbslab.harness.log_z_exact``, which is what the harness calls), so no
file of the package is edited.  A span records name, start, end, parent span
and run id; self time is span time minus the time of its direct children.
Wrappers installed before a ``fork`` stay in the child process, where they
pass calls straight through: spans are kept only in the tracing process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # sid of the enclosing span, -1 at top level
    run_id: str
    attr: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``run_id`` tags the spans of one round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._next_sid = 0
        self._pid = os.getpid()

    def open(self) -> tuple[int, int]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, start, end, attr=None) -> None:
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.run_id, attr))

    def wrap(self, name: str, fn, attr=None):
        """``fn`` recording a span per call; ``attr(args, kwargs, result)``
        attaches a number or tuple measured from the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            sid, parent = tracer.open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                raise
            end = perf_counter()
            tracer.close(sid, parent, name, start, end,
                         attr(args, kwargs, result) if attr else None)
            return result

        return traced

    def counting_pool(self, base):
        """Subclass of the executor class ``base`` recording one span per pool,
        from construction to shutdown, with the number of tasks mapped."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._bench_tasks = 0
                self._bench_span = tracer.open()
                self._bench_start = perf_counter()
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                self._bench_tasks += min(map(len, iterables), default=0)
                return super().map(fn, *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    if self._bench_span is not None:
                        sid, parent = self._bench_span
                        self._bench_span = None
                        tracer.close(sid, parent, "harness.pool",
                                     self._bench_start, perf_counter(),
                                     self._bench_tasks)

        return TracedPool


def _draw_bytes(args, kwargs, draws) -> int:
    # Dense node and edge tables, computed from their shapes.
    return int(draws.node_tables.nbytes + draws.edge_tables.nbytes)


def _exact_states(args, kwargs, result) -> int:
    instance = args[0]
    return instance.model.n_states ** instance.graph.n_nodes


def _mc_samples(args, kwargs, est) -> tuple[int, float]:
    return est.n_samples, 1.0 - est.zero_fraction


# (module, attribute the caller looks up, span name, attribute function)
WRAP_POINTS = (
    ("gibbslab.harness", "derive_seed", "seeds.derive_seed", None),
    ("gibbslab.graphs", "substream", "seeds.substream", None),
    ("gibbslab.models", "substream", "seeds.substream", None),
    ("gibbslab.partition", "substream", "seeds.substream", None),
    ("gibbslab.harness", "substream", "seeds.substream", None),
    ("gibbslab.harness", "sample_interpolated", "graphs.sample_interpolated", None),
    ("gibbslab.harness", "sample_er", "graphs.sample_er", None),
    ("gibbslab.cli", "sample_er", "graphs.sample_er", None),
    ("gibbslab.partition", "draw_potentials", "models.draw_potentials", _draw_bytes),
    ("gibbslab.harness", "make_instance", "partition.make_instance", None),
    ("gibbslab.partition", "make_instance", "partition.make_instance", None),
    ("gibbslab.harness", "log_z_exact", "partition.log_z_exact", _exact_states),
    ("gibbslab.partition", "log_z_exact", "partition.log_z_exact", _exact_states),
    ("gibbslab.partition", "log_z_mc", "partition.log_z_mc", _mc_samples),
    ("gibbslab.harness", "certify_model", "convexity.certify_model", None),
    ("gibbslab.harness", "interpolation_monotonicity",
     "harness.interpolation_monotonicity", None),
    ("gibbslab.cli", "cli_run", "cli.cli_run", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name, attr_fn in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, attr_fn))
        harness = importlib.import_module("gibbslab.harness")
        saved.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = tracer.counting_pool(harness.ProcessPoolExecutor)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class NameStats:
    calls: int = 0
    durations: list = field(default_factory=list)
    selfs: list = field(default_factory=list)
    attrs: list = field(default_factory=list)


def per_round(spans: list[Span]) -> dict[str, dict[str, NameStats]]:
    """run id -> span name -> calls, then durations, self times and attrs in
    call order."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    out: dict[str, dict[str, NameStats]] = {}
    for span in sorted(spans, key=lambda s: s.start):
        stats = out.setdefault(span.run_id, {}).setdefault(span.name, NameStats())
        stats.calls += 1
        stats.durations.append(span.duration)
        stats.selfs.append(span.duration - child_time.get(span.sid, 0.0))
        stats.attrs.append(span.attr)
    return out
