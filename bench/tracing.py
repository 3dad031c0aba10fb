"""Spans around the calls into halfdepth's layers, for the traced run.

Installing a Tracer replaces module attributes of halfdepth with timing
wrappers at the names the callers look them up by: the harness in
`experiments` reaches `build_cover`, `population_depth`, `sup_deviation`,
the depth functions and `evaluate_bound` through its own module globals,
and `sup_deviation` reaches `cdf_projected_many` through `sample_depth`'s.
A name the program no longer has is skipped, and its metrics read 0.

Each span records its name, start, end, the span that caused it and the
trial it belongs to. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name); the span name's first part is the layer.
PATCHES = (
    ("experiments", "run_deviation_experiment", "experiments.run_deviation_experiment"),
    ("experiments", "write_outputs", "experiments.write_outputs"),
    ("experiments", "run_bound_sweep", "experiments.run_bound_sweep"),
    ("experiments", "auto_queries", "experiments.auto_queries"),
    ("experiments", "_run_trial", "experiments.trial"),
    ("experiments", "draw_sample", "experiments.draw_sample"),
    ("experiments", "build_cover", "geometry.build_cover"),
    ("experiments", "population_depth", "population.population_depth"),
    ("experiments", "sup_deviation", "sample_depth.sup_deviation"),
    ("experiments", "depth_1d", "sample_depth.depth_1d"),
    ("experiments", "depth_exact_2d", "sample_depth.depth_exact_2d"),
    ("experiments", "depth_certified", "sample_depth.depth_certified"),
    ("experiments", "evaluate_bound", "bounds.evaluate_bound"),
    ("sample_depth", "cdf_projected_many", "population.cdf_projected_many"),
)

ROOT = "bench.block"


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    trial: int | None
    thread: int
    cpu_s: float | None = None
    minflt: int | None = None
    size: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while installed; `block` opens the root span of one block.

    Spans are kept as plain tuples, which the garbage collector stops
    tracking; dataclass instances would make every collection slower as
    the list grows.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        # Open span on the main thread; spans that start on a worker thread
        # with nothing open there belong to it.
        self._main_open = 0
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._main_open
        if name == "experiments.trial":
            trial = args[4]  # _run_trial(cfg, cover, queries, pop_depths, index)
        else:
            trial = stack[-1][1] if stack else None
        if name == "bounds.evaluate_bound":
            name = f"{name}.{args[0]}"  # evaluate_bound(kind, params, ...)
        on_main = threading.get_ident() == self._main
        stack.append((sid, trial))
        if on_main:
            self._main_open = sid
        if name == "experiments.trial":
            # Thread CPU time from the clock: getrusage's is tick-granular.
            cpu0, faults0 = time.thread_time(), resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            cpu = minflt = size = None
            if name == "experiments.trial":
                cpu = time.thread_time() - cpu0
                minflt = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults0
            if name == "experiments.run_bound_sweep" and isinstance(result, list):
                size = len(result)
            stack.pop()
            if on_main:
                self._main_open = parent
            self.records.append((sid, parent, name, start, end, trial, threading.get_ident(), cpu, minflt, size))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every attribute in PATCHES that the given modules have."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span_name in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]

    def block(self, fn, *args):
        """Run fn(*args) under a root span; returns (result, span)."""
        result = self._record(ROOT, fn, args, {})
        return result, Span(*self.records[-1])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r[:7]) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children on several threads (the thread pool) can overlap; the union
    of their intervals is what is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end) for s in spans}


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]
