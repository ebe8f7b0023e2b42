"""In-memory span recorder for the traced run.

The recorder times calls into each layer's public entry points from the
benchmark's own code: :meth:`Recorder.install` replaces each entry point
with a timing wrapper *where the program looks it up* -- the class
attribute for methods, and every loaded ``repro`` module attribute bound
to the original function for module-level functions -- and
:meth:`Recorder.uninstall` puts the originals back.  Nothing under
``src/`` is edited.

Each call becomes a span: name, start, end, parent span (the innermost
open span of the same thread) and the id of the window it ran in.  A
window is one set-up or one request; the workloads are closed loops with
one client and one service worker, so every span that starts inside a
request's window belongs to that request, whichever thread ran it.
Spans stay in memory until the run ends; then :meth:`Recorder.dump`
writes them out and :func:`layer_metrics` turns them into per-layer self
times and counts.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    window: int = -1
    counts: dict[str, float] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Window:
    kind: str  # "setup" or "request"
    start: float
    #: Host-speed scale of the window's timings (see ``Loop.calibrate``).
    scale: float = 1.0
    end: float = 0.0
    gc_seconds: float = 0.0
    gc_collections: int = 0


class Recorder:
    """Records spans around the program's layer entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.windows: list[Window] = []
        self.active = False
        self._local = threading.local()
        self._current: Window | None = None
        self._current_id = -1
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_started = 0.0

    # -- windows ----------------------------------------------------------

    @contextmanager
    def window(self, kind: str, scale: float = 1.0):
        """Attribute every span started inside the block to one window."""
        if not self.active:
            yield
            return
        window = Window(kind=kind, start=time.perf_counter(), scale=scale)
        self.windows.append(window)
        self._current, self._current_id = window, len(self.windows) - 1
        try:
            yield
        finally:
            window.end = time.perf_counter()
            self._current, self._current_id = None, -1

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._current is not None:
            self._current.gc_seconds += time.perf_counter() - self._gc_started
            self._current.gc_collections += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str | Callable[[tuple], str], function: Callable,
              counts: Callable[[tuple, dict, Any], dict[str, float]] | None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            span = Span(name=name if isinstance(name, str) else name(args),
                        start=time.perf_counter(), parent=parent,
                        window=recorder._current_id)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                recorder.spans.append(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def method(self, cls: type, attribute: str, name: str, counts=None) -> None:
        """Wrap a method, classmethod or staticmethod on its class."""
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            self._patch(cls, attribute, classmethod(self._wrap(name, raw.__func__, counts)))
        elif isinstance(raw, staticmethod):
            self._patch(cls, attribute, staticmethod(self._wrap(name, raw.__func__, counts)))
        else:
            self._patch(cls, attribute, self._wrap(name, raw, counts))

    def function(self, function: Callable, name: str, counts=None) -> None:
        """Wrap a module-level function in every module that bound it."""
        wrapper = self._wrap(name, function, counts)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attribute, wrapper)

    # -- lifecycle --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point the benchmark measures."""
        import repro.sweep.runner as runner
        from repro.api import study
        from repro.core import batch, breakdown, engine, graph_builder, perf_model
        from repro.core import serving_metrics, simulator
        from repro.service import client
        from repro.sweep import cache, hashing
        from repro.trace import kineto

        def bundle_events(args, kwargs, result):
            return {"events": sum(len(trace.events) for trace in result)}

        self.method(kineto.TraceBundle, "load", "trace.load", bundle_events)
        self.method(graph_builder.GraphBuilder, "build", "graph.build",
                    lambda a, k, r: {"tasks": len(r)})
        self.method(perf_model.KernelPerfModel, "calibrate", "study.calibrate")
        # derive_graph(graph, kind, target, ...): one span name per kind.
        self.function(study.derive_graph, lambda a: f"study.derive_graph.{a[1]}",
                      lambda a, k, r: {"tasks_out": len(r[0])})
        self.function(engine.compile_graph, "engine.compile_graph")
        self.method(engine.SimulationSession, "run", "engine.run",
                    lambda a, k, r: {"tasks": a[0].compiled.n_tasks})
        self.method(engine.SessionRun, "to_simulation_result",
                    "result.to_simulation_result")
        self.method(simulator.SimulationResult, "to_trace_bundle",
                    "result.to_trace_bundle")
        self.function(breakdown.compute_breakdown, "breakdown.compute")
        self.function(serving_metrics.compute_serving_metrics, "serving.metrics")
        self.function(batch.compile_batch_plan, "batch.compile_plan",
                      lambda a, k, r: {"levels": r.n_levels})
        self.method(batch.BatchSession, "run", "batch.run",
                    lambda a, k, r: {"scenarios": r.batch_size,
                                     "fast_path": r.batch_size if r.batched else 0})
        self.method(engine.CompiledGraph, "scaled_durations", "whatif.matrix")
        self.function(hashing.hash_trace_bundle, "sweep.hash")
        self.method(cache.SweepCache, "lookup", "sweep.cache.lookup",
                    lambda a, k, r: {"hits": 0 if r is None else 1})
        self.method(cache.SweepCache, "store", "sweep.cache.store")
        self.function(runner._evaluate_group, "sweep.group")
        for call in ("submit", "wait", "result"):
            self.method(client.ServiceClient, call, f"service.client.{call}")
        gc.callbacks.append(self._gc_callback)
        self.active = True

    def dump(self, path: Path) -> None:
        """Write every window and span (parents as span indexes) as JSON."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        spans = [{"name": span.name, "start": span.start, "end": span.end,
                  "parent": index.get(id(span.parent)), "window": span.window,
                  "counts": span.counts} for span in self.spans]
        path.write_text(json.dumps({"windows": [asdict(w) for w in self.windows],
                                    "spans": spans}), encoding="utf-8")

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self.active = False


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans.

    ``*.self_ms`` is the layer's self time summed over the request
    windows and divided by the number of requests; for the set-up layers
    (trace ingest, graph build, calibration) it is summed over the set-up
    windows and divided by the number of set-ups.  Times are scaled by
    their window's host-speed scale, like the end-to-end metrics.
    """
    requests = [index for index, window in enumerate(recorder.windows)
                if window.kind == "request"]
    setups = [index for index, window in enumerate(recorder.windows)
              if window.kind == "setup"]
    request_ids, setup_ids = set(requests), set(setups)
    n_requests, n_setups = max(1, len(requests)), max(1, len(setups))

    def spans(name: str, windows: set[int]) -> list[Span]:
        return [span for span in recorder.spans
                if span.window in windows and span.name == name]

    def scaled(span: Span) -> float:
        return span.self_time * recorder.windows[span.window].scale

    def per(name: str, windows: set[int], divisor: int) -> float:
        return sum(scaled(span) for span in spans(name, windows)) * 1000.0 / divisor

    def total(name: str, key: str, windows: set[int]) -> float:
        return sum(span.counts.get(key, 0.0) for span in spans(name, windows))

    metrics: dict[str, float] = {}
    for name, key in (("trace.load", "events"), ("graph.build", "tasks")):
        metrics[f"{name}.self_ms"] = per(name, setup_ids, n_setups)
        metrics[f"{name.split('.')[0]}.{key}"] = total(name, key, setup_ids) / n_setups
    metrics["study.calibrate.self_ms"] = per("study.calibrate", setup_ids, n_setups)

    derives = [span for span in recorder.spans if span.window in request_ids
               and span.name.startswith("study.derive_graph.")]
    for kind in ("parallelism", "architecture", "hardware", "serving"):
        name = f"study.derive_graph.{kind}"
        metrics[f"{name}.self_ms"] = per(name, request_ids, n_requests)
        metrics[f"{name}.calls"] = float(len(spans(name, request_ids)))
    metrics["study.derive_graph.tasks_out"] = (
        sum(span.counts.get("tasks_out", 0.0) for span in derives) / max(1, len(derives)))

    for name in ("engine.compile_graph", "engine.run", "result.to_simulation_result",
                 "result.to_trace_bundle", "breakdown.compute", "serving.metrics",
                 "batch.compile_plan", "batch.run", "whatif.matrix", "sweep.hash",
                 "sweep.cache.lookup", "sweep.cache.store", "sweep.group"):
        metrics[f"{name}.self_ms"] = per(name, request_ids, n_requests)
    runs = spans("engine.run", request_ids)
    simulated = total("engine.run", "tasks", request_ids)
    metrics["engine.run.us_per_task"] = (
        sum(scaled(span) for span in runs) * 1e6 / simulated if simulated else 0.0)
    plans = spans("batch.compile_plan", request_ids)
    metrics["batch.plan.levels"] = (
        total("batch.compile_plan", "levels", request_ids) / len(plans) if plans else 0.0)
    scenarios = total("batch.run", "scenarios", request_ids)
    metrics["batch.scenarios"] = scenarios / n_requests
    metrics["batch.fast_path_frac"] = (
        total("batch.run", "fast_path", request_ids) / scenarios if scenarios else 0.0)
    lookups = spans("sweep.cache.lookup", request_ids)
    metrics["sweep.cache.hit_rate"] = (
        total("sweep.cache.lookup", "hits", request_ids) / len(lookups) if lookups else 0.0)

    gc_seconds = sum(recorder.windows[index].gc_seconds * recorder.windows[index].scale
                     for index in requests)
    metrics["python.gc.ms"] = gc_seconds * 1000.0 / n_requests
    metrics["python.gc.collections"] = (
        sum(recorder.windows[index].gc_collections for index in requests) / n_requests)

    uncovered = []
    for index in requests:
        window = recorder.windows[index]
        inside = [(span.start, span.end) for span in recorder.spans
                  if span.window == index]
        length = window.end - window.start
        if length > 0:
            uncovered.append(1.0 - _union_seconds(inside) / length)
    metrics["tracing.uncovered_pct"] = (
        100.0 * sum(uncovered) / len(uncovered) if uncovered else 0.0)
    return metrics
