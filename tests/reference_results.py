"""Frozen reference copies of the object-walking result analyses.

Predictions read their breakdown and serving metrics from session-run
arrays (:func:`repro.core.breakdown.compute_breakdown` and
:func:`repro.core.serving_metrics.compute_serving_metrics` of a
``SessionRun``).  This module
preserves the original implementations verbatim as the oracles the array
paths are checked against with exact float equality:

* the tuple-list breakdown over a trace bundle (sort, merge, coverage
  sum, two-pointer intersection);
* the serving-metrics walk over every task of a ``SimulationResult``.

Do not optimise them.
"""

from __future__ import annotations

import numpy as np

from repro.core.breakdown import ExecutionBreakdown
from repro.core.serving_metrics import DEFAULT_SLO_MS, RequestMetrics, ServingMetrics
from repro.trace.events import is_collective_kernel, is_kernel_event
from repro.trace.kineto import KinetoTrace, TraceBundle


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _coverage(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in _merge_intervals(intervals))


def _intersection(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    a = _merge_intervals(list(a))
    b = _merge_intervals(list(b))
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def reference_rank_breakdown(trace: KinetoTrace,
                             window: tuple[float, float] | None = None) -> ExecutionBreakdown:
    """Breakdown of one rank's iteration."""
    if window is None:
        window = trace.iteration_window()
    start, end = window
    span = max(end - start, 0.0)

    compute: list[tuple[float, float]] = []
    communication: list[tuple[float, float]] = []
    for event in trace.events:
        if not is_kernel_event(event):
            continue
        clipped = (max(event.ts, start), min(event.end, end))
        if clipped[1] <= clipped[0]:
            continue
        if is_collective_kernel(event):
            communication.append(clipped)
        else:
            compute.append(clipped)

    compute_time = _coverage(compute)
    communication_time = _coverage(communication)
    overlapped = _intersection(compute, communication)
    exposed_compute = compute_time - overlapped
    exposed_communication = communication_time - overlapped
    busy = exposed_compute + exposed_communication + overlapped
    other = max(span - busy, 0.0)
    return ExecutionBreakdown(
        exposed_compute=exposed_compute,
        overlapped=overlapped,
        exposed_communication=exposed_communication,
        other=other,
    )


def reference_compute_breakdown(traces: TraceBundle | KinetoTrace) -> ExecutionBreakdown:
    """Average breakdown across the ranks of a bundle (or of a single trace)."""
    if isinstance(traces, KinetoTrace):
        return reference_rank_breakdown(traces)
    per_rank = [reference_rank_breakdown(trace) for trace in traces]
    if not per_rank:
        return ExecutionBreakdown(0.0, 0.0, 0.0, 0.0)
    return ExecutionBreakdown(
        exposed_compute=float(np.mean([b.exposed_compute for b in per_rank])),
        overlapped=float(np.mean([b.overlapped for b in per_rank])),
        exposed_communication=float(np.mean([b.exposed_communication for b in per_rank])),
        other=float(np.mean([b.other for b in per_rank])),
    )


def reference_serving_metrics(simulation, plan,
                              deadline_ms: float | None = None) -> ServingMetrics:
    """Score a ``SimulationResult`` by walking every simulated task's args."""
    anchor: float | None = None
    sample_ends: dict[tuple[str, int], float] = {}
    for simulated in simulation.tasks.values():
        task, start, end = simulated.task, simulated.start, simulated.end
        if anchor is None or start < anchor:
            anchor = start
        args = task.args
        if args.get("op_name") != "sample_token":
            continue
        phase = args.get("phase")
        if phase not in ("prefill", "decode"):
            continue
        key = (phase, int(args.get("microbatch", 0)))
        known = sample_ends.get(key)
        if known is None or end > known:
            sample_ends[key] = end
    requests = tuple(
        RequestMetrics(request=schedule.request,
                       arrival_us=anchor + schedule.arrival_us,
                       first_token_us=sample_ends[("prefill", schedule.prefill_chunk)],
                       completion_us=sample_ends[("decode", schedule.last_step)],
                       tokens=schedule.num_decode_steps + 1)
        for schedule in plan.requests)
    return ServingMetrics(
        requests=requests,
        deadline_ms=DEFAULT_SLO_MS if deadline_ms is None else float(deadline_ms))
