"""Execution-time breakdown.

The paper decomposes an iteration into four components (§4.2.2):

* **exposed compute** — computation not overlapping with communication;
* **exposed communication** — communication not overlapping with
  computation;
* **overlapped** — periods where computation and communication kernels run
  concurrently;
* **other** — the remainder of the iteration (idle GPU time, CPU-only
  periods such as the data loader and the optimizer bookkeeping).

The breakdown is computed per rank from kernel activity intervals and then
averaged across ranks.  :func:`compute_breakdown` works identically on
profiled traces and on simulated runs: given a
:class:`~repro.core.engine.SessionRun` it reads the run's timing arrays,
and matches the breakdown of the run's rendered trace exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import CompiledGraph, SessionRun
from repro.core.simulator import event_category
from repro.trace.events import Category, is_collective_signature, is_kernel_event
from repro.trace.kineto import KinetoTrace, TraceBundle


@dataclass(frozen=True)
class ExecutionBreakdown:
    """Per-iteration execution-time breakdown in microseconds."""

    exposed_compute: float
    overlapped: float
    exposed_communication: float
    other: float

    @property
    def total(self) -> float:
        """Iteration time (sum of the four components)."""
        return self.exposed_compute + self.overlapped + self.exposed_communication + self.other

    def as_dict(self) -> dict[str, float]:
        return {
            "exposed_compute": self.exposed_compute,
            "overlapped": self.overlapped,
            "exposed_communication": self.exposed_communication,
            "other": self.other,
            "total": self.total,
        }

    def as_milliseconds(self) -> dict[str, float]:
        return {key: value / 1000.0 for key, value in self.as_dict().items()}


def _merge(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of intervals as sorted, disjoint ``(lo, hi)`` arrays.

    Sorts like a list of ``(start, end)`` tuples, then sweeps: an interval
    opens a new merged interval when it starts after the running maximum
    end of every interval before it.
    """
    if len(lo) == 0:
        return lo, hi
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    last = np.append(first[1:] - 1, len(lo) - 1)
    return lo[first], reach[last]


def _sum(values: np.ndarray) -> float:
    """Left-to-right sum (``np.sum`` adds pairwise, which rounds differently)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _intersection(a: tuple[np.ndarray, np.ndarray],
                  b: tuple[np.ndarray, np.ndarray]) -> float:
    """Total overlap of two merged interval sets.

    Overlapping pairs are enumerated per interval of ``a`` in order, which
    is also the order a two-pointer sweep meets them in, so the running
    sum matches the sweep's exactly.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    first = np.searchsorted(b_hi, a_lo, side="right")
    counts = np.maximum(np.searchsorted(b_lo, a_hi, side="left") - first, 0)
    i = np.repeat(np.arange(len(a_lo)), counts)
    j = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return _sum(np.minimum(a_hi[i], b_hi[j]) - np.maximum(a_lo[i], b_lo[j]))


def _window_breakdown(start: float, end: float, kernel_starts: np.ndarray,
                      kernel_ends: np.ndarray, collective: np.ndarray) -> ExecutionBreakdown:
    """Breakdown of one rank's ``[start, end]`` window from its kernel intervals."""
    span = max(end - start, 0.0)
    lo = np.maximum(kernel_starts, start)
    hi = np.minimum(kernel_ends, end)
    kept = hi > lo
    compute = _merge(lo[kept & ~collective], hi[kept & ~collective])
    communication = _merge(lo[kept & collective], hi[kept & collective])

    compute_time = _sum(compute[1] - compute[0])
    communication_time = _sum(communication[1] - communication[0])
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


def _mean(per_rank: list[ExecutionBreakdown]) -> ExecutionBreakdown:
    if not per_rank:
        return ExecutionBreakdown(0.0, 0.0, 0.0, 0.0)
    return ExecutionBreakdown(
        exposed_compute=float(np.mean([b.exposed_compute for b in per_rank])),
        overlapped=float(np.mean([b.overlapped for b in per_rank])),
        exposed_communication=float(np.mean([b.exposed_communication for b in per_rank])),
        other=float(np.mean([b.other for b in per_rank])),
    )


def rank_breakdown(trace: KinetoTrace,
                   window: tuple[float, float] | None = None) -> ExecutionBreakdown:
    """Breakdown of one rank's iteration."""
    if window is None:
        window = trace.iteration_window()
    kernels = [event for event in trace.events if is_kernel_event(event)]
    count = len(kernels)
    return _window_breakdown(
        window[0], window[1],
        np.fromiter((event.ts for event in kernels), dtype=np.float64, count=count),
        np.fromiter((event.end for event in kernels), dtype=np.float64, count=count),
        np.fromiter((is_collective_signature(event.name, event.args) for event in kernels),
                    dtype=bool, count=count))


def compute_breakdown(traces: TraceBundle | KinetoTrace | SessionRun) -> ExecutionBreakdown:
    """Average breakdown across the ranks of a bundle, a single trace or a run."""
    if isinstance(traces, SessionRun):
        return _run_breakdown(traces)
    if isinstance(traces, KinetoTrace):
        return rank_breakdown(traces)
    return _mean([rank_breakdown(trace) for trace in traces])


@dataclass(frozen=True)
class _RankLayout:
    """Dense task indices of one rank, for breakdowns of simulated runs."""

    tasks: np.ndarray
    kernels: np.ndarray
    #: Per entry of ``kernels``: whether it is a communication kernel.
    collective: np.ndarray


def _rank_layouts(compiled: CompiledGraph) -> tuple[_RankLayout, ...]:
    """Per rank, ascending (the order a trace bundle iterates its ranks).

    Topology-only: reads each task's rank, category, kind, name and
    ``collective`` arg, which re-timing never changes.
    """
    tasks = compiled.tasks
    if not tasks:
        return ()
    gpu_categories = Category.GPU_CATEGORIES
    ranks: list[int] = []
    kernels: list[int] = []
    collective: list[bool] = []
    by_name: dict[str, bool] = {}
    for index, task in enumerate(tasks):
        ranks.append(task.rank)
        if event_category(task) not in gpu_categories:
            continue
        kernels.append(index)
        if task.args.get("collective"):
            collective.append(True)
            continue
        flag = by_name.get(task.name)
        if flag is None:
            flag = by_name[task.name] = is_collective_signature(task.name, {})
        collective.append(flag)
    rank = np.asarray(ranks, dtype=np.int64)
    kernel_index = np.asarray(kernels, dtype=np.int64)
    kernel_collective = np.asarray(collective, dtype=bool)
    kernel_rank = rank[kernel_index]
    layouts = []
    for value in np.unique(rank).tolist():
        on_rank = kernel_rank == value
        layouts.append(_RankLayout(tasks=np.flatnonzero(rank == value),
                                   kernels=kernel_index[on_rank],
                                   collective=kernel_collective[on_rank]))
    return tuple(layouts)


def _run_breakdown(run: SessionRun) -> ExecutionBreakdown:
    """Breakdown of a simulated run, read from its dense timing arrays.

    Equal, float for float, to the breakdown of the run's rendered trace
    bundle (``run.to_simulation_result().to_trace_bundle()``), without
    building it: each rank's window is its profiler-step annotation
    there, ``(first start, first start + (last end - first start))``.
    """
    starts = run.starts
    ends = run.ends
    per_rank = []
    for layout in run.compiled.cached("breakdown.rank_layouts", _rank_layouts):
        start = float(starts[layout.tasks].min())
        end = start + (float(ends[layout.tasks].max()) - start)
        per_rank.append(_window_breakdown(start, end, starts[layout.kernels],
                                          ends[layout.kernels], layout.collective))
    return _mean(per_rank)
