"""The replay simulator (Algorithm 1).

The simulator schedules every task of an execution graph onto its
processor (a CPU thread or a CUDA stream), honouring:

* **fixed dependencies** — the graph edges built by the graph builder or
  by graph manipulation;
* **runtime dependencies** — blocking synchronisation tasks whose
  predecessors cannot be known statically: a ``cudaStreamSynchronize``
  completes only once every kernel of its target stream has drained, and a
  ``cudaDeviceSynchronize`` waits for every stream of its rank;
* **collective alignment** — GPU tasks that share a collective group
  (pipeline send/recv pairs) start together once every member is ready.

The output records the simulated start time of every task, from which the
iteration time, execution breakdown and SM utilisation are derived.

Simulation itself runs in the array-backed engine
(:mod:`repro.core.engine`), whose :class:`~repro.core.engine.SessionRun`
arrays are what predictions, breakdowns and serving metrics read.  This
module holds the object views built from a run on demand: the dict-based
:class:`SimulationResult` (critical-path analysis) and its Kineto-style
rendering, :meth:`SimulationResult.to_trace_bundle` (timeline export, SM
utilisation).  :class:`Simulator` is a compatibility wrapper that
compiles a graph, runs one session and materialises the result;
schedules are bit-identical to the original dict/heap scheduler.  Hot
paths that simulate one graph many times should compile once and reuse
a session instead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.tasks import Task, TaskKind
from repro.trace.events import Category, TraceEvent
from repro.trace.kineto import DistributedInfo, KinetoTrace, TraceBundle


def event_category(task: Task) -> str:
    """The trace-event category a simulated task is rendered with."""
    if task.category:
        return task.category
    return Category.KERNEL if task.kind == TaskKind.GPU else Category.CPU_OP


@dataclass
class SimulatedTask:
    """One task with its simulated timing."""

    task: Task
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class SimulationResult:
    """Simulated timings for every task of the graph."""

    tasks: dict[int, SimulatedTask] = field(default_factory=dict)
    start_time: float = 0.0

    def end_time(self) -> float:
        """Simulated makespan end (latest task end)."""
        return max((t.end for t in self.tasks.values()), default=self.start_time)

    def total_time(self) -> float:
        """Simulated makespan duration in microseconds."""
        return self.end_time() - self.start_time

    def rank_span(self, rank: int) -> tuple[float, float]:
        """(start, end) of one rank's simulated execution."""
        times = [t for t in self.tasks.values() if t.task.rank == rank]
        if not times:
            return self.start_time, self.start_time
        return min(t.start for t in times), max(t.end for t in times)

    def gpu_tasks(self, rank: int | None = None) -> list[SimulatedTask]:
        return [t for t in self.tasks.values()
                if t.task.kind == TaskKind.GPU and (rank is None or t.task.rank == rank)]

    def to_trace_bundle(self) -> TraceBundle:
        """Render the simulation as a Kineto-style trace bundle.

        The output mirrors the input trace (§3.5: "the simulation generates
        a trace similar to the input trace initially profiled from the real
        run"), so every downstream analysis — breakdowns, SM utilisation —
        runs identically on real and simulated traces.
        """
        per_rank: dict[int, list[TraceEvent]] = defaultdict(list)
        for simulated in self.tasks.values():
            task = simulated.task
            tid = int(task.stream) if task.kind == TaskKind.GPU else int(task.thread)
            per_rank[task.rank].append(TraceEvent(
                name=task.name, cat=event_category(task), ts=simulated.start,
                dur=simulated.duration, pid=task.rank, tid=tid, args=dict(task.args),
            ))
        bundle = TraceBundle(metadata={"simulated": True})
        for rank, events in per_rank.items():
            start = min(e.ts for e in events)
            end = max(e.end for e in events)
            events.append(TraceEvent(name="ProfilerStep#0", cat=Category.USER_ANNOTATION,
                                     ts=start, dur=end - start, pid=rank, tid=0,
                                     args={"simulated": True}))
            world = len(per_rank)
            bundle.add(KinetoTrace(rank=rank, events=events,
                                   distributed=DistributedInfo(rank=rank, world_size=world),
                                   metadata={"simulated": True}))
        return bundle


class Simulator:
    """Replays an execution graph (Algorithm 1).

    Compatibility wrapper over the array-backed engine: every ``run``
    compiles the graph's current state and simulates it once, producing
    schedules bit-identical to the original dict/heap scheduler.  To
    simulate the same structure repeatedly (what-if sweeps), compile once
    with :func:`repro.core.engine.compile_graph` and reuse a
    :class:`repro.core.engine.SimulationSession` instead.
    """

    def __init__(self, graph: ExecutionGraph) -> None:
        self.graph = graph

    def run(self, start_time: float = 0.0) -> SimulationResult:
        """Simulate the graph and return per-task timings."""
        compiled = compile_graph(self.graph)
        session = SimulationSession(compiled)
        return session.run(start_time=start_time).to_simulation_result()
