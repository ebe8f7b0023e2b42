"""High-level replay API.

``replay(bundle)`` builds the execution graph from a profiled trace bundle,
simulates it with Algorithm 1 and returns a :class:`ReplayResult`: the
graph, its compiled form and the session run's timing arrays.  The
iteration time, execution breakdown and serving metrics are read from
those arrays; the object views of the run — the dict-based simulation
result and the replayed Kineto-style trace — are built only when first
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.breakdown import ExecutionBreakdown, compute_breakdown
from repro.core.engine import CompiledGraph, SessionRun, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.graph_builder import GraphBuilder, GraphBuilderOptions
from repro.core.serving_metrics import ServingMetrics, compute_serving_metrics, stream_plan_of
from repro.core.simulator import SimulationResult
from repro.trace.kineto import KinetoTrace, TraceBundle
from repro.workload.arrivals import StreamPlan


@dataclass
class ReplayResult:
    """Outcome of replaying a profiled trace (or simulating a derived graph)."""

    graph: ExecutionGraph
    #: The session run over ``graph``'s base durations (its arrays are
    #: copies, so it stays valid however the session is reused).  Callers
    #: that need the baseline timings — the ``Study`` facade's what-if
    #: path — read it instead of re-simulating.
    base_run: SessionRun

    @property
    def compiled(self) -> CompiledGraph:
        """The compiled form of ``graph`` (what-if evaluation and sweeps
        open a session on it instead of recompiling)."""
        return self.base_run.compiled

    @cached_property
    def simulation(self) -> SimulationResult:
        """Per-task timings as a dict of task objects, built on first access.

        Costs one object per task, about half the simulation's own time;
        nothing in a prediction's numbers needs it.
        """
        return self.base_run.to_simulation_result()

    @cached_property
    def replayed_trace(self) -> TraceBundle:
        """The run rendered as a Kineto-style trace, built on first access.

        Costs one trace event per task on top of :attr:`simulation`, close
        to the simulation's own time again; timeline export and
        SM-utilisation analysis read it.
        """
        return self.simulation.to_trace_bundle()

    @property
    def iteration_time_us(self) -> float:
        """Replayed per-iteration execution time in microseconds."""
        return self.base_run.iteration_time_us

    @property
    def iteration_time_ms(self) -> float:
        """Replayed per-iteration execution time in milliseconds."""
        return self.iteration_time_us / 1000.0

    def breakdown(self) -> ExecutionBreakdown:
        """Execution breakdown of the replayed iteration."""
        return compute_breakdown(self.base_run)

    @cached_property
    def stream_plan(self) -> StreamPlan | None:
        """The continuous-batching plan ``graph`` carries, or ``None``."""
        return stream_plan_of(self.graph.metadata)

    def serving_metrics(self, deadline_ms: float | None = None) -> ServingMetrics | None:
        """Per-request serving metrics, or ``None`` without a stream plan."""
        if self.stream_plan is None:
            return None
        return compute_serving_metrics(self.base_run, self.stream_plan,
                                       deadline_ms=deadline_ms)

    def session(self) -> SimulationSession:
        """A fresh simulation session over this replay's compiled graph."""
        return SimulationSession(self.compiled)


def replay(traces: TraceBundle | KinetoTrace | None = None,
           options: GraphBuilderOptions | None = None,
           graph: ExecutionGraph | None = None) -> ReplayResult:
    """Replay a profiled trace (or a pre-built / manipulated graph).

    Parameters
    ----------
    traces:
        The profiled trace bundle.  Optional when ``graph`` is given (and
        ignored then); exactly one of ``traces`` / ``graph`` is required.
    options:
        Graph-builder options; the defaults are the full Lumos dependency
        model.
    graph:
        An already-constructed or manipulated execution graph to simulate
        instead of building one from ``traces``.
    """
    if graph is None:
        if traces is None:
            raise ValueError("replay() requires traces or a pre-built graph")
        graph = GraphBuilder(options).build(traces)
    return ReplayResult(graph=graph,
                        base_run=SimulationSession(compile_graph(graph)).run())


def simulate_graph(graph: ExecutionGraph) -> ReplayResult:
    """Simulate an execution graph that was built or manipulated separately."""
    return replay(graph=graph)
