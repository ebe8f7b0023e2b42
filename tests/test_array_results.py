"""Array-native prediction results against the object-walking paths.

Predictions and replays keep their :class:`~repro.core.engine.SessionRun`
and read the iteration time, the execution breakdown and serving metrics
from its arrays; the ``SimulationResult`` and the replayed trace bundle
are built only on demand.  Every comparison here is exact (``==`` on
floats): the array paths must reproduce the bundle breakdown
(``tests/reference_results.py`` keeps the original list-based code), the
bundle's iteration time and the dict-walk serving metrics bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Study
from repro.cli import main
from repro.core.breakdown import compute_breakdown, rank_breakdown
from repro.core.engine import SessionRun, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.replay import simulate_graph
from repro.core.serving_metrics import metrics_from_task_times, stream_plan_of
from repro.core.simulator import SimulationResult
from repro.core.tasks import DependencyType, Task, TaskKind
from repro.trace.events import Category, TraceEvent
from repro.trace.kineto import KinetoTrace
from tests.conftest import hyp_max_examples
from tests.reference_results import (
    reference_compute_breakdown,
    reference_rank_breakdown,
    reference_serving_metrics,
)
from tests.test_goldens import _CASES

DEADLINES = (None, 0.001, 1.0, 250.0, 500.0, 1000.0, 2000.0)


def _bundle_breakdown(run: SessionRun):
    return reference_compute_breakdown(run.to_simulation_result().to_trace_bundle())


def _assert_matches_bundle(run: SessionRun) -> None:
    bundle = run.to_simulation_result().to_trace_bundle()
    expected = reference_compute_breakdown(bundle)
    assert compute_breakdown(run) == expected
    assert compute_breakdown(bundle) == expected
    assert run.iteration_time_us == bundle.iteration_time()


# -- every golden target --------------------------------------------------------


@pytest.fixture(scope="module", params=sorted(_CASES))
def golden_results(request):
    """(label, ReplayResult) for the base replay and every golden target."""
    case = _CASES[request.param]
    study = Study.from_emulation(case["model"], case["parallelism"],
                                 case.get("training"),
                                 inference=case.get("inference"),
                                 iterations=1, seed=case["seed"])
    results = [("base", study.replay())]
    for target in case.get("predict_targets", ()):
        results.append((target, study.predict(target).result))
    for target in case.get("serving_targets", ()):
        results.append((target, study.predict(f"serving:{target}").result))
    return request.param, results


class TestGoldenTargets:
    def test_breakdown_and_iteration_time_match_bundle(self, golden_results):
        _, results = golden_results
        for _, result in results:
            _assert_matches_bundle(result.base_run)

    def test_serving_metrics_match_dict_walk(self, golden_results):
        name, results = golden_results
        scored = 0
        for _, result in results:
            plan = stream_plan_of(result.graph.metadata)
            if plan is None:
                assert result.serving_metrics() is None
                continue
            simulation = result.base_run.to_simulation_result()
            for deadline in DEADLINES:
                assert result.serving_metrics(deadline) == \
                    reference_serving_metrics(simulation, plan, deadline)
            scored += 1
        assert scored > 0 or "stream" not in name

    def test_whatif_rows_match_dict_walk(self):
        # The batched what-if path scores rescaled runs of the same graph.
        result = _emulated("study_tiny_stream_2x1x1").replay()
        plan = stream_plan_of(result.graph.metadata)
        session = result.session()
        durations, _ = result.compiled.scaled_durations(
            lambda task: task.kind == TaskKind.GPU, 3.0)
        run = session.run(durations=durations)
        simulation = run.to_simulation_result()
        for deadline in DEADLINES:
            assert metrics_from_task_times(result.compiled, run.starts, run.durations,
                                           plan, deadline_ms=deadline) == \
                reference_serving_metrics(simulation, plan, deadline)
        _assert_matches_bundle(run)


# -- generated graphs -----------------------------------------------------------

_GPU_CATEGORIES = st.sampled_from(["", Category.KERNEL, Category.GPU_MEMCPY,
                                   Category.GPU_MEMSET])
_CPU_CATEGORIES = st.sampled_from(["", Category.CPU_OP, Category.CUDA_RUNTIME])
_KERNEL_NAMES = st.sampled_from(["gemm", "flash_attn", "ncclAllReduceRing",
                                 "reduce_all_reduce_kernel", "AllReduce_fused",
                                 "Memcpy DtoD"])
_DURATIONS = st.floats(min_value=0.0, max_value=500.0, allow_nan=False,
                       allow_infinity=False)


@st.composite
def timed_graphs(draw):
    """Random DAGs over up to three ranks with mixed kernel categories.

    Some ranks end up with CPU tasks only, some kernels are tagged
    ``collective`` in their args instead of by name.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    graph = ExecutionGraph()
    tasks = []
    for _ in range(n):
        rank = draw(st.integers(min_value=0, max_value=2))
        duration = draw(_DURATIONS)
        if draw(st.booleans()):
            args = {"collective": "all_reduce"} if draw(st.booleans()) else {}
            task = Task(task_id=-1, rank=rank, kind=TaskKind.GPU,
                        name=draw(_KERNEL_NAMES), duration=duration,
                        stream=draw(st.sampled_from([7, 20, 21])),
                        category=draw(_GPU_CATEGORIES), args=args)
        else:
            task = Task(task_id=-1, rank=rank, kind=TaskKind.CPU, name="op",
                        duration=duration, thread=draw(st.sampled_from([1, 2])),
                        category=draw(_CPU_CATEGORIES))
        tasks.append(graph.add_task(task))
    for dst in range(1, n):
        for src in draw(st.lists(st.integers(0, dst - 1), max_size=2, unique=True)):
            graph.add_dependency(tasks[src].task_id, tasks[dst].task_id,
                                 DependencyType.CPU_INTRA_THREAD)
    return graph


class TestGeneratedGraphs:
    @settings(max_examples=hyp_max_examples(150), deadline=None)
    @given(timed_graphs())
    def test_breakdown_and_iteration_time_match_bundle(self, graph):
        run = SimulationSession(compile_graph(graph)).run()
        bundle = run.to_simulation_result().to_trace_bundle()
        assert compute_breakdown(run) == reference_compute_breakdown(bundle)
        assert run.iteration_time_us == float(run.ends.max() - run.starts.min())
        first_start = {}
        for task, start in zip(run.compiled.tasks, run.starts.tolist()):
            first_start[task.rank] = min(start, first_start.get(task.rank, start))
        if all(start == run.start_time for start in first_start.values()):
            assert run.iteration_time_us == bundle.iteration_time()
        else:
            # A rank whose first task starts late gets its bundle window
            # closed at ``first + (last - first)``: within an ulp of ``last``.
            assert abs(run.iteration_time_us - bundle.iteration_time()) <= \
                2 * np.spacing(run.ends.max())

    @settings(max_examples=hyp_max_examples(60), deadline=None)
    @given(timed_graphs(), st.floats(min_value=0.0, max_value=1e6,
                                     allow_nan=False, allow_infinity=False))
    def test_breakdown_matches_bundle_with_offset(self, graph, start_time):
        run = SimulationSession(compile_graph(graph)).run(start_time=start_time)
        assert compute_breakdown(run) == _bundle_breakdown(run)

    def test_rank_without_kernels(self):
        graph = ExecutionGraph()
        launch = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.CPU, name="op",
                                     duration=5.0, thread=1))
        kernel = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.GPU,
                                     name="gemm", duration=7.5, stream=7))
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        graph.add_task(Task(task_id=-1, rank=1, kind=TaskKind.CPU, name="op",
                            duration=3.0, thread=1))
        run = SimulationSession(compile_graph(graph)).run()
        _assert_matches_bundle(run)
        breakdown = compute_breakdown(run)
        assert breakdown.exposed_compute == 7.5 / 2  # rank 1 contributes 0

    def test_kernel_clipped_by_rank_window(self):
        # The bundle closes a rank's window at ``first + (last - first)``,
        # which rounds below the last kernel's end for these values.
        start_time, launch_us, kernel_us = (25.54394786050407, 61.994258283826085,
                                            40.02750703100243)
        graph = ExecutionGraph()
        launch = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.CPU, name="op",
                                     duration=launch_us, thread=1))
        kernel = graph.add_task(Task(task_id=-1, rank=0, kind=TaskKind.GPU,
                                     name="gemm", duration=kernel_us, stream=7))
        graph.add_dependency(launch.task_id, kernel.task_id, DependencyType.CPU_TO_GPU)
        run = SimulationSession(compile_graph(graph)).run(start_time=start_time)
        end = float(run.ends.max())
        assert start_time + (end - start_time) < end
        assert compute_breakdown(run) == _bundle_breakdown(run)

    def test_empty_graph(self):
        run = SimulationSession(compile_graph(ExecutionGraph())).run()
        _assert_matches_bundle(run)


_INTERVALS = st.lists(st.tuples(_DURATIONS, _DURATIONS, st.booleans()), max_size=25)


class TestTraceBreakdown:
    @settings(max_examples=hyp_max_examples(150), deadline=None)
    @given(_INTERVALS, _DURATIONS, _DURATIONS)
    def test_window_clipping_matches_reference(self, intervals, start, length):
        # Kernels straddle, touch or miss an explicit profiler-step window.
        events = [TraceEvent("ProfilerStep#0", Category.USER_ANNOTATION, start,
                             length, 0, 0)]
        for index, (ts, dur, is_comm) in enumerate(intervals):
            name = "ncclKernel" if is_comm and index % 2 else "gemm"
            args = {"collective": "all_reduce"} if is_comm and not index % 2 else {}
            events.append(TraceEvent(name, Category.KERNEL, ts, dur, 0, 7, args))
        trace = KinetoTrace(rank=0, events=events)
        assert rank_breakdown(trace) == reference_rank_breakdown(trace)

    def test_profiled_bundle_matches_reference(self, profiled_bundle):
        assert compute_breakdown(profiled_bundle) == \
            reference_compute_breakdown(profiled_bundle)


# -- laziness -------------------------------------------------------------------


@pytest.fixture
def materialization_calls(monkeypatch):
    calls = {"to_simulation_result": 0, "to_trace_bundle": 0}
    to_simulation_result = SessionRun.to_simulation_result
    to_trace_bundle = SimulationResult.to_trace_bundle

    def counted_simulation_result(self):
        calls["to_simulation_result"] += 1
        return to_simulation_result(self)

    def counted_trace_bundle(self):
        calls["to_trace_bundle"] += 1
        return to_trace_bundle(self)

    monkeypatch.setattr(SessionRun, "to_simulation_result", counted_simulation_result)
    monkeypatch.setattr(SimulationResult, "to_trace_bundle", counted_trace_bundle)
    return calls


def _emulated(case_name: str) -> Study:
    case = _CASES[case_name]
    return Study.from_emulation(case["model"], case["parallelism"], case.get("training"),
                                inference=case.get("inference"), iterations=1,
                                seed=case["seed"])


def _reopened(case_name: str) -> Study:
    """A study over the case's trace, opened the way traces from disk are."""
    case = _CASES[case_name]
    return Study.from_trace(_emulated(case_name).trace, model=case["model"],
                            parallelism=case["parallelism"], training=case.get("training"),
                            inference=case.get("inference"))


class TestLaziness:
    def test_predictions_read_arrays_only(self, materialization_calls):
        training = _reopened("study_tiny_2x2x2")
        assert training.base_time_us > 0
        prediction = training.predict("2x2x4")
        assert prediction.iteration_time_us > 0
        assert prediction.breakdown().total > 0
        assert prediction.serving_metrics() is None
        assert training.breakdown().total > 0

        stream = _reopened("study_tiny_stream_2x1x1")
        assert stream.base_serving_metrics(deadline_ms=250.0) is not None
        prediction = stream.predict("serving:prompt=1024")
        assert prediction.iteration_time_us > 0
        assert prediction.breakdown().total > 0
        assert prediction.serving_metrics().num_requests > 0
        assert materialization_calls == {"to_simulation_result": 0, "to_trace_bundle": 0}

    def test_replayed_trace_materializes_once_on_demand(self, materialization_calls):
        study = _emulated("study_tiny_1x2x2")
        result = study.predict("1x2x4").result
        assert materialization_calls == {"to_simulation_result": 0, "to_trace_bundle": 0}
        trace = result.replayed_trace
        assert result.replayed_trace is trace
        assert result.simulation is result.simulation
        assert materialization_calls == {"to_simulation_result": 1, "to_trace_bundle": 1}
        assert trace.iteration_time() == result.iteration_time_us
        assert simulate_graph(result.graph).breakdown() == result.breakdown()


# -- timeline export ------------------------------------------------------------

#: SHA-256 of ``export-timeline`` output for the emulations below, as
#: rendered when predictions still built their trace bundles eagerly.
_TIMELINE_DIGESTS = {
    "train": "a9a177c85661ccfa08b7d0be1539b1e075bbdfa043e2538814b5402735a52c8c",
    "stream": "2a63b1595707696494c3ea8e641c08925a76d715a7cd6895b46b2f32362949cd",
}
_TIMELINE_RUNS = {
    "train": (["--model", "gpt3-15b", "--parallelism", "2x2x2", "--micro-batch-size", "1",
               "--num-microbatches", "2", "--iterations", "1"],
              ["--model", "gpt3-15b", "--parallelism", "2x2x2", "--micro-batch-size", "1",
               "--num-microbatches", "2", "--target", "2x2x4"]),
    "stream": (["--workload", "serving", "--model", "gpt3-15b", "--parallelism", "2x1x1",
                "--requests", "4", "--prompt-length", "64", "--decode-length", "2",
                "--arrival", "poisson:rate=600,n=6,seed=3", "--iterations", "1"],
               ["--model", "gpt3-15b", "--parallelism", "2x1x1",
                "--target", "serving:prompt=128"]),
}


@pytest.mark.parametrize("name", sorted(_TIMELINE_RUNS))
def test_export_timeline_is_byte_identical(name, tmp_path, capsys):
    emulate_args, export_args = _TIMELINE_RUNS[name]
    bundle, output = tmp_path / "bundle", tmp_path / "timeline.json"
    assert main(["emulate", *emulate_args, "--output", str(bundle)]) == 0
    assert main(["export-timeline", "--trace", str(bundle), *export_args,
                 "--output", str(output)]) == 0
    assert hashlib.sha256(output.read_bytes()).hexdigest() == _TIMELINE_DIGESTS[name]


def test_iteration_time_matches_bundle_on_fixture(small_graph):
    run = SimulationSession(compile_graph(small_graph)).run()
    _assert_matches_bundle(run)
