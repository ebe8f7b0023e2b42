"""A data-parallel derive is an exact, copy-on-write re-timing.

:func:`scale_data_parallelism` keeps the base graph's task ids and shares
its edges and compiled topology; only the ``dp`` collectives are copied
and re-timed.  These tests compare it, exactly, against the renumbering
derive it replaced (frozen in :mod:`tests.reference_data_parallel`): the
same iteration time, the same breakdown and, through the old id map, the
same start time for every task.  They also pin that the shared compile
equals a full one, that the base graph is never written through the
sharing, and that a timeline export is byte-identical to the renumbering
derive's.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.api import Study
from repro.cli import main
from repro.core.breakdown import compute_breakdown
from repro.core.engine import SessionRun, SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.manipulation import retarget_hardware, scale_data_parallelism
from repro.core.perf_model import KernelPerfModel
from repro.core.replay import replay
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import resolve_gpu
from repro.workload.parallelism import ParallelismConfig
from tests.reference_data_parallel import reference_scale_data_parallelism
from tests.test_goldens import _CASES
from tests.test_shared_topology import _assert_compiled_equal, _detached_copy

#: Golden cases and their DP (and DP-prefixed composite) targets.
_GOLDEN_TARGETS = {
    "study_tiny_2x2x2": ("2x2x4", "parallelism=2x2x4,gpu=H200-SXM"),
    "study_tiny_1x2x2": ("1x2x4",),
}

#: SHA-256 of ``export-timeline --target 2x2x8`` over the small gpt3-15b
#: ``2x2x2`` trace below, as the renumbering derive wrote it.
_TIMELINE_SHA256 = "ac29a8a8c8b2b2a4189919bfe26c1e0b3516c718aadba53dc72430a95102ebcf"

_WORKLOAD_FLAGS = ["--model", "gpt3-15b", "--parallelism", "2x2x2",
                   "--micro-batch-size", "1", "--num-microbatches", "2"]


def _run(graph: ExecutionGraph) -> SessionRun:
    return SimulationSession(compile_graph(graph)).run()


def _reference_derive(graph: ExecutionGraph, base_parallel: ParallelismConfig,
                      target: ParallelismConfig, perf_model) -> ExecutionGraph:
    """The renumbering derive, on the cluster the dispatcher sizes."""
    cluster = ClusterSpec.for_world_size(max(base_parallel.world_size,
                                             target.world_size))
    return reference_scale_data_parallelism(graph, base_parallel, target.dp,
                                            perf_model, cluster=cluster)


def _assert_same_schedule(run: SessionRun, base: ExecutionGraph,
                          reference_run: SessionRun) -> None:
    """Equal times; starts equal through the renumbering derive's id map.

    The renumbering derive added the base tasks in trace order, so a
    base task's id there is its position in :meth:`ExecutionGraph.task_list`.
    """
    assert run.iteration_time_us == reference_run.iteration_time_us
    assert compute_breakdown(run) == compute_breakdown(reference_run)
    for new_id, task in enumerate(base.task_list()):
        assert run.start_of(task.task_id) == reference_run.start_of(new_id), task.name


def _task_state(graph: ExecutionGraph) -> bytes:
    return pickle.dumps(sorted((task_id, task.duration, task.args)
                               for task_id, task in graph.tasks.items()))


@pytest.fixture(scope="module", params=sorted(_GOLDEN_TARGETS))
def golden_study(request):
    case = _CASES[request.param]
    study = Study.from_emulation(case["model"], case["parallelism"],
                                 case["training"], iterations=1,
                                 seed=case["seed"])
    return study, _GOLDEN_TARGETS[request.param]


@pytest.fixture(scope="module")
def generated(small_replay, small_parallel, small_cluster):
    """The generated tiny base graph, its parallelism and its calibration."""
    graph = small_replay.graph
    return graph, small_parallel, KernelPerfModel.calibrate(graph, small_cluster)


class TestMatchesRenumberingDerive:
    def test_golden_targets(self, golden_study):
        study, targets = golden_study
        base = study.base_graph
        for target in targets:
            label, _, gpu = target.removeprefix("parallelism=").partition(",gpu=")
            parallel = ParallelismConfig.parse(label)
            reference = _reference_derive(base, study.base_parallel, parallel,
                                          study.perf_model)
            if gpu:
                reference = retarget_hardware(
                    reference, resolve_gpu(gpu), base_model=study.base_model,
                    base_parallel=study.base_parallel,
                    perf_model=study.perf_model, base_cluster=study.cluster)
            prediction = study.predict(target)
            assert set(prediction.graph.tasks) == set(base.tasks), target
            _assert_same_schedule(prediction.result.base_run, base,
                                  _run(reference))

    @pytest.mark.parametrize("dp", [1, 16])
    def test_generated_base(self, generated, dp):
        graph, base_parallel, perf_model = generated
        target = base_parallel.with_changes(data_parallel=dp)
        cluster = ClusterSpec.for_world_size(max(base_parallel.world_size,
                                                 target.world_size))
        derived = scale_data_parallelism(graph, base_parallel, dp, perf_model,
                                         cluster=cluster)
        reference = _reference_derive(graph, base_parallel, target, perf_model)
        assert derived.metadata == reference.metadata
        _assert_same_schedule(_run(derived), graph, _run(reference))


class TestCopyOnWrite:
    @pytest.mark.parametrize("dp", [1, 4, 16])
    def test_shared_compile_equals_full_compile(self, generated, dp):
        graph, base_parallel, perf_model = generated
        base_compiled = compile_graph(graph)
        derived = scale_data_parallelism(graph, base_parallel, dp, perf_model)
        compiled = compile_graph(derived)
        assert compiled.succ_indices is base_compiled.succ_indices
        assert compiled.topology_cache is base_compiled.topology_cache
        _assert_compiled_equal(compiled, compile_graph(_detached_copy(derived)))

    def test_only_dp_collectives_are_copied(self, generated):
        graph, base_parallel, perf_model = generated
        derived = scale_data_parallelism(graph, base_parallel, 8, perf_model)
        copied = {task_id for task_id, task in derived.tasks.items()
                  if task is not graph.tasks[task_id]}
        dp = {task_id for task_id, task in graph.tasks.items()
              if task.args.get("group") == "dp" and task.args.get("collective")}
        assert copied == dp and dp
        assert all(derived.tasks[task_id].args["group_size"] == 8 for task_id in dp)

    def test_base_degree_is_the_identity(self, generated):
        graph, base_parallel, perf_model = generated
        derived = scale_data_parallelism(graph, base_parallel, base_parallel.dp,
                                         perf_model)
        assert _task_state(derived) == _task_state(graph)
        assert _run(derived).starts.tolist() == _run(graph).starts.tolist()

    def test_base_tasks_survive_predicts_and_whatifs(self, golden_study):
        study, targets = golden_study
        before = _task_state(study.base_graph)
        for target in targets:
            study.predict(target)
            study.whatif("communication", target=target, speedup=4.0)
            study.whatif("kernel_class", target=target, op_class="gemm")
        study.release()
        assert _task_state(study.base_graph) == before
        assert replay(graph=study.base_graph).iteration_time_us == study.base_time_us


def test_timeline_export_is_unchanged(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    output = tmp_path / "timeline.json"
    assert main(["emulate", *_WORKLOAD_FLAGS, "--iterations", "1",
                 "--output", str(bundle)]) == 0
    assert main(["export-timeline", "--trace", str(bundle), *_WORKLOAD_FLAGS,
                 "--target", "2x2x8", "--output", str(output)]) == 0
    assert hashlib.sha256(output.read_bytes()).hexdigest() == _TIMELINE_SHA256
