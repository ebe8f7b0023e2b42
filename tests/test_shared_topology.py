"""Re-timed graphs share their parent's edges and compiled topology.

Serving, hardware and data-parallel derives only re-time tasks, so they
return copy-on-write clones of the graph they start from
(:meth:`ExecutionGraph.clone`) and :func:`compile_graph` reuses the
topology arrays of whichever graph of the family compiled first.  These
tests pin that the reuse is exact — every array equals a fresh full
compile and every simulated start is equal — and that the sharing never
leaks: edges added to the parent or to the clone stay their own.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.api import Study
from repro.core import engine
from repro.core.engine import SimulationSession, compile_graph
from repro.core.graph import ExecutionGraph
from repro.core.tasks import DependencyType, Task, TaskKind
from tests.test_goldens import _CASES

#: CompiledGraph fields that are numpy arrays / plain values.
_ARRAYS = ("durations", "indegree", "succ_indptr", "succ_indices", "topological",
           "proc_index", "stream_slot", "stream_total", "group_id")
_VALUES = ("index_of", "n_procs", "n_streams", "sync_slots", "group_members")

#: Every golden serving, stream, hardware, DP and composite target, per case.
_RETIMING_TARGETS = {
    "study_tiny_2x2x2": ("gpu=H200-SXM", "2x2x4", "parallelism=2x2x4,gpu=H200-SXM"),
    "study_tiny_serving_2x1x1": ("gpu=H200-SXM", "batch=16,gpu=H200-SXM",
                                 "batch=16", "prompt=1024", "tp=1"),
    "study_tiny_stream_2x1x1": ("serving:prompt=1024",),
}


def _detached_copy(graph: ExecutionGraph) -> ExecutionGraph:
    """The same tasks and edges in a graph that shares nothing."""
    copy = ExecutionGraph(metadata=dict(graph.metadata))
    for task in graph.tasks.values():
        copy.add_task(task)
    for dependency in graph.dependencies:
        copy.add_dependency(dependency.src, dependency.dst, dependency.dep_type)
    return copy


def _assert_compiled_equal(reused, fresh) -> None:
    assert reused.tasks == fresh.tasks
    for name in _ARRAYS:
        assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
    for name in _VALUES:
        assert getattr(reused, name) == getattr(fresh, name), name


@pytest.fixture(scope="module", params=sorted(_RETIMING_TARGETS))
def golden_study(request):
    case = _CASES[request.param]
    study = Study.from_emulation(case["model"], case["parallelism"],
                                 case.get("training"),
                                 inference=case.get("inference"),
                                 iterations=1, seed=case["seed"])
    return study, _RETIMING_TARGETS[request.param]


class TestGoldenTargets:
    def test_reused_compile_equals_full_compile(self, golden_study):
        study, targets = golden_study
        for target in targets:
            prediction = study.predict(target)
            run = prediction.result.base_run
            fresh = compile_graph(_detached_copy(prediction.graph))
            _assert_compiled_equal(run.compiled, fresh)
            again = SimulationSession(fresh).run()
            assert run.starts.tolist() == again.starts.tolist(), target
            assert run.iteration_time_us == again.iteration_time_us

    def test_single_axis_targets_reuse_the_base_arrays(self, golden_study):
        study, targets = golden_study
        base = study.replay().compiled
        for target in targets:
            compiled = study.predict(target).result.base_run.compiled
            assert compiled.succ_indices is base.succ_indices, target
            assert compiled.topological is base.topological, target
            assert compiled.topology_cache is base.topology_cache, target
            assert set(compiled.graph.tasks) == set(study.base_graph.tasks)


class TestFullBuildCount:
    def test_cold_retiming_predicts_build_no_topology(self, monkeypatch):
        case = _CASES["study_tiny_serving_2x1x1"]
        study = Study.from_emulation(case["model"], case["parallelism"],
                                     inference=case["inference"],
                                     iterations=1, seed=case["seed"])
        study.replay()
        builds = []
        original = engine._build_topology

        def counting(*args, **kwargs):
            builds.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_build_topology", counting)
        study.predict("gpu=H200-SXM")
        study.predict("serving:tp=4")
        assert builds == []
        # A DP change is a re-timing too; a structural (PP) derive still
        # builds its own topology, exactly once.
        training = _CASES["study_tiny_2x2x2"]
        trained = Study.from_emulation(training["model"], training["parallelism"],
                                       training["training"], iterations=1,
                                       seed=training["seed"])
        trained.replay()
        builds.clear()
        trained.predict("2x2x4")
        trained.predict("parallelism=2x2x4,gpu=H200-SXM")
        assert builds == []
        trained.predict("2x1x2")
        assert builds == [len(trained.predict("2x1x2").graph)]


def _chain_graph() -> ExecutionGraph:
    graph = ExecutionGraph()
    for index in range(4):
        graph.add_task(Task(task_id=index, rank=0, kind=TaskKind.GPU,
                            name=f"k{index}", duration=1.0 + index, stream=7))
    graph.add_dependency(0, 1, DependencyType.GPU_INTRA_STREAM)
    graph.add_dependency(1, 2, DependencyType.GPU_INTRA_STREAM)
    return graph


class TestCopyOnWrite:
    def test_parent_edges_stay_out_of_the_clone(self):
        parent = _chain_graph()
        parent_compiled = compile_graph(parent)
        clone = parent.clone()
        parent.add_dependency(2, 3, DependencyType.GPU_INTRA_STREAM)
        assert len(parent.dependencies) == 3 and len(clone.dependencies) == 2
        assert parent.successors(2) == [3] and clone.successors(2) == []
        assert parent.predecessors(3) == [2] and clone.predecessors(3) == []
        # The clone still reuses the parent's original compile; the
        # changed parent compiles fully.
        assert compile_graph(clone).indegree is parent_compiled.indegree
        changed = compile_graph(parent)
        assert changed.indegree.tolist() == [0, 1, 1, 1]

    def test_clone_edges_stay_out_of_the_parent(self):
        parent = _chain_graph()
        parent_compiled = compile_graph(parent)
        clone = parent.clone()
        clone.add_dependency(2, 3, DependencyType.GPU_INTRA_STREAM)
        assert len(parent.dependencies) == 2 and len(clone.dependencies) == 3
        assert parent.successors(2) == [] and clone.successors(2) == [3]
        assert parent.predecessors(3) == [] and clone.predecessors(3) == [2]
        changed = compile_graph(clone)
        assert changed.indegree is not parent_compiled.indegree
        _assert_compiled_equal(changed, compile_graph(_detached_copy(clone)))
        assert compile_graph(parent).indegree is parent_compiled.indegree

    def test_added_task_compiles_fully(self):
        parent = _chain_graph()
        compile_graph(parent)
        clone = parent.clone()
        clone.add_task(Task(task_id=4, rank=0, kind=TaskKind.CPU, name="op",
                            duration=2.0, thread=1))
        compiled = compile_graph(clone)
        assert compiled.n_tasks == 5 and compiled.n_procs == 2

    def test_clone_before_compile_shares_the_first_build(self):
        parent = _chain_graph()
        clone = parent.clone()
        assert compile_graph(clone).topological is compile_graph(parent).topological

    def test_retimed_durations_are_the_clone_own(self):
        parent = _chain_graph()
        base = compile_graph(parent)
        retimed = {task_id: task.copy() for task_id, task in parent.tasks.items()}
        retimed[0].duration = 9.0
        compiled = compile_graph(parent.clone(tasks=retimed))
        assert compiled.durations.tolist() == [9.0, 2.0, 3.0, 4.0]
        assert base.durations.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_analysis_cache_is_shared(self):
        parent = _chain_graph()
        base = compile_graph(parent)
        calls = []
        base.cached("names", lambda compiled: calls.append(1) or "built")
        clone = compile_graph(parent.clone())
        assert clone.cached("names", lambda compiled: "rebuilt") == "built"
        assert calls == [1]


class TestLifetime:
    def test_pickled_graph_drops_the_topology_link(self):
        parent = _chain_graph()
        compiled = compile_graph(parent)
        restored = pickle.loads(pickle.dumps(parent.clone()))
        assert restored._topology is None
        _assert_compiled_equal(compile_graph(restored), compiled)

    def test_topology_link_makes_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            parent = _chain_graph()
            clone = parent.clone()
            compiled = compile_graph(clone)
            compiled.cached("names", lambda c: [t.name for t in c.tasks])
            refs = [weakref.ref(parent), weakref.ref(clone), weakref.ref(compiled)]
            del parent, clone, compiled
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
