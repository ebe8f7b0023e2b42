"""Verbatim copy of the renumbering data-parallel manipulation, kept as a test oracle.

:func:`repro.core.manipulation.scale_data_parallelism` derives a DP target
as a copy-on-write re-timing that keeps the base graph's task ids and
shares its edges and compiled topology.  This module preserves the
earlier derive, which copied every task into a fresh graph in trace
order (new ids) and re-added every edge, so ``tests/test_data_parallel.py``
can assert that the two give exactly equal iteration times, breakdowns
and per-task start times.

Do not "improve" this file: its value is that it stays frozen.
"""

from __future__ import annotations

from repro.core.graph import ExecutionGraph
from repro.core.perf_model import KernelPerfModel
from repro.core.tasks import TaskKind
from repro.hardware.cluster import ClusterSpec
from repro.workload.parallelism import ParallelismConfig


def reference_scale_data_parallelism(graph: ExecutionGraph,
                                     base_parallel: ParallelismConfig,
                                     new_data_parallel: int,
                                     perf_model: KernelPerfModel,
                                     cluster: ClusterSpec | None = None,
                                     ) -> ExecutionGraph:
    """Derive the execution graph for a new data-parallel degree.

    Parameters
    ----------
    graph:
        Execution graph built from the base configuration's trace.
    base_parallel:
        The base TP×PP×DP configuration the trace was collected with.
    new_data_parallel:
        Target data-parallel degree (>= 1).
    perf_model:
        Kernel performance model (calibrated from the base trace) used to
        re-time the data-parallel collectives.
    cluster:
        Cluster hosting the target configuration; defaults to a cluster
        sized exactly for the target world size.
    """
    if new_data_parallel < 1:
        raise ValueError("data parallel degree must be >= 1")
    target_parallel = base_parallel.with_changes(data_parallel=new_data_parallel)
    if cluster is None:
        cluster = ClusterSpec.for_world_size(target_parallel.world_size)
    target_groups = target_parallel.groups()
    base_groups = base_parallel.groups()

    new_graph = ExecutionGraph(metadata={
        **graph.metadata,
        "manipulated": "data_parallel",
        "parallelism": target_parallel.label(),
    })
    id_map: dict[int, int] = {}
    for task in graph.task_list():
        clone = task.copy()
        clone.task_id = -1
        if (clone.kind == TaskKind.GPU and clone.args.get("group") == "dp"
                and clone.args.get("collective")):
            old_ranks = tuple(clone.args.get("group_ranks", ()))
            if not old_ranks:
                old_ranks = base_groups.dp_group(task.rank).ranks
            # The representative rank keeps its pipeline-stage coordinates;
            # only its data-parallel group changes size and node placement.
            stage = min(base_groups.pp_index(task.rank), target_parallel.pp - 1)
            new_rank = target_groups.rank_of(0, 0, stage)
            new_ranks = target_groups.dp_group(new_rank).ranks
            size_bytes = float(clone.args.get("size_bytes", 0.0))
            scaled_model = KernelPerfModel(cluster=cluster, dtype_bytes=perf_model.dtype_bytes,
                                           calibration=dict(perf_model.calibration))
            if new_data_parallel == 1:
                clone.duration = 0.0
            else:
                clone.duration = scaled_model.scale_collective(
                    task.duration, kind=str(clone.args["collective"]),
                    old_size=size_bytes, old_ranks=old_ranks,
                    new_size=size_bytes, new_ranks=new_ranks)
            clone.args["group_ranks"] = list(new_ranks)
            clone.args["group_size"] = len(new_ranks)
        id_map[task.task_id] = new_graph.add_task(clone).task_id

    for dependency in graph.dependencies:
        new_graph.add_dependency(id_map[dependency.src], id_map[dependency.dst],
                                 dependency.dep_type)
    return new_graph
