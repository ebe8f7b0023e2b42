"""Extraction of reusable task templates from an execution graph.

The paper manipulates graphs by "grouping the tasks by layers" and reusing
them under new schedules and partitions.  :func:`extract_iteration_template`
performs that grouping: it pulls, from the profiled execution graph, the
per-layer forward/backward kernel sequences (including the tensor-parallel
collectives embedded in them), the embedding/head/optimizer sequences, the
data-parallel bucket and pipeline transfer samples, and the CPU-side
overheads.  Durations are medians across the observed micro-batches, which
smooths per-kernel jitter in the profiled iteration.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from repro.core.graph import ExecutionGraph
from repro.core.tasks import Task, TaskKind
from repro.trace.events import CudaRuntimeName
from repro.workload.model_config import ModelConfig
from repro.workload.parallelism import ParallelismConfig
from repro.workload.pipeline import stage_layers
from repro.workload.training import TrainingConfig


@dataclass
class KernelTemplate:
    """One kernel position of a reusable task group."""

    name: str
    op_name: str | None
    op_class: str | None
    stream: int
    duration: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def is_communication(self) -> bool:
        return bool(self.args.get("collective"))

    @property
    def comm_group(self) -> str | None:
        return self.args.get("group")

    def clone_args(self) -> dict[str, Any]:
        return dict(self.args)


@dataclass
class CpuOverheads:
    """CPU-side costs reused when synthesising a new graph."""

    launch_us: float = 7.0
    python_step_us: float = 60.0
    data_loader_us: float = 900.0
    iteration_end_us: float = 400.0
    sync_call_us: float = 5.0


@dataclass
class IterationTemplate:
    """Everything needed to rebuild one training iteration for a new configuration."""

    base_model: ModelConfig
    base_parallel: ParallelismConfig
    training: TrainingConfig
    layer_forward: dict[int, list[KernelTemplate]] = field(default_factory=dict)
    layer_backward: dict[int, list[KernelTemplate]] = field(default_factory=dict)
    embedding_forward: list[KernelTemplate] = field(default_factory=list)
    embedding_backward: list[KernelTemplate] = field(default_factory=list)
    head_forward: list[KernelTemplate] = field(default_factory=list)
    head_backward: list[KernelTemplate] = field(default_factory=list)
    optimizer: list[KernelTemplate] = field(default_factory=list)
    optimizer_stage_layers: int = 1
    optimizer_includes_embedding: bool = False
    dp_bucket_sample: KernelTemplate | None = None
    pp_send_sample: KernelTemplate | None = None
    pp_recv_sample: KernelTemplate | None = None
    cpu: CpuOverheads = field(default_factory=CpuOverheads)

    def layer_template(self, layer: int, phase: str) -> list[KernelTemplate]:
        """The kernel sequence of one observed layer for ``phase``.

        When the requested layer does not exist in the base model (the
        architecture manipulation may add layers), the template of an
        observed layer is reused, matching the paper's "duplicate the layers
        and corresponding tasks from the existing trace".
        """
        table = self.layer_forward if phase == "forward" else self.layer_backward
        if not table:
            raise ValueError("iteration template has no layer tasks")
        if layer in table:
            return table[layer]
        observed = sorted(table)
        return table[observed[layer % len(observed)]]


def _template_from_task(task: Task, duration: float | None = None) -> KernelTemplate:
    return KernelTemplate(
        name=task.name,
        op_name=task.args.get("op_name"),
        op_class=task.args.get("op_class"),
        stream=int(task.stream) if task.stream is not None else 0,
        duration=duration if duration is not None else task.duration,
        args=dict(task.args),
    )


def _median_by_op(tasks_by_microbatch: dict[int, list[Task]]) -> list[KernelTemplate]:
    """Build a template sequence with per-op median durations across micro-batches."""
    if not tasks_by_microbatch:
        return []
    reference_mb = max(tasks_by_microbatch, key=lambda mb: len(tasks_by_microbatch[mb]))
    reference = sorted(tasks_by_microbatch[reference_mb], key=lambda t: (t.trace_ts, t.task_id))

    durations: dict[tuple[str | None, int], list[float]] = defaultdict(list)
    for tasks in tasks_by_microbatch.values():
        counters: dict[str | None, int] = defaultdict(int)
        for task in sorted(tasks, key=lambda t: (t.trace_ts, t.task_id)):
            key = task.args.get("op_name") or task.name
            durations[(key, counters[key])].append(task.duration)
            counters[key] += 1

    templates: list[KernelTemplate] = []
    counters = defaultdict(int)
    for task in reference:
        key = task.args.get("op_name") or task.name
        samples = durations.get((key, counters[key]), [task.duration])
        counters[key] += 1
        templates.append(_template_from_task(task, duration=float(median(samples))))
    return templates


def extract_iteration_template(graph: ExecutionGraph, base_model: ModelConfig,
                               base_parallel: ParallelismConfig,
                               training: TrainingConfig) -> IterationTemplate:
    """Group the tasks of a profiled execution graph into reusable templates."""
    template = IterationTemplate(base_model=base_model, base_parallel=base_parallel,
                                 training=training)

    ranks = graph.ranks()
    if not ranks:
        raise ValueError("execution graph has no tasks")
    first_rank, last_rank = ranks[0], ranks[-1]

    layer_tasks: dict[tuple[int, str], dict[int, list[Task]]] = \
        defaultdict(lambda: defaultdict(list))
    no_layer_tasks: dict[tuple[int, str], dict[int, list[Task]]] = \
        defaultdict(lambda: defaultdict(list))
    optimizer_tasks: dict[int, list[Task]] = defaultdict(list)
    dp_samples: list[Task] = []
    pp_send_samples: list[Task] = []
    pp_recv_samples: list[Task] = []

    for task in graph.task_list():
        if task.kind != TaskKind.GPU:
            continue
        group = task.args.get("group")
        phase = task.phase
        if group == "dp":
            dp_samples.append(task)
            continue
        if group == "pp":
            kind = task.args.get("collective")
            (pp_send_samples if kind == "send" else pp_recv_samples).append(task)
            continue
        if phase == "optimizer":
            optimizer_tasks[task.rank].append(task)
            continue
        microbatch = task.microbatch if task.microbatch is not None else 0
        if task.layer is not None:
            layer_tasks[(int(task.layer), phase or "forward")][microbatch].append(task)
        else:
            no_layer_tasks[(task.rank, phase or "forward")][microbatch].append(task)

    for (layer, phase), by_microbatch in layer_tasks.items():
        table = template.layer_forward if phase == "forward" else template.layer_backward
        table[layer] = _median_by_op(by_microbatch)

    template.embedding_forward = _median_by_op(no_layer_tasks.get((first_rank, "forward"), {}))
    template.embedding_backward = _median_by_op(no_layer_tasks.get((first_rank, "backward"), {}))
    if last_rank != first_rank:
        template.head_forward = _median_by_op(no_layer_tasks.get((last_rank, "forward"), {}))
        template.head_backward = _median_by_op(no_layer_tasks.get((last_rank, "backward"), {}))

    optimizer_rank = last_rank if optimizer_tasks.get(last_rank) else first_rank
    template.optimizer = [_template_from_task(task) for task in
                          sorted(optimizer_tasks.get(optimizer_rank, []),
                                 key=lambda t: (t.trace_ts, t.task_id))]
    stage_index = ranks.index(optimizer_rank)
    template.optimizer_stage_layers = len(stage_layers(
        base_model.n_layers, base_parallel.pp, min(stage_index, base_parallel.pp - 1)))
    template.optimizer_includes_embedding = optimizer_rank == first_rank

    if dp_samples:
        sample = dp_samples[len(dp_samples) // 2]
        template.dp_bucket_sample = _template_from_task(
            sample, duration=float(median(t.duration for t in dp_samples)))
    if pp_send_samples:
        template.pp_send_sample = _template_from_task(
            pp_send_samples[0], duration=float(median(t.duration for t in pp_send_samples)))
    if pp_recv_samples:
        template.pp_recv_sample = _template_from_task(
            pp_recv_samples[0], duration=float(median(t.duration for t in pp_recv_samples)))

    template.cpu = _extract_cpu_overheads(graph)
    return template


class TemplateMemo:
    """The iteration template of one base graph, extracted on first use.

    Extraction reads only the graph and the base model, parallelism and
    training configuration, and graph synthesis never mutates the
    template, so one memo serves every pipeline and architecture derive
    over ``graph`` under that configuration
    (:meth:`~repro.core.manipulation.dispatch.DeriveContext.iteration_template`).
    A :class:`~repro.api.study.Study` keeps one next to its calibration.
    """

    __slots__ = ("graph", "template")

    def __init__(self, graph: ExecutionGraph) -> None:
        self.graph = graph
        self.template: IterationTemplate | None = None


def _extract_cpu_overheads(graph: ExecutionGraph) -> CpuOverheads:
    launch_durations: list[float] = []
    python_durations: list[float] = []
    first_task_duration = None
    last_task_duration = None
    for task in graph.task_list():
        if task.kind != TaskKind.CPU:
            continue
        if task.name in CudaRuntimeName.LAUNCHES:
            launch_durations.append(task.duration)
        elif task.category == "cpu_op":
            python_durations.append(task.duration)
            if first_task_duration is None:
                first_task_duration = task.duration
            last_task_duration = task.duration
    overheads = CpuOverheads()
    if launch_durations:
        overheads.launch_us = float(median(launch_durations))
    if python_durations:
        overheads.python_step_us = float(median(python_durations))
    if first_task_duration is not None:
        overheads.data_loader_us = float(first_task_duration)
    if last_task_duration is not None:
        overheads.iteration_end_us = float(last_task_duration)
    return overheads
