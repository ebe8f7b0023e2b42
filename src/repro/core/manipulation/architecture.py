"""Model-architecture manipulation.

Per §3.4 / §4.3.2 of the paper:

* changing the **number of layers** duplicates (or drops) layers and their
  tasks, re-inserting them with the original dependency pattern;
* changing the **hidden size** or **feed-forward size** updates the input
  dimensions of the affected operators and re-estimates the execution time
  of the shape-sensitive kernels (GEMMs, attention, collectives) with the
  kernel performance model.

Both are expressed through template extraction + graph synthesis against a
modified :class:`~repro.workload.model_config.ModelConfig`.
"""

from __future__ import annotations

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.dispatch import (
    KIND_ARCHITECTURE,
    DeriveContext,
    refuse_training_manipulation,
    register_manipulation,
)
from repro.core.manipulation.synthesize import GraphSynthesizer
from repro.core.manipulation.templates import IterationTemplate, extract_iteration_template
from repro.core.perf_model import KernelPerfModel
from repro.hardware.cluster import ClusterSpec
from repro.workload.model_config import ModelConfig, gpt3_model
from repro.workload.parallelism import ParallelismConfig
from repro.workload.training import TrainingConfig


def change_architecture(graph: ExecutionGraph, base_model: ModelConfig,
                        base_parallel: ParallelismConfig, training: TrainingConfig,
                        target_model: ModelConfig, perf_model: KernelPerfModel,
                        cluster: ClusterSpec | None = None,
                        template: IterationTemplate | None = None) -> ExecutionGraph:
    """Derive the execution graph for a modified model architecture.

    The deployment configuration (TP×PP×DP) is kept; only the model changes,
    matching the paper's §4.3.2 evaluation where all variants train under
    the base parallelism configuration.  ``template`` is ``graph``'s
    iteration template when the caller already extracted it
    (:func:`extract_iteration_template`).
    """
    if cluster is None:
        cluster = ClusterSpec.for_world_size(base_parallel.world_size)
    if template is None:
        template = extract_iteration_template(graph, base_model, base_parallel, training)
    synthesizer = GraphSynthesizer(template, target_model, base_parallel, perf_model,
                                   training=training, cluster=cluster)
    return synthesizer.build()


@register_manipulation(KIND_ARCHITECTURE)
def _derive_architecture(graph: ExecutionGraph, label: str,
                         context: DeriveContext,
                         world_size: int) -> tuple[ExecutionGraph, int]:
    refuse_training_manipulation(KIND_ARCHITECTURE, context)
    target_model = context.target_model
    if target_model is None or target_model.name != label:
        try:
            target_model = gpt3_model(label)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from exc
    derived = change_architecture(graph, context.base_model,
                                  context.base_parallel, context.training,
                                  target_model, context.perf_model,
                                  cluster=context.cluster,
                                  template=context.iteration_template(graph))
    return derived, context.base_parallel.world_size
