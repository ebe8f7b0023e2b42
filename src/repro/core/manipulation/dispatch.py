"""Single dispatch point for graph manipulations.

Every configuration a study can derive is a ``(kind, target)`` pair; this
module maps the kind onto the manipulation that implements it through a
registry the manipulation modules populate themselves
(:func:`register_manipulation`).  Adding a manipulation kind therefore
adds no branches to :mod:`repro.api.study` — the hardware axis and any
future kinds (e.g. MoE routing) register here and are immediately
reachable from ``predict``/``sweep``/the service.

Composite targets chain manipulations: ``kind`` and ``target`` carry
``+``-separated segments (``"serving+hardware"`` /
``"batch=64+gpu=B200"``) applied left to right, each handler re-deriving
the previous handler's graph.  The encoding keeps every cache, sweep
scenario and service payload a plain string pair.

Handlers raise :class:`ValueError` (optionally a :class:`ManipulationRefusal`
carrying a machine-readable ``code`` and the TP degrees of a refused
reshard); :func:`repro.api.study.derive_graph` maps them onto the typed
:class:`~repro.api.errors.PredictError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.graph import ExecutionGraph
from repro.core.manipulation.data_parallel import scale_data_parallelism
from repro.core.manipulation.pipeline_parallel import scale_pipeline_parallelism
from repro.core.manipulation.templates import (
    IterationTemplate,
    TemplateMemo,
    extract_iteration_template,
)
from repro.core.perf_model import KernelPerfModel
from repro.hardware.cluster import ClusterSpec
from repro.workload.parallelism import ParallelismConfig

if TYPE_CHECKING:
    from repro.hardware.gpu import GPUSpec
    from repro.workload.inference import InferenceConfig
    from repro.workload.model_config import ModelConfig
    from repro.workload.training import TrainingConfig

#: The kinds of target configuration a manipulation can produce.  Shared
#: vocabulary between the API facade (``repro.api``) and the sweep grid
#: (``repro.sweep``): ``baseline`` is the unmodified base graph,
#: ``parallelism`` a TPxPPxDP change, ``architecture`` a model change,
#: ``serving`` a batch/prompt/TP change of an inference episode, and
#: ``hardware`` a roofline retarget onto a different GPU spec.
KIND_BASELINE = "baseline"
KIND_PARALLELISM = "parallelism"
KIND_ARCHITECTURE = "architecture"
KIND_SERVING = "serving"
KIND_HARDWARE = "hardware"

#: Separator of composite kind / target segments.
COMPOSITE_SEPARATOR = "+"


class ManipulationRefusal(ValueError):
    """A typed manipulation refusal carrying machine-readable context.

    ``code`` names the refusal reason; ``base_tp`` / ``target_tp`` carry
    the degrees of a refused tensor-parallel reshard.  The API layer
    propagates all three onto :class:`~repro.api.errors.PredictError`.
    """

    def __init__(self, message: str, *, code: str | None = None,
                 base_tp: int | None = None, target_tp: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.base_tp = base_tp
        self.target_tp = target_tp


@dataclass
class DeriveContext:
    """Everything a manipulation may need to derive a target graph.

    One context serves a whole composite chain; handlers read what they
    need and ignore the rest.  ``target_model`` / ``target_gpu`` carry
    non-registry payload objects the caller pre-registered for the target
    being derived (custom architectures and custom GPU specs).
    """

    base_model: "ModelConfig"
    base_parallel: ParallelismConfig
    training: "TrainingConfig"
    perf_model: KernelPerfModel
    cluster: ClusterSpec
    target_model: "ModelConfig | None" = None
    target_gpu: "GPUSpec | None" = None
    base_inference: "InferenceConfig | None" = None
    #: Memo of the base graph's iteration template, kept by the caller
    #: across derives (see :meth:`iteration_template`).
    templates: TemplateMemo | None = None

    def iteration_template(self, graph: ExecutionGraph) -> IterationTemplate:
        """The iteration template of ``graph`` under the base configuration.

        Memoized in :attr:`templates` when ``graph`` is the memo's graph
        (the base replay); any other graph — the prefix of an unusual
        composite chain — is extracted afresh.
        """
        memo = self.templates
        if memo is None or memo.graph is not graph:
            memo = TemplateMemo(graph)
        if memo.template is None:
            memo.template = extract_iteration_template(
                graph, self.base_model, self.base_parallel, self.training)
        return memo.template


#: A handler derives one segment: (graph, label, context, world_size) ->
#: (derived graph, world size after this manipulation).
Handler = Callable[[ExecutionGraph, str, DeriveContext, int],
                   tuple[ExecutionGraph, int]]

_REGISTRY: dict[str, Handler] = {}


def register_manipulation(kind: str) -> Callable[[Handler], Handler]:
    """Class-level decorator: register ``fn`` as the handler for ``kind``."""
    def decorator(fn: Handler) -> Handler:
        _REGISTRY[kind] = fn
        return fn
    return decorator


def registered_kinds() -> list[str]:
    """The registered manipulation kinds, sorted."""
    return sorted(_REGISTRY)


def derive(graph: ExecutionGraph, kind: str, target: str,
           context: DeriveContext,
           world_size: int | None = None) -> tuple[ExecutionGraph, int]:
    """Apply the (possibly composite) manipulation ``kind`` for ``target``.

    Returns the derived graph and the target's world size.  Raises
    :class:`ValueError` for unknown kinds, malformed composites and
    handler refusals.  ``world_size`` seeds the chain when ``graph`` is
    not the base replay but an already-derived prefix (callers that cache
    intermediate graphs resume the chain from it); it defaults to the
    base configuration's world size.
    """
    kinds = kind.split(COMPOSITE_SEPARATOR)
    labels = target.split(COMPOSITE_SEPARATOR)
    if len(kinds) != len(labels):
        raise ValueError(
            f"composite target '{target}' has {len(labels)} segment(s) but "
            f"its kind '{kind}' has {len(kinds)}")
    if world_size is None:
        world_size = context.base_parallel.world_size
    for segment_kind, label in zip(kinds, labels):
        handler = _REGISTRY.get(segment_kind)
        if handler is None:
            raise ValueError(f"unknown configuration kind '{segment_kind}'")
        graph, world_size = handler(graph, label, context, world_size)
    return graph, world_size


def refuse_training_manipulation(kind: str, context: DeriveContext) -> None:
    """Refuse a training-iteration manipulation of a serving-episode base."""
    if context.base_inference is not None:
        raise ValueError(
            f"the base trace is a serving episode; "
            f"'{kind}' targets apply to training iterations — use serving "
            "targets (batch=/prompt=/tp=) instead")


# -- built-in handlers --------------------------------------------------------
# Baseline and 3D-parallelism register here: the former is trivial and the
# latter spans two manipulation modules (data_parallel / pipeline_parallel),
# so neither has a single home module to self-register from.  Architecture,
# serving and hardware register in their own modules.


@register_manipulation(KIND_BASELINE)
def _derive_baseline(graph: ExecutionGraph, label: str, context: DeriveContext,
                     world_size: int) -> tuple[ExecutionGraph, int]:
    return graph, context.base_parallel.world_size


@register_manipulation(KIND_PARALLELISM)
def _derive_parallelism(graph: ExecutionGraph, label: str, context: DeriveContext,
                        world_size: int) -> tuple[ExecutionGraph, int]:
    refuse_training_manipulation(KIND_PARALLELISM, context)
    parallel = ParallelismConfig.parse(label)
    base_parallel = context.base_parallel
    if parallel.tp != base_parallel.tp:
        raise ManipulationRefusal(
            f"target parallelism {parallel.label()} changes tensor parallelism "
            f"(base TP={base_parallel.tp}, target TP={parallel.tp}); graph "
            "manipulation does not support TP modifications",
            base_tp=base_parallel.tp, target_tp=parallel.tp)
    # The cluster must cover the base trace's ranks as well as the
    # target's: perf-model rescaling evaluates the *old* collective
    # groups too, so a down-scaled target cannot shrink the cluster.
    derived_cluster = ClusterSpec.for_world_size(
        max(base_parallel.world_size, parallel.world_size))
    if parallel.pp == base_parallel.pp:
        derived = scale_data_parallelism(graph, base_parallel, parallel.dp,
                                         context.perf_model,
                                         cluster=derived_cluster)
    else:
        derived = scale_pipeline_parallelism(graph, context.base_model,
                                             base_parallel, context.training,
                                             parallel.pp, context.perf_model,
                                             new_data_parallel=parallel.dp,
                                             cluster=derived_cluster,
                                             template=context.iteration_template(graph))
    return derived, parallel.world_size
