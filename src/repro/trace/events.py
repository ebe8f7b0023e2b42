"""Trace event schema.

Events follow the chrome-trace "complete event" (``ph == "X"``) convention
used by PyTorch Kineto.  Timestamps and durations are in microseconds.

Three event categories matter for performance modeling:

``cpu_op``
    Framework-level operators executed on a CPU thread (``aten::mm``,
    ``aten::layer_norm``, ...).
``cuda_runtime``
    CUDA runtime calls executed on a CPU thread (``cudaLaunchKernel``,
    ``cudaEventRecord``, ``cudaStreamWaitEvent``, ``cudaStreamSynchronize``,
    ...).  Launch calls carry a ``correlation`` id linking them to the GPU
    kernel they enqueue.
``kernel``
    GPU kernels.  ``tid`` holds the CUDA stream id (Kineto convention for
    device tracks) and ``args`` carries ``stream``/``correlation``.

``user_annotation`` events are emitted for profiler steps and per-layer
``record_function`` ranges; they are optional for replay but used for
layer grouping during graph manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


class Category:
    """Event category strings (the ``cat`` field)."""

    CPU_OP = "cpu_op"
    CUDA_RUNTIME = "cuda_runtime"
    KERNEL = "kernel"
    GPU_MEMCPY = "gpu_memcpy"
    GPU_MEMSET = "gpu_memset"
    USER_ANNOTATION = "user_annotation"
    PYTHON_FUNCTION = "python_function"

    CPU_CATEGORIES = frozenset({CPU_OP, CUDA_RUNTIME, USER_ANNOTATION, PYTHON_FUNCTION})
    GPU_CATEGORIES = frozenset({KERNEL, GPU_MEMCPY, GPU_MEMSET})


class CudaRuntimeName:
    """Names of the CUDA runtime calls the graph builder understands."""

    LAUNCH_KERNEL = "cudaLaunchKernel"
    MEMCPY_ASYNC = "cudaMemcpyAsync"
    MEMSET_ASYNC = "cudaMemsetAsync"
    EVENT_RECORD = "cudaEventRecord"
    STREAM_WAIT_EVENT = "cudaStreamWaitEvent"
    STREAM_SYNCHRONIZE = "cudaStreamSynchronize"
    DEVICE_SYNCHRONIZE = "cudaDeviceSynchronize"
    EVENT_SYNCHRONIZE = "cudaEventSynchronize"

    LAUNCHES = frozenset({LAUNCH_KERNEL, MEMCPY_ASYNC, MEMSET_ASYNC})
    SYNCS = frozenset({STREAM_SYNCHRONIZE, DEVICE_SYNCHRONIZE, EVENT_SYNCHRONIZE})


@dataclass
class TraceEvent:
    """A single chrome-trace complete event.

    Attributes
    ----------
    name:
        Event name (operator name, runtime call name or kernel name).
    cat:
        One of the :class:`Category` strings.
    ts:
        Start timestamp in microseconds.
    dur:
        Duration in microseconds.
    pid:
        Process id.  We use the global rank.
    tid:
        CPU thread id for CPU-side events; CUDA stream id for GPU events
        (Kineto places device events on per-stream tracks).
    args:
        Free-form metadata.  Recognised keys include ``correlation``,
        ``stream``, ``event_id``, ``wait_stream``, ``record_stream``,
        ``collective``, ``group``, ``group_id``, ``group_size``,
        ``size_bytes``, ``layer``, ``microbatch``, ``phase``, ``op_class``.
    """

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    args: dict[str, Any] = field(default_factory=dict)
    ph: str = "X"

    @property
    def end(self) -> float:
        """End timestamp in microseconds."""
        return self.ts + self.dur

    @property
    def correlation(self) -> int | None:
        """Correlation id linking a runtime launch to its kernel, if any."""
        value = self.args.get("correlation")
        return int(value) if value is not None else None

    @property
    def stream(self) -> int | None:
        """CUDA stream id for GPU events (falls back to ``tid``)."""
        if "stream" in self.args:
            return int(self.args["stream"])
        if self.cat in Category.GPU_CATEGORIES:
            return int(self.tid)
        return None

    def is_cpu(self) -> bool:
        """True if the event executed on a CPU thread."""
        return self.cat in Category.CPU_CATEGORIES

    def is_gpu(self) -> bool:
        """True if the event executed on the GPU."""
        return self.cat in Category.GPU_CATEGORIES

    def to_json(self) -> dict[str, Any]:
        """Serialise to a chrome-trace event dictionary."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TraceEvent":
        """Deserialise from a chrome-trace event dictionary."""
        return cls(
            name=str(payload["name"]),
            cat=str(payload.get("cat", "")),
            ts=float(payload["ts"]),
            dur=float(payload.get("dur", 0.0)),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            args=dict(payload.get("args", {})),
            ph=str(payload.get("ph", "X")),
        )


def is_kernel_event(event: TraceEvent) -> bool:
    """True for GPU kernel / memcpy / memset events."""
    return event.cat in Category.GPU_CATEGORIES


def is_runtime_event(event: TraceEvent) -> bool:
    """True for CUDA runtime events."""
    return event.cat == Category.CUDA_RUNTIME


def is_sync_runtime(event: TraceEvent) -> bool:
    """True for blocking CUDA synchronisation runtime calls."""
    return event.cat == Category.CUDA_RUNTIME and event.name in CudaRuntimeName.SYNCS


def is_collective_kernel(event: TraceEvent) -> bool:
    """True for communication kernels (NCCL-style names or tagged args)."""
    return is_kernel_event(event) and is_collective_signature(event.name, event.args)


def is_collective_signature(name: str, args: Mapping[str, Any]) -> bool:
    """Whether a kernel's name or args mark it as communication."""
    if args.get("collective"):
        return True
    name = name.lower()
    return name.startswith("nccl") or "allreduce" in name or "all_reduce" in name
