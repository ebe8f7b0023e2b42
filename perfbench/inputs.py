"""Seeded input generator for the benchmark workloads.

For one ``(workload, seed)`` pair this emulates the base trace and every
ground-truth target configuration, saves the base bundle to disk and
records each configuration's measured iteration time.  The program under
test only ever sees the saved base bundle; the measured times are the
reference its answers are scored against.

The emulator's seeded noise is on.  Per-kernel, communication and CPU
noise, stragglers and rank start skew follow the workload seed (each
target configuration draws its own stream).  The iteration-level drift --
the run-to-run shift of all compute, communication and CPU time that the
emulator applies to every measured iteration -- is drawn from the fixed
``DRIFT_SEED`` instead.  That drift is the dominant term of the
profiled-vs-measured difference; drawing it per seed would make every
error metric report which drift a seed happened to draw (an unbiased
replay error is a folded normal, whose quartile spread exceeds its
median) rather than how well the predictor does.

Generation runs in its own process (``python3 perfbench/inputs.py
WORKLOAD SEED DIR``) so the emulator's memory never shows in the
measured process's peak RSS, and its output is cached per
``(workload, seed)`` under the checkout, outside every timed window.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Bump when the generated inputs change, so stale caches are not reused.
GENERATOR_VERSION = 1
#: Seed of the emulator's iteration-level drift (see the module docstring).
DRIFT_SEED = 0

TRAIN_BASE = ("gpt3-15b", "2x2x4")
TRAIN_MICRO_BATCH = 2
TRAIN_MICROBATCHES = 4

STREAM_BASE = ("gpt3-15b", "2x1x1")
STREAM_BATCH = 4
STREAM_PROMPT = 512
STREAM_DECODE = 8
STREAM_REQUESTS = 8
STREAM_RATE = 400


@dataclass(frozen=True)
class Config:
    """One emulated configuration: model, parallelism, GPU, prompt length."""

    model: str
    parallelism: str
    gpu: str | None = None
    prompt: int = STREAM_PROMPT


#: train-ladder targets (``Study.predict`` labels) and their ground truth.
TRAIN_TARGETS = {
    "2x2x8": Config("gpt3-15b", "2x2x8"),
    "2x4x4": Config("gpt3-15b", "2x4x4"),
    "2x4x8": Config("gpt3-15b", "2x4x8"),
    "2x1x4": Config("gpt3-15b", "2x1x4"),
    "model:gpt3-v1": Config("gpt3-v1", "2x2x4"),
    "gpu=H200-SXM": Config("gpt3-15b", "2x2x4", "H200-SXM"),
    "gpu=B200": Config("gpt3-15b", "2x2x4", "B200"),
    "gpu=A100-SXM": Config("gpt3-15b", "2x2x4", "A100-SXM"),
    "parallelism=2x2x8,gpu=B200": Config("gpt3-15b", "2x2x8", "B200"),
}

#: stream-serving targets and their ground truth (same arrivals, same
#: batch cap and decode length as the base stream).
STREAM_TARGETS = {
    "serving:tp=1": Config("gpt3-15b", "1x1x1"),
    "serving:tp=4": Config("gpt3-15b", "4x1x1"),
    "serving:prompt=1024": Config("gpt3-15b", "2x1x1", prompt=1024),
    "gpu=H200-SXM": Config("gpt3-15b", "2x1x1", "H200-SXM"),
    "gpu=B200": Config("gpt3-15b", "2x1x1", "B200"),
    "tp=4,gpu=B200": Config("gpt3-15b", "4x1x1", "B200"),
}

#: sweep-service job configurations (sweep-spec axes) and their ground
#: truth; the base is the train-ladder base.
SWEEP_CONFIGS = {
    "2x2x8": Config("gpt3-15b", "2x2x8"),
    "2x4x4": Config("gpt3-15b", "2x4x4"),
    "2x1x4": Config("gpt3-15b", "2x1x4"),
    "model:gpt3-v1": Config("gpt3-v1", "2x2x4"),
}

WORKLOAD_TARGETS = {
    "train-ladder": TRAIN_TARGETS,
    "stream-serving": STREAM_TARGETS,
    "sweep-service": SWEEP_CONFIGS,
}


def _fixed_drift_noise(seed: int):
    from repro.emulator.noise import NoiseModel

    class FixedDriftNoise(NoiseModel):
        """Seeded per-kernel noise with the drift of ``DRIFT_SEED``."""

        def iteration_drift(self, iteration: int) -> tuple[float, float, float]:
            return NoiseModel(DRIFT_SEED, self.config).iteration_drift(iteration)

    return FixedDriftNoise(seed=seed)


def _emulator(workload: str, config: Config, seed: int, noise_seed: int):
    """The emulator of ``config``, with the benchmark's noise model."""
    from repro.emulator.api import ClusterEmulator
    from repro.hardware.cluster import ClusterSpec
    from repro.hardware.gpu import registry_gpu
    from repro.workload.arrivals import parse_arrival
    from repro.workload.inference import InferenceConfig
    from repro.workload.model_config import gpt3_model
    from repro.workload.parallelism import ParallelismConfig
    from repro.workload.training import TrainingConfig

    parallel = ParallelismConfig.parse(config.parallelism)
    cluster = None
    if config.gpu is not None:
        cluster = ClusterSpec.for_world_size(parallel.world_size,
                                             gpu=registry_gpu(config.gpu))
    if workload == "stream-serving":
        arrival = parse_arrival(f"poisson:rate={STREAM_RATE},"
                                f"n={STREAM_REQUESTS},seed={seed}")
        inference = InferenceConfig(batch_size=STREAM_BATCH,
                                    prompt_length=config.prompt,
                                    decode_length=STREAM_DECODE,
                                    arrival=arrival)
        emulator = ClusterEmulator(gpt3_model(config.model), parallel,
                                   cluster=cluster, inference=inference)
    else:
        training = TrainingConfig(micro_batch_size=TRAIN_MICRO_BATCH,
                                  num_microbatches=TRAIN_MICROBATCHES)
        emulator = ClusterEmulator(gpt3_model(config.model), parallel,
                                   training, cluster=cluster)
    emulator.noise_model = _fixed_drift_noise(noise_seed)
    return emulator


def generate(workload: str, seed: int, directory: Path) -> None:
    """Write ``directory/base`` (the profiled bundle) and ``truth.json``."""
    base_model, base_parallelism = (STREAM_BASE if workload == "stream-serving"
                                    else TRAIN_BASE)
    base = _emulator(workload, Config(base_model, base_parallelism), seed,
                     noise_seed=seed * 100).run(iterations=2)
    base.profiled.save(directory / "base")
    targets = {}
    for index, (label, config) in enumerate(WORKLOAD_TARGETS[workload].items()):
        emulator = _emulator(workload, config, seed, noise_seed=seed * 100 + index + 1)
        # A target needs only its measured iteration (index 1, as
        # ``run(iterations=2).measured``); noise streams are drawn per
        # (seed, iteration, rank), so skipping the profiled iteration
        # leaves it unchanged and halves the emulation time.
        measured = emulator._run_iteration(emulator.programs(), 1)
        targets[label] = measured.iteration_time()
    truth = {"workload": workload, "seed": seed,
             "base_measured_us": base.measured_iteration_time(),
             "targets": targets}
    (directory / "truth.json").write_text(json.dumps(truth, indent=1),
                                          encoding="utf-8")


def ensure_inputs(root: Path, workload: str, seed: int) -> Path:
    """The cached input directory of ``(workload, seed)``, generated if absent."""
    cache = root / ".perfbench-cache"
    final = cache / f"{workload}-s{seed}-v{GENERATOR_VERSION}"
    if (final / "truth.json").exists():
        return final
    cache.mkdir(parents=True, exist_ok=True)
    staging = cache / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        workload, str(seed), str(staging)],
                       check=True, timeout=170)
        os.replace(staging, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
