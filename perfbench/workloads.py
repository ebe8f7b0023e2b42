"""The three benchmark workloads.

Every workload is a closed loop: one client in this process sends each
request only after the previous one completed.  A run sets up several
times (the median is ``setup_s``), then runs whole rounds of requests
until ``--seconds`` have passed; rounds 0 and 1 always run, and every
round sends the same multiset of request kinds in a seeded order, so the
latency samples of two runs come from the same mix.

Latencies are host time (``time.perf_counter``), scaled to a nominal
host speed (see :meth:`Loop.calibrate`).  Iteration times and errors are
simulated time.  The reference for every ``*_err_*`` metric
is the emulator's measured iteration of the same configuration; the
emulator shares kernel cost models with the predictor, so the errors are
a consistency check, not validation against real hardware.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from inputs import STREAM_TARGETS, SWEEP_CONFIGS, TRAIN_TARGETS
from recorder import Recorder

SETUPS = 3
#: Warm re-reads after each cold predict on train-ladder and stream-serving.
WARM_READS = 3
#: SLO deadlines of cold and warm stream-serving requests (ms).
COLD_DEADLINE_MS = 500.0
WARM_DEADLINES_MS = (250.0, 1000.0, 2000.0)
#: What-ifs every sweep job carries; after a configuration's first job
#: they are cache hits, so later cold jobs are partially cached.
STABLE_WHATIFS = (
    [{"kind": "kernel_class", "op_class": op, "speedup": s}
     for op, s in (("gemm", 1.5), ("gemm", 2.0), ("gemm", 3.0), ("attention", 2.0),
                   ("attention", 4.0), ("layernorm", 2.0), ("elementwise", 2.0),
                   ("gelu", 2.0), ("dropout", 2.0), ("softmax", 2.0),
                   ("optimizer", 2.0))]
    + [{"kind": "communication", "group": g, "speedup": 2.0} for g in (None, "dp", "pp", "tp")]
    + [{"kind": "launch_overhead"}])
NOVEL_CLASSES = ("gemm", "attention", "layernorm", "elementwise", "gelu",
                 "softmax", "optimizer")
NOVEL_WHATIFS = 16

#: The reference computation behind the host-speed scale: multiply-adds
#: over floats read in a shuffled order from a list several MB large, so
#: it slows down under CPU contention and under cache contention alike.
_REFERENCE_VALUES = [float(value) for value in range(200_000)]
_REFERENCE_ORDER = random.Random(0).sample(range(len(_REFERENCE_VALUES)), 25_000)
#: The reference's time on the 2-vCPU x86 VM this benchmark was built on,
#: in a quiet period; scaled host times read as milliseconds there.
NOMINAL_REFERENCE_S = 0.008
#: Reference timings whose median scales the next timings (about 2-4 s).
SCALE_WINDOW = 5


class CheckFailed(Exception):
    """An answer failed an output check."""


@dataclass
class Run:
    """What one workload run measured."""

    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    cold_ms: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    #: (traced, cold ms) per cold request, for the tracing overhead.
    cold_by_mode: list[tuple[bool, float]] = field(default_factory=list)
    answers_returned: int = 0
    #: Scaled host seconds of every request.
    request_seconds: float = 0.0
    #: Host-speed scales, one per reference timing (1 = nominal speed).
    scales: list[float] = field(default_factory=list)
    loop_seconds: float = 0.0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    replay_err_pct: float = math.nan
    predict_err_pct: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Round-0 answers, hashed into the answer digest.
    digest_answers: list[Any] = field(default_factory=list)
    #: sweep-service: per-job service timings, and (spec, rows) of cold jobs.
    service: dict[str, list[float]] = field(default_factory=dict)
    cold_jobs: list[tuple[dict, list[dict]]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _positive(value: Any, what: str) -> float:
    number = float(value)
    if not math.isfinite(number) or number <= 0:
        raise CheckFailed(f"{what} is {number!r}, expected finite and positive")
    return number


def _nonnegative(values: dict[str, Any], what: str) -> None:
    for key, value in values.items():
        if isinstance(value, (int, float)) and not (math.isfinite(value) and value >= 0):
            raise CheckFailed(f"{what}.{key} is {value!r}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error_pct(predicted: float, measured: float) -> float:
    return abs(predicted - measured) / measured * 100.0


class Loop:
    """Round driver shared by the workloads: timing, tracing, checks."""

    def __init__(self, run: Run, recorder: Recorder | None, seconds: float) -> None:
        self.run = run
        self.recorder = recorder
        self.seconds = seconds
        self.traced = False
        self.scale = 1.0

    def calibrate(self) -> None:
        """Time the reference computation; scale the next timings by it.

        The host's speed drifts when other tenants load a shared machine
        (by up to 2x within minutes on the VM this was built on), and
        every host time of a run drifts with it.  Each timing is
        therefore multiplied by ``NOMINAL_REFERENCE_S`` over the
        reference's recent time, which cancels most of that drift while
        leaving the program's own speed-ups in full.  The recent time is
        the median of the last ``SCALE_WINDOW`` reference timings, so one
        timing that caught a short burst of contention does not skew the
        requests after it.
        """
        started = time.perf_counter()
        total = 0.0
        values = _REFERENCE_VALUES
        for index in _REFERENCE_ORDER:
            total += values[index] * index
        self.run.scales.append(NOMINAL_REFERENCE_S / (time.perf_counter() - started))
        self.scale = statistics.median(self.run.scales[-SCALE_WINDOW:])

    def rounds(self):
        """Yield round numbers until the measuring time is used up.

        Rounds 0 and 1 always run.  In a traced run even rounds run
        untraced and odd rounds traced, so the tracing overhead compares
        like with like.
        """
        started = time.perf_counter()
        number = 0
        while number < 2 or time.perf_counter() - started < self.seconds:
            if self.recorder is not None:
                self.traced = number % 2 == 1
                if self.traced:
                    self.recorder.install()
            try:
                yield number
            finally:
                if self.recorder is not None and self.traced:
                    self.recorder.uninstall()
                self.traced = False
            number += 1
        self.run.loop_seconds = time.perf_counter() - started
        self.run.rounds = number
        self.run.peak_rss_mb = _peak_rss_mb()

    def _timed(self, kind: str, call: Callable[[], Any]) -> tuple[Any, float]:
        # The window records spans only while the recorder is installed.
        with (self.recorder.window(kind, self.scale) if self.recorder is not None
              else nullcontext()):
            started = time.perf_counter()
            value = call()
            return value, time.perf_counter() - started

    def request(self, cold: bool, call: Callable[[], Any], label: str,
                idle_seconds: Callable[[Any], float] | None = None) -> Any:
        """Time one request; a raised error counts as a failed request.

        ``idle_seconds(answer)`` is the part of the request spent waiting
        on a timer rather than computing; it is not scaled.
        """
        self.run.attempted += 1
        try:
            answer, seconds = self._timed("request", call)
        except Exception as error:  # a failed request is counted, not fatal
            self.run.fail(f"{label}: {type(error).__name__}: {error}")
            return None
        idle = idle_seconds(answer) if idle_seconds is not None else 0.0
        scaled_ms = ((seconds - idle) * self.scale + idle) * 1000.0
        self.run.request_seconds += scaled_ms / 1000.0
        (self.run.cold_ms if cold else self.run.warm_ms).append(scaled_ms)
        if cold:
            self.run.cold_by_mode.append((self.traced, scaled_ms))
        return answer

    def setup(self, call: Callable[[], Any]) -> Any:
        """Time one set-up (traced in a traced run)."""
        self.calibrate()
        if self.recorder is not None:
            self.recorder.install()
        try:
            value, seconds = self._timed("setup", call)
        finally:
            if self.recorder is not None:
                self.recorder.uninstall()
        self.run.setup_s.append(seconds * self.scale)
        return value


class Answers:
    """Per-key answers that must repeat exactly whenever a key recurs."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.seen: dict[Any, Any] = {}

    def check(self, key: Any, answer: Any, round_number: int) -> None:
        previous = self.seen.setdefault(key, answer)
        if previous != answer:
            raise CheckFailed(f"{key}: answer {answer!r} differs from earlier {previous!r}")
        if round_number == 0:
            self.run.digest_answers.append([repr(key), answer])


# -- train-ladder and stream-serving -------------------------------------------

def _study(loop: Loop, run: Run, inputs: Path, truth: dict):
    """Set up SETUPS times: open the base trace, replay it, calibrate."""
    from repro.api import Study

    def open_study():
        study = Study.from_trace(inputs / "base")
        study.replay()
        study.perf_model  # calibrate
        return study

    for _ in range(SETUPS):
        study = loop.setup(open_study)
    run.replay_err_pct = _error_pct(study.base_time_us, truth["base_measured_us"])
    return study


def train_ladder(inputs: Path, truth: dict, seed: int, seconds: float,
                 recorder: Recorder | None) -> Run:
    """Cold predicts over the training target ladder, plus warm re-reads."""
    run = Run("train-ladder", seed)
    loop = Loop(run, recorder, seconds)
    study = _study(loop, run, inputs, truth)

    def read(target: str):
        prediction = study.predict(target)
        return prediction.iteration_time_us, prediction.breakdown().as_dict()

    def checked(target: str, answer) -> list:
        time_us, breakdown = answer
        _positive(time_us, f"{target} iteration time")
        _positive(sum(breakdown.values()), f"{target} breakdown total")
        _nonnegative(breakdown, f"{target} breakdown")
        return [time_us, sorted(breakdown.items())]

    # A warm re-read must return exactly the cold answer.
    _ladder_rounds(loop, run, study, list(TRAIN_TARGETS), truth,
                   (read, "breakdown"), [(read, "breakdown")] * WARM_READS, checked)
    return run


def stream_serving(inputs: Path, truth: dict, seed: int, seconds: float,
                   recorder: Recorder | None) -> Run:
    """Cold predicts of serving, TP and hardware targets on a stream trace."""
    run = Run("stream-serving", seed)
    loop = Loop(run, recorder, seconds)
    study = _study(loop, run, inputs, truth)

    def reader(deadline_ms: float):
        def read(target: str):
            prediction = study.predict(target)
            metrics = prediction.serving_metrics(deadline_ms=deadline_ms)
            if metrics is None:
                raise CheckFailed(f"{target}: no serving metrics")
            return prediction.iteration_time_us, metrics.to_json()
        return read

    def checked(target: str, answer) -> list:
        time_us, metrics = answer
        _positive(time_us, f"{target} iteration time")
        for key in ("latency_p50_ms", "latency_p99_ms", "ttft_p50_ms", "tokens_per_s"):
            _positive(metrics[key], f"{target} {key}")
        _nonnegative(metrics, f"{target} serving metrics")
        return [time_us, sorted(metrics.items())]

    _ladder_rounds(loop, run, study, list(STREAM_TARGETS), truth,
                   (reader(COLD_DEADLINE_MS), f"deadline={COLD_DEADLINE_MS:g}"),
                   [(reader(ms), f"deadline={ms:g}") for ms in WARM_DEADLINES_MS],
                   checked)
    return run


def _ladder_rounds(loop: Loop, run: Run, study, targets: list[str], truth: dict,
                   cold_read, warm_reads, checked) -> None:
    """Rounds over the targets in a seeded order: cold predict, warm re-reads.

    ``cold_read`` and each of ``warm_reads`` is a ``(read, label)`` pair;
    answers with the same target and label must be identical.  Every
    cold predict starts from a released study (the base replay and the
    calibration stay), so its cost does not depend on which targets the
    seeded order put before it; a composite target derives its workload
    prefix itself.  The warm re-reads that follow ask again for the
    target just answered: derive, compile and simulation are memoized,
    so they pay only for reading the answer (breakdown or serving
    metrics), which the study recomputes on every read.
    """
    answers = Answers(run)
    for number in loop.rounds():
        rng = random.Random(f"{run.seed}:{number}")
        for target in rng.sample(targets, len(targets)):
            study.release()
            loop.calibrate()
            for cold, (read, label) in [(True, cold_read)] + [(False, w) for w in warm_reads]:
                answer = loop.request(cold, lambda: read(target), target)
                if answer is None:
                    continue
                run.answers_returned += 1
                try:
                    answers.check((target, label), checked(target, answer), number)
                except CheckFailed as error:
                    run.fail(str(error))
                    continue
                if cold and number == 0:
                    run.predict_err_pct[target] = _error_pct(
                        answer[0], truth["targets"][target])


# -- sweep-service ------------------------------------------------------------

def _spec_for(config: str, whatifs: list[dict]) -> dict:
    spec: dict[str, Any] = {"include_baseline": False, "whatif": whatifs}
    if config.startswith("model:"):
        spec["models"] = [config[len("model:"):]]
    else:
        spec["parallelism"] = [config]
    return spec


def _novel_whatifs(rng: random.Random) -> list[dict]:
    chosen: dict[tuple[str, float], dict] = {}
    while len(chosen) < NOVEL_WHATIFS:
        op = rng.choice(NOVEL_CLASSES)
        speedup = round(rng.uniform(1.05, 4.0), 3)
        chosen[(op, speedup)] = {"kind": "kernel_class", "op_class": op,
                                 "speedup": speedup}
    return list(chosen.values())


def _row_key(row: dict) -> tuple:
    return (row["kind"], row["target"], row["whatif"])


def sweep_service(inputs: Path, truth: dict, seed: int, seconds: float,
                  recorder: Recorder | None) -> Run:
    """Sweep jobs through an in-process service: cold, partially cached, warm."""
    # Service roots (job store, sweep cache) live in the checkout's cache
    # directory and are removed when the run ends.
    scratch = inputs.parent / "scratch"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as roots:
        return _sweep_service(inputs, truth, seed, seconds, recorder, Path(roots))


def _sweep_service(inputs: Path, truth: dict, seed: int, seconds: float,
                   recorder: Recorder | None, roots: Path) -> Run:
    from repro.api import Study
    from repro.service import ServiceApp, ServiceClient

    run = Run("sweep-service", seed)
    loop = Loop(run, recorder, seconds)
    priming = {"kind": "sweep", "trace": "base", "spec": {"include_baseline": True}}

    def start_service(root: Path):
        app = ServiceApp(root, workers=1, traces={"base": inputs / "base"})
        app.start()
        try:
            client = ServiceClient(app.url)
            job = client.wait(client.submit(priming)["job"]["job_id"])
            if job["state"] != "done":
                raise RuntimeError(f"priming job ended {job['state']}: {job.get('error')}")
        except BaseException:
            app.stop()
            raise
        return app, client

    app = None
    try:
        for index in range(SETUPS):
            if app is not None:
                app.stop()  # free the previous set-up before the next one
                app = None
            app, client = loop.setup(lambda: start_service(roots / f"service-{index}"))
        _service_rounds(loop, run, client, truth)
    finally:
        if app is not None:
            app.stop()

    # A seeded cold job, re-run in process through Study (no service, no
    # cache), must give the same rows bit for bit.
    study = Study.from_trace(inputs / "base")
    sample = random.Random(f"{seed}:sample").sample(run.cold_jobs,
                                                     min(1, len(run.cold_jobs)))
    for spec, rows in sample:
        local = {(r.kind, r.target, r.whatif): r.iteration_time_us
                 for r in study.sweep(spec, workers=1).results}
        for row in rows:
            if local.get(_row_key(row)) != row["iteration_time_us"]:
                run.fail(f"service row {_row_key(row)} = {row['iteration_time_us']!r}, "
                         f"in-process Study gives {local.get(_row_key(row))!r}")
    return run


def _service_rounds(loop: Loop, run: Run, client, truth: dict) -> None:
    """Rounds of one cold job per configuration, each followed by a warm
    resubmission of a seeded choice among the cold jobs done so far."""
    answers = Answers(run)
    completed: list[dict] = []
    run.service = {name: [] for name in ("submit_ms", "queue_wait_ms", "run_ms",
                                         "notify_lag_ms", "result_ms", "deduped")}
    configs = list(SWEEP_CONFIGS)

    def job(body: dict):
        started = time.perf_counter()
        submitted = client.submit(body)
        submit_ms = (time.perf_counter() - started) * 1000.0
        record = client.wait(submitted["job"]["job_id"], timeout=120.0)
        seen_unix = time.time()
        if record["state"] != "done":
            raise RuntimeError(f"job ended {record['state']}: {record.get('error')}")
        started = time.perf_counter()
        result = client.result(record["job_id"])["result"]
        result_ms = (time.perf_counter() - started) * 1000.0
        timings = {
            "submit_ms": submit_ms,
            "queue_wait_ms": (record["started_unix"] - record["submitted_unix"]) * 1000.0,
            "run_ms": (record["finished_unix"] - record["started_unix"]) * 1000.0,
            "notify_lag_ms": (seen_unix - record["finished_unix"]) * 1000.0,
            "result_ms": result_ms,
        }
        # Queue wait and notification lag are timer waits, not computing.
        timings = {name: value if name in ("queue_wait_ms", "notify_lag_ms")
                   else value * loop.scale for name, value in timings.items()}
        return result, dict(timings, deduped=float(submitted["deduped"]))

    for number in loop.rounds():
        rng = random.Random(f"{run.seed}:{number}")
        for config in rng.sample(configs, len(configs)):
            bodies = [(True, {"kind": "sweep", "trace": "base",
                              "spec": _spec_for(config, STABLE_WHATIFS
                                                + _novel_whatifs(rng))})]
            if completed:
                bodies.append((False, rng.choice(completed)))
            for expect_cold, body in bodies:
                loop.calibrate()
                # The job waits for the worker's idle poll of the queue.
                response = loop.request(
                    expect_cold, lambda: job(body), config,
                    idle_seconds=lambda answer: answer[1]["queue_wait_ms"] / 1000.0)
                if response is None:
                    continue
                result, timing = response
                # The service stages are reported for warm jobs, where they
                # are most of the request.
                for name, value in timing.items():
                    if name == "deduped" or not expect_cold:
                        run.service[name].append(value)
                rows = result["scenarios"]
                run.answers_returned += len(rows)
                try:
                    _check_sweep(result, expect_cold, number, answers, run, truth)
                except CheckFailed as error:
                    run.fail(str(error))
                    continue
                if expect_cold:
                    completed.append(body)
                    run.cold_jobs.append((body["spec"], rows))


def _check_sweep(result: dict, expect_cold: bool, number: int, answers: Answers,
                 run: Run, truth: dict) -> None:
    hit_rate = result["cache"]["hit_rate"]
    if expect_cold == (hit_rate == 1.0):
        raise CheckFailed(f"{'cold' if expect_cold else 'warm'} job had hit rate {hit_rate}")
    _positive(result["base_time_us"], "sweep base time")
    for row in result["scenarios"]:
        time_us = _positive(row["iteration_time_us"], f"row {row['label']}")
        _positive(row["base_time_us"], f"row {row['label']} base time")
        # Warm rows must equal the cold rows of the same scenarios exactly.
        answers.check(_row_key(row), [time_us, row["base_time_us"],
                                      row["affected_tasks"]], number)
        if row["whatif"] is None and number == 0 and expect_cold:
            label = row["target"] if row["kind"] == "parallelism" else f"model:{row['target']}"
            run.predict_err_pct[label] = _error_pct(time_us, truth["targets"][label])
    run.replay_err_pct = _error_pct(result["base_time_us"], truth["base_measured_us"])


WORKLOADS = {
    "train-ladder": train_ladder,
    "stream-serving": stream_serving,
    "sweep-service": sweep_service,
}


def load_truth(directory: Path) -> dict:
    return json.loads((directory / "truth.json").read_text(encoding="utf-8"))
