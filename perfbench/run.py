"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload with the span recorder installed
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the closed loop is one client on a small
# machine, and a thread pool per numpy call would only add contention.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Metrics the benchmark's description names but does not put in the
#: JSON result, and why.
NOT_IN_RESULT = {
    "request_p90_ms": "a p90 needs >= 100 samples in its class; a run holds "
                      "about 8-60 cold requests",
    "warm_request_p90_ms": "a p90 needs >= 100 samples in its class; a run of "
                           "stream-serving or sweep-service holds fewer warm "
                           "requests, and every workload reports the same "
                           "metrics",
    "failed_frac": "is 0 when nothing fails, and result metrics must never be 0; "
                   "it is failed / attempted of the JSON result",
}


def _source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Compare with the digest an earlier run of this code and seed recorded."""
    record = ROOT / ".perfbench-cache" / "digests" / f"{workload}-s{seed}-{_code_hash()}"
    if record.exists():
        expected = record.read_text(encoding="utf-8").strip()
        if expected != digest:
            return f"answer digest {digest} differs from an earlier run's {expected}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    staging = record.with_suffix(f".{os.getpid()}")
    staging.write_text(digest + "\n", encoding="utf-8")
    os.replace(staging, record)
    return None


def _end_to_end(run) -> dict[str, float]:
    errors = list(run.predict_err_pct.values())
    return {
        "setup_s": statistics.median(run.setup_s),
        "request_p50_ms": statistics.median(run.cold_ms),
        "warm_request_p50_ms": statistics.median(run.warm_ms),
        "scenarios_per_s": run.answers_returned / run.request_seconds,
        "peak_rss_mb": run.peak_rss_mb,
        "replay_err_pct": run.replay_err_pct,
        "predict_err_mean_pct": statistics.fmean(errors),
        "predict_err_max_pct": max(errors),
    }


def _per_layer(run, recorder) -> dict[str, float]:
    from recorder import layer_metrics

    metrics = layer_metrics(recorder)
    service = run.service
    for name in ("submit", "queue_wait", "run", "notify_lag", "result"):
        values = service.get(f"{name}_ms", [])
        metrics[f"service.{name}.ms"] = statistics.median(values) if values else 0.0
    metrics["service.deduped"] = float(sum(service.get("deduped", [])))
    traced = [ms for on, ms in run.cold_by_mode if on]
    untraced = [ms for on, ms in run.cold_by_mode if not on]
    metrics["tracing.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
        if traced and untraced else 0.0)
    metrics["src.lines"] = float(_source_lines())
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-ladder", "stream-serving", "sweep-service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads
    from recorder import Recorder

    directory = inputs.ensure_inputs(ROOT, args.workload, args.seed)
    truth = workloads.load_truth(directory)
    recorder = Recorder() if args.trace else None
    run = workloads.WORKLOADS[args.workload](directory, truth, args.seed,
                                             args.seconds, recorder)

    digest = hashlib.sha256(json.dumps(run.digest_answers).encode()).hexdigest()[:16]
    mismatch = _check_digest(args.workload, args.seed, digest)
    if mismatch is not None:
        run.fail(mismatch)

    print(f"workload {args.workload}  seed {args.seed}  rounds {run.rounds}  "
          f"loop {run.loop_seconds:.1f} s  answer digest {digest}")
    print(f"host-speed scale: median {statistics.median(run.scales):.3f} "
          f"(host times below are multiplied by it; 1 = nominal speed)")
    print(f"requests: {len(run.cold_ms)} cold, {len(run.warm_ms)} warm; "
          f"attempted {run.attempted}, failed {run.failed} "
          f"(failed_frac {run.failed / max(1, run.attempted):g})")
    for message in run.failures:
        print(f"FAILED: {message}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        spans = ROOT / ".perfbench-cache" / f"spans-{args.workload}-s{args.seed}.json"
        recorder.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        values = _per_layer(run, recorder)
        declared = benchmark["per_layer"]
    else:
        values = _end_to_end(run)
        declared = benchmark["end_to_end"]
        for target, error in sorted(run.predict_err_pct.items()):
            print(f"  predict error {target}: {error:.2f} %")
        for name, reason in NOT_IN_RESULT.items():
            print(f"  {name}: not in the result ({reason})")
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
               for metric in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
