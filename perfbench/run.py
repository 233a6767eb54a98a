"""smoothcam benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload smooth-fixture --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports smoothcam from its ``src/``.
Set-up is measured in SETUP_REPEATS fresh processes, each from spawn to where
the first timed call would start; the last of them then runs the timed loop
with the library's default threading (nothing is pinned; the environment is
recorded). ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with spans around every traced function and
reports the per-layer metrics. The full record (environment, digests, pass
counts, latency sample counts) goes to ``perfbench/out/``; the last line of
standard output is one JSON object with the metrics.

Exit status: 0 when every call passed its checks, 1 when any call failed,
2 when the benchmark could not run (e.g. no smoothcam source in the checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("smooth-fixture", "smooth-wide", "cli-explain")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole command must end well inside 180 s

# (name, unit, better) of the end-to-end metrics, in report order.
END_TO_END = [
    ("calls_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cpu_ms_per_call", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "smoothcam" / "__init__.py").is_file():
        print(f"error: no smoothcam source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups, failures = [], []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(OUT / f"work-{tag}-{k}")]
        if not last:
            cmd.append("--setup-only")
        elif args.trace:
            cmd += ["--spans", str(OUT / f"spans-{args.workload}.json")]
        report = run_worker(cmd, DEADLINE_S - (time.monotonic() - started))
        if report is None:
            return 2
        setups.append(report["setup_s"])
        failures += report["failures"]

    if args.trace:
        phase = report["traced"]
        metrics = {name: (report["layers"][name], unit) for name, unit, _ in LAYER_METRICS}
    else:
        phase = report["timed"]
        metrics = end_to_end(phase, statistics.median(setups))
    # Every call of the measuring process counts, warm-up included.
    phases = [report[k] for k in ("warmup", "timed", "untraced", "traced") if k in report]
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    correct = failed == 0 and not failures

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s_samples": setups,
        "latency_samples": len(phase["latency_ms"]),
        "environment": report["environment"], "digests": report["digests"],
        "per_label": report.get("per_label"), "failures": failures,
        "span_count": report.get("span_count"),
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:45s} {value:14.6f} {unit}")
    print(f"{args.workload:15s} {'failed_ratio':45s} {failed / attempted:14.6f} "
          f"({failed}/{attempted} calls; latency samples {len(phase['latency_ms'])})")
    for line in failures[:5]:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_worker(cmd: list[str], timeout: float) -> dict | None:
    """Run one worker to completion (killing it on timeout); its last stdout line is JSON."""
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("error: benchmark worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: benchmark worker exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(phase: dict, setup_s: float) -> dict:
    lat = sorted(phase["latency_ms"])
    # p90 by nearest rank: with >= 100 samples at least 10 lie beyond it.
    p90 = lat[max(0, math.ceil(0.9 * len(lat)) - 1)]
    values = {
        "calls_per_s": phase["calls_per_s"],
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "cpu_ms_per_call": phase["cpu_ms_per_call"],
        "peak_rss_mb": phase["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


if __name__ == "__main__":
    sys.exit(main())
