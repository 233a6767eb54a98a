"""One benchmark process: set up a workload, then time it in a closed loop.

Started by ``run.py``, never by hand. It prints one JSON object as its last
line of standard output. With ``--setup-only`` it stops where the first timed
call would start and reports only its set-up time, which lets ``run.py``
measure set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="wall clock at process spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import smoothcam

    if Path(smoothcam.__file__).resolve().parent != ROOT / "src" / "smoothcam":
        print(f"smoothcam imported from {smoothcam.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    work_dir = Path(args.work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)  # left over from a killed run
    work_dir.mkdir(parents=True)
    try:
        calls = workloads.build(args.workload, args.seed, work_dir)
        digests: dict[str, str] = {}
        failures: list[str] = []
        # One pass over the cycle: the warm-up, and the reference digests.
        warm = loop(calls, digests, failures, seconds=0.0)
        setup_s = time.time() - args.t0
        result = {"setup_s": setup_s,
                  "warmup": {"attempted": warm["attempted"], "failed": warm["failed"]}}
        if not args.setup_only:
            result.update(measure(args, calls, digests, failures))
            result["digests"] = digests
            result["environment"] = environment(args.seed)
        result["failures"] = failures[:20]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, calls, digests, failures) -> dict:
    if not args.trace:
        timed = loop(calls, digests, failures, args.seconds)
        timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"timed": timed}
    # Half the time untraced, half traced, so the trace overhead is measured in one process.
    untraced = loop(calls, digests, failures, args.seconds / 2)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = loop(calls, digests, failures, args.seconds / 2, spans)
    finally:
        spans.uninstall()
    layers, per_label = tracer.layer_metrics(
        spans, calls, traced.pop("labels"), untraced["calls_per_s"], traced["calls_per_s"])
    if args.spans:
        spans.dump(args.spans)
    untraced.pop("labels")
    return {"untraced": untraced, "traced": traced, "layers": layers,
            "per_label": per_label, "span_count": len(spans.spans)}


def loop(calls, digests, failures, seconds, spans=None) -> dict:
    """Closed loop over the cycle until `seconds` pass and every call ran once.

    Only invoke() is inside the per-call timer; the untimed prepare and check
    steps are a small, fixed share of the loop's wall time.
    """
    latencies, labels = [], []
    failed = 0
    clock = time.perf_counter
    cpu0, start = time.process_time(), clock()
    deadline = start + seconds
    i = 0
    while i < len(calls) or clock() < deadline:
        call = calls[i % len(calls)]
        if call.prepare is not None:
            call.prepare()
        if spans is not None:
            spans.call_id = i
        t = clock()
        try:
            result = call.invoke()
        except Exception as exc:  # a raising call is a failed call, not a crashed benchmark
            latencies.append(clock() - t)
            failed += 1
            failures.append(f"{call.key} ({call.label}): {type(exc).__name__}: {exc}")
        else:
            latencies.append(clock() - t)
            try:
                digest = call.check(result, call.key not in digests)
            except Exception as exc:
                failed += 1
                failures.append(f"{call.key} ({call.label}): {type(exc).__name__}: {exc}")
            else:
                if digests.setdefault(call.key, digest) != digest:
                    failed += 1
                    failures.append(f"{call.key} ({call.label}): output digest changed on repeat")
        labels.append(call.label)
        i += 1
    wall, cpu = clock() - start, time.process_time() - cpu0
    return {
        "attempted": i,
        "failed": failed,
        "wall_s": wall,
        "calls_per_s": i / wall,
        "cpu_ms_per_call": 1000.0 * cpu / i,
        "latency_ms": [1000.0 * v for v in latencies],
        "labels": labels,
    }


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
