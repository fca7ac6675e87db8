#!/usr/bin/env python3
"""Benchmark of the fourier-minnorm CLI: end-to-end and per-module metrics.

Run from the repository root:

    python3 perfbench/run.py --workload theory|montecarlo|off_grid --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (every pass, the timing percentiles, failures and the environment)
goes to ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import COMMAND_METRICS, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 150
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def timing_stats(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    stats = {"median": statistics.median(ordered), "count": len(ordered)}
    if len(ordered) > 10:
        rank = len(ordered) - 10  # 1-based rank with ten samples above it
        stats[f"p{100.0 * rank / len(ordered):.0f}"] = ordered[rank - 1]
    return stats


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "fourier_minnorm" / "cli.py").is_file():
        return fail(f"no fourier_minnorm sources under {ROOT / 'src'}; run from a full checkout")

    out_root = ROOT / ".perfbench"
    workdir = out_root / f"work-{os.getpid()}"
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One BLAS thread per Python thread: `mc-risk --threads 2` then stays within
    # nproc, and the single-threaded reference computation tracks the host's
    # speed for the dense solves too.
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    try:
        worker_result = workdir / "worker.json"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(worker_result)]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            return fail(f"worker exited with {done.returncode}:\n{done.stderr.decode()}")
        record = json.loads(worker_result.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    timings = {"wall_rel": [p["wall_rel"] for p in untraced], "wall_s": [p["wall_s"] for p in untraced],
               "reference_s": [p["reference_s"] for p in untraced]}
    for name in COMMAND_METRICS:
        if name in untraced[0]["commands"]:
            timings[name] = [p["commands"][name] for p in untraced]
    if record["setup_s"]:
        timings["setup_s"] = record["setup_s"]
    stats = {name: timing_stats(values) for name, values in timings.items()}

    if args.trace:
        values = dict(record["per_layer"])
        values["wall_s"] = stats["wall_s"]["median"]
        # Taken in reference units, so that the host's drift between the
        # traced and untraced passes cancels, then turned back into seconds.
        rel_traced = statistics.median(p["wall_rel"] for p in traced)
        values["trace.overhead_s"] = ((rel_traced - stats["wall_rel"]["median"])
                                      * stats["reference_s"]["median"])
        for name in COMMAND_METRICS:
            values[name] = stats[name]["median"] if name in stats else 0.0
        values["error_rate"] = record["failed"] / record["attempted"]
    else:
        values = {
            "setup_s": stats["setup_s"]["median"],
            "wall_rel": stats["wall_rel"]["median"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record.update({"seconds": args.seconds, "trace": args.trace, "timing_stats": stats, "metrics": metrics})
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for message in record["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {len(record['passes'])} passes; record in {result_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
