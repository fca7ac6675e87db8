"""One workload in its own process: timed passes, then the correctness gate.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR --result FILE

The timed region of an invocation is the call ``fourier_minnorm.cli.main``.
The reference computation of ``reference.py`` is read between invocations
and, every 0.2 s, during untraced single-threaded ones; its time is taken
off the invocation's.
Passes repeat until the next one would end after ``--seconds``.  With
``--trace 1`` untraced and traced passes alternate; with ``--trace 0`` set-up
time is sampled after each pass.  The result is written to ``--result`` as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fourier_minnorm  # noqa: E402
import fourier_minnorm.cli as cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402

SETUP_SPAWNS_PER_PASS = 3


def run_invocation(argv: list[str], period: float) -> tuple[object, float, list[float], str | None]:
    """Time one cli.main call, reading the reference every ``period`` seconds.

    Returns (exit code, seconds without the readings, readings, traceback or None).
    """
    sampler = reference.Sampler(period)
    start = time.perf_counter()
    try:
        with sampler:
            rc = cli.main(argv)
        error = None
    except SystemExit as exc:  # argparse rejects the arguments
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception:
        rc, error = "exception", traceback.format_exc()
    return rc, time.perf_counter() - start - sampler.spent, sampler.readings, error


def single_threaded(argv: list[str]) -> bool:
    return "--threads" not in argv or int(argv[argv.index("--threads") + 1]) <= 1


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def time_setup(spawns: int) -> list[float]:
    """Wall times of fresh interpreters that each import fourier_minnorm.cli."""
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import fourier_minnorm.cli"], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"importing fourier_minnorm.cli failed:\n{done.stderr.decode()}")
    return times


def run_pass(index: int, invocations, workdir: Path, tracer: Tracer | None) -> dict:
    """One pass of the workload's invocations.

    Its ``wall_rel`` divides each invocation's time by the mean reference
    reading before, during and after it.  Traced and multi-threaded
    invocations are not read inside: the readings would land in the spans or
    wait for the pool's threads.
    """
    passdir = workdir / f"pass{index}"
    wall = 0.0
    wall_rel = 0.0
    commands: dict[str, float] = defaultdict(float)
    results = []
    before = reference.readings()
    all_readings = list(before)
    for i, (metric, argv, _) in enumerate(invocations):
        outdir = passdir / f"inv{i:02d}"
        outdir.mkdir(parents=True)
        out = outdir / ("out" if argv[0] == "interp" else "out.csv")
        if tracer is not None:
            tracer.invocation = i
        period = reference.SAMPLE_PERIOD_S if tracer is None and single_threaded(argv) else 0.0
        rc, seconds, during, error = run_invocation([*argv, "--out", str(out)], period)
        after = reference.readings()
        wall += seconds
        wall_rel += seconds / statistics.fmean(before + during + after)
        all_readings += during + after
        before = after
        if metric is not None:
            commands[metric] += seconds
        results.append({"rc": rc, "error": error})
    return {"traced": tracer is not None, "wall_s": wall, "wall_rel": wall_rel,
            "reference_s": statistics.median(all_readings), "commands": dict(commands),
            "results": results, "dir": passdir}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning a dict
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fourier_minnorm").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    invocations = WORKLOADS[args.workload](args.seed)
    min_passes = 2  # byte identity needs two passes with the same seed
    # Set-up is timed between passes, so it samples the same stretch of time
    # as the passes do; the first spawn compiles byte code, which users pay once.
    setup_spawns = 0 if args.trace else SETUP_SPAWNS_PER_PASS
    if setup_spawns:
        time_setup(1)
    setup: list[float] = []
    passes: list[dict] = []
    hashes: list[list[str]] = []
    layer_runs: list[dict] = []
    first_tracer = None
    peak_rss_kb = 0
    started = time.perf_counter()
    elapsed = {False: [], True: []}  # pass plus its set-up spawns, by traced
    while True:
        pass_started = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(fourier_minnorm)
        try:
            record = run_pass(len(passes), invocations, args.workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if traced:
            layer_runs.append(tracer.per_layer_metrics())
            first_tracer = first_tracer or tracer
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passdir = record.pop("dir")
        hashes.append([digest(passdir / f"inv{i:02d}") for i in range(len(invocations))])
        if passes:
            shutil.rmtree(passdir)
        passes.append(record)
        setup += time_setup(setup_spawns)
        elapsed[traced].append(time.perf_counter() - pass_started)
        next_traced = bool(args.trace) and len(passes) % 2 == 1
        next_estimate = max(elapsed[next_traced] or elapsed[traced])
        if len(passes) >= min_passes and time.perf_counter() - started + next_estimate > args.seconds:
            break

    # Correctness gate, outside the timed region.
    failures: list[str] = []
    content_ok = []
    for i, (_, argv, check) in enumerate(invocations):
        rng = random.Random(f"{args.seed}:{i}")
        try:
            problems = checks.CHECKS[check](args.workdir / "pass0" / f"inv{i:02d}", rng)
        except Exception:  # a malformed or missing output is a failed invocation
            problems = [traceback.format_exc()]
        content_ok.append(not problems)
        failures.extend(f"inv{i:02d} {' '.join(argv)}: {msg}" for msg in problems)
    failed = 0
    for k, record in enumerate(passes):
        for i, result in enumerate(record["results"]):
            bad = False
            if result["rc"] != 0:
                bad = True
                failures.append(f"pass{k} inv{i:02d} {' '.join(invocations[i][1])}: exit {result['rc']}"
                                + (f"\n{result['error']}" if result["error"] else ""))
            if hashes[k][i] != hashes[0][i]:
                bad = True
                failures.append(f"pass{k} inv{i:02d}: output bytes differ from pass0")
            if not content_ok[i]:
                bad = True
            failed += bad
    shutil.rmtree(args.workdir / "pass0")

    trace_file = None
    if first_tracer is not None:
        trace_file = args.workdir.parent / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz"
        first_tracer.dump(trace_file)
    per_layer = {}
    if layer_runs:
        per_layer = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    for record in passes:
        del record["results"]
    result = {
        "workload": args.workload,
        "passes": passes,
        "invocations": [" ".join(argv) for _, argv, _ in invocations],
        "attempted": len(passes) * len(invocations),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": setup,
        "per_layer": per_layer,
        "trace_file": str(trace_file) if trace_file else None,
        "environment": environment(args.seed),
    }
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
