#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are record files written by run.py (``.perfbench/results/*.json``)
or directories holding them; copy each commit's records into a directory of
its own first.  For every workload and metric the table gives each side's
median and quartile spread (as a share of the median) and the change of the
medians.  End-to-end metrics are judged against the bounds in
BENCHMARK.json: ``REGRESSION`` when HEAD is worse by more than the bound,
``unresolved`` when BASE's own spread exceeds the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per record."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, head = load(argv[0]), load(argv[1])
    print(f"{'workload':12} {'metric':45} {'n':>5} {'base':>12} {'spread':>7} {'head':>12} {'spread':>7} "
          f"{'change':>8}  verdict")
    for key in sorted(set(base) & set(head)):
        (b_med, b_spread), (h_med, h_spread) = summary(base[key]), summary(head[key])
        change = (h_med - b_med) / abs(b_med) if b_med else 0.0
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = change if better == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "unresolved" if b_spread > bound else "ok"
        print(f"{key[0]:12} {key[1]:45} {len(base[key]):>2}/{len(head[key]):<2} {b_med:12.6g} {b_spread:7.3f} "
              f"{h_med:12.6g} {h_spread:7.3f} {change:+8.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
