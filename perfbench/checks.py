"""Correctness gate: checks on one invocation's output files.

Run outside the timed region, with the original (untraced) functions.  Each
check returns a list of failure messages; an empty list means the output
passed.  Byte identity across passes and exit codes are checked by the
worker itself.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from fourier_minnorm.model import build_spectrum, classify_grid
from fourier_minnorm.risktheory import risk_trace_over, risk_trace_under

ORACLE_MAX_D = 4096  # above this the dense oracle needs an n x D complex matrix per row
ORACLE_TOLERANCE = 1e-10  # absolute; closed forms agree with the oracles to ~1e-15 here
ORACLE_ROWS = 5  # sampled rows per table
RESIDUAL_TOLERANCE = 1e-8


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _oracle(D: int, n: int, p: int, r: float, q: float) -> float:
    spectrum = build_spectrum(D, r)
    grid = classify_grid(D, n, p)
    if p <= n:
        return risk_trace_under(spectrum, grid)
    return risk_trace_over(spectrum, grid, q).risk


def _check_rows(rows: list[dict[str, str]], column: str, rng: random.Random, where: str) -> list[str]:
    failures = []
    small = []
    for row in rows:
        value = float(row[column])
        if not (math.isfinite(value) and value >= 0.0):
            failures.append(f"{where}: {column}={row[column]} is not finite and non-negative")
        if int(row["D"]) <= ORACLE_MAX_D:
            small.append(row)
    for row in rng.sample(small, min(ORACLE_ROWS, len(small))):
        D, n, p = int(row["D"]), int(row["n"]), int(row["p"])
        r, q = float(row["r"]), float(row["q"])
        expected = _oracle(D, n, p, r, q)
        if abs(float(row[column]) - expected) > ORACLE_TOLERANCE:
            failures.append(f"{where}: D={D} n={n} p={p} r={r} q={q}: {column}={row[column]} "
                            f"but the trace oracle gives {expected!r}")
    return failures


def risk_table(outdir: Path, rng: random.Random) -> list[str]:
    """risk-curve, mc-risk and heatmap tables: closed form vs dense oracle."""
    (path,) = outdir.glob("*.csv")
    rows = _read_csv(path)
    if not rows:
        return [f"{path.name}: no rows"]
    column = "risk_theory" if "risk_theory" in rows[0] else "risk"
    return _check_rows(rows, column, rng, path.name)


def bound_table(outdir: Path, rng: random.Random) -> list[str]:
    """bound-check table: summary row valid, sampled risks match the oracle."""
    (path,) = outdir.glob("*.csv")
    rows = _read_csv(path)
    summary = [row for row in rows if row["kind"] == "summary"]
    failures = []
    if len(summary) != 1 or summary[0]["valid"] != "true":
        failures.append(f"{path.name}: summary row is not valid: {summary}")
    configs = [row for row in rows if row["kind"] == "config"]
    return failures + _check_rows(configs, "risk", rng, path.name)


def interp(outdir: Path, rng: random.Random) -> list[str]:
    """interp metrics: min-norm fits interpolate; weighting lowers the RMSE."""
    (path,) = outdir.glob("*.metrics.json")
    per_method = json.loads(path.read_text(encoding="utf-8"))["per_method"]
    failures = []
    for method in ("weighted-min-norm", "plain-min-norm"):
        if method in per_method and per_method[method]["sample_residual"] > RESIDUAL_TOLERANCE:
            failures.append(f"{path.name}: {method} sample_residual "
                            f"{per_method[method]['sample_residual']!r} > {RESIDUAL_TOLERANCE}")
    weighted = per_method.get("weighted-min-norm", {}).get("rmse")
    plain = per_method.get("plain-min-norm", {}).get("rmse")
    if weighted is not None and plain is not None and not weighted < plain:
        failures.append(f"{path.name}: weighted RMSE {weighted!r} is not below plain RMSE {plain!r}")
    return failures


def none(outdir: Path, rng: random.Random) -> list[str]:
    return []


CHECKS = {"risk_table": risk_table, "bound_table": bound_table, "interp": interp, "none": none}
