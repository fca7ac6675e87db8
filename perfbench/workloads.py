"""The benchmark's workloads: the CLI invocations of one pass.

Each invocation is ``(metric, argv, check)``: ``metric`` names the
per-command time it adds to (None: only the pass time), ``argv`` is passed
to ``fourier_minnorm.cli.main`` with ``--out`` appended, and ``check``
names the output check in ``checks.py``.  The benchmark seed feeds every ``--seed``.
"""

from __future__ import annotations

import os

R_GRID = ",".join(f"{0.1 * i:.1f}" for i in range(21))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def theory(seed: int) -> list[tuple[str, list[str], str]]:
    """Aligned closed-form sweeps at paper size; no Monte Carlo."""
    out = [("risk_curve_s", ["risk-curve", "-D", "1024", "-n", "64", "--r-values", "0.3,0.5,1.0",
                             "--q-values", "0.0,0.3,0.5,1.0"], "risk_table")]
    for n in (16, 64, 128):
        base = ["heatmap", "-D", "1024", "-n", str(n), "--r-values", R_GRID]
        out.append(("heatmap_s", base + ["--q-rule", "match-r"], "risk_table"))
        out.append(("heatmap_s", base + ["--q-rule", "fixed", "--q-fixed", "0"], "risk_table"))
    out.append((None, ["bound-check", "--r-values", "0.6,0.75,1.0,1.5", "--n-values", "8,16,32,64,128",
                       "--l-values", "2,4,8", "--tau-multipliers", "2,4,8"], "bound_table"))
    out.append(("risk_curve_s", ["risk-curve", "-D", "65536", "-n", "256", "--r-values", "1.0"], "risk_table"))
    return out


def montecarlo(seed: int) -> list[tuple[str, list[str], str]]:
    """Aligned Monte Carlo: sampling, FFT solves, least squares, threads."""
    s = str(seed)
    return [
        ("mc_risk_s", ["mc-risk", "-D", "1024", "-n", "64", "--r-values", "0.3,0.5,1.0",
                       "--trials", "100", "--seed", s], "risk_table"),
        ("concentration_s", ["concentration", "-D", "1024", "-n", "64", "-p", "256", "--r", "1.0",
                             "--q", "1.0", "--trials", "5000", "--seed", s], "none"),
        ("mc_risk_threaded_s", ["mc-risk", "-D", "1024", "-n", "64", "--r-values", "1.0",
                                "--trials", "100", "--seed", s, "--threads", str(min(2, nproc()))],
         "risk_table"),
    ]


def off_grid(seed: int) -> list[tuple[str, list[str], str]]:
    """Misaligned grids and interpolation: the dense routes."""
    s = str(seed)
    p_values = ",".join(str(p) for p in [10, 20, 30, 40, 50, *range(90, 931, 70)])
    out = [
        ("risk_curve_s", ["risk-curve", "-D", "1000", "-n", "60", "--r-values", "0.5,1.0",
                          "--q-values", "0.0,1.0", "--p-values", p_values], "risk_table"),
        ("mc_risk_s", ["mc-risk", "-D", "1000", "-n", "60", "--r-values", "1.0", "--q-values", "0.0,1.0",
                       "--p-values", "30,90,250,500,1000", "--trials", "50", "--seed", s], "risk_table"),
    ]
    # The thirteen invocations of scripts/run_interpolation.py.
    for target, q in (("stage1d", "1.5"), ("cubic1d", "2.0")):
        for p in ("1", "7", "15"):
            out.append(("interp_s", ["interp", "--target", target, "--n-axis", "15", "--p-axis", p,
                                     "--d-axis", "1000", "--q", q, "--methods", "least-squares",
                                     "--eval-points", "1000", "--seed", s], "interp"))
        out.append(("interp_s", ["interp", "--target", target, "--n-axis", "15", "--p-axis", "1000",
                                 "--d-axis", "1000", "--q", q, "--methods", "weighted-min-norm,plain-min-norm",
                                 "--eval-points", "1000", "--seed", s], "interp"))
    out.append(("interp_s", ["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "1000",
                             "--d-axis", "1000", "--q", "2.0", "--noise-sigma", "0.1", "--seed", s,
                             "--methods", "weighted-min-norm,plain-min-norm", "--eval-points", "1000"], "interp"))
    out.append(("interp_s", ["interp", "--target", "cos2d", "--n-axis", "10", "--p-axis", "3", "--d-axis", "100",
                             "--q", "2.0", "--methods", "least-squares", "--eval-points", "101", "--seed", s],
                "interp"))
    for q in ("1.0", "2.0", "4.0"):
        out.append(("interp_s", ["interp", "--target", "cos2d", "--n-axis", "10", "--p-axis", "41",
                                 "--d-axis", "100", "--q", q, "--methods", "weighted-min-norm,plain-min-norm",
                                 "--eval-points", "101", "--seed", s], "interp"))
    return out


WORKLOADS = {"theory": theory, "montecarlo": montecarlo, "off_grid": off_grid}

# Per-command times, in the order they are reported.
COMMAND_METRICS = ("risk_curve_s", "heatmap_s", "mc_risk_s", "mc_risk_threaded_s",
                   "concentration_s", "interp_s")
