import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm.cli import (
    SPEC_TYPES,
    BoundCheckSpec,
    ConcentrationSpec,
    HeatmapSpec,
    InterpSpec,
    McRiskSpec,
    RiskCurveSpec,
    build_parser,
    main,
    render_cell,
    run_heatmap,
    run_interp,
    spec_from_args,
    spec_from_dict,
    spec_to_dict,
)
import fourier_minnorm
import fourier_minnorm.interpolation as interpolation
from fourier_minnorm import build_spectrum, classify_grid
from fourier_minnorm.oracles import risk_trace_over
from fourier_minnorm.errors import ConfigurationError
from fourier_minnorm.interpolation import sample_axis


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(row[idx]) for row in rows]


class TestSpecs:
    CASES = [
        RiskCurveSpec(D=16, n=4, r_values=(0.5, 1.0)),
        McRiskSpec(D=16, n=4, r_values=(1.0,), trials=10, seed=7),
        HeatmapSpec(D=16, n=4, r_values=(0.0, 1.0), q_rule="fixed", q_fixed=0.0),
        BoundCheckSpec(n_values=(8,), r_values=(1.0,), l_values=(2,)),
        InterpSpec(n_axis=15, p_axis=15, D_axis=20, q=2.0, target="cubic1d"),
        ConcentrationSpec(D=64, n=8, p=16, r=1.0, q=1.0, trials=50),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: s.COMMAND)
    def test_roundtrip(self, spec):
        data = spec_to_dict(spec)
        assert spec_from_dict(type(spec), data) == spec
        # canonical dicts survive the full loop too
        assert spec_to_dict(spec_from_dict(type(spec), data)) == data

    def test_unknown_field_rejected(self):
        with pytest.raises(Exception, match="unknown config field"):
            spec_from_dict(RiskCurveSpec, {"D": 8, "n": 2, "r_values": [1.0], "bogus": 3})

    def test_command_mismatch_rejected(self):
        with pytest.raises(Exception, match="command"):
            spec_from_dict(RiskCurveSpec, {"command": "heatmap", "D": 8, "n": 2, "r_values": [1.0]})

    CURVE = {"D": 16, "n": 4, "r_values": (1.0,)}
    INTERP = {"n_axis": 4, "p_axis": 8, "D_axis": 16, "q": 1.0, "target": "cubic1d"}
    CONCENTRATION = {"D": 64, "n": 8, "p": 16, "r": 1.0, "q": 1.0}

    @pytest.mark.parametrize(
        "cls, fields, name, value",
        [
            (RiskCurveSpec, CURVE, "D", "16"),
            (RiskCurveSpec, CURVE, "n", True),
            (RiskCurveSpec, CURVE, "r_values", ()),
            (RiskCurveSpec, CURVE, "q_values", (0.5, "1")),
            (RiskCurveSpec, CURVE, "p_values", 8),
            (RiskCurveSpec, CURVE, "p_values", ()),
            (McRiskSpec, CURVE, "trials", 2.0),
            (McRiskSpec, CURVE, "coefficient_model", "bogus"),
            (McRiskSpec, CURVE, "threads", 0),
            (HeatmapSpec, CURVE, "r_values", ()),
            (HeatmapSpec, CURVE, "q_rule", "bogus"),
            (HeatmapSpec, CURVE, "q_fixed", None),
            (HeatmapSpec, CURVE, "format", "xml"),
            (BoundCheckSpec, {"n_values": (4,), "r_values": (1.0,)}, "n_values", (4, 2.5)),
            (BoundCheckSpec, {"n_values": (4,), "r_values": (1.0,)}, "tau_multipliers", ()),
            (InterpSpec, INTERP, "methods", ("bogus",)),
            (InterpSpec, INTERP, "methods", ()),
            (InterpSpec, INTERP, "weight_kind", "bogus"),
            (InterpSpec, INTERP, "eval_points", 0),
            (InterpSpec, INTERP, "target", 3),
            (InterpSpec, INTERP, "out", None),
            (ConcentrationSpec, CONCENTRATION, "t_multipliers", (1.0, math.nan)),
            (ConcentrationSpec, CONCENTRATION, "t_multipliers", ()),
            (ConcentrationSpec, CONCENTRATION, "coefficient_model", "bogus"),
        ],
    )
    def test_a_spec_built_directly_checks_its_fields(self, cls, fields, name, value):
        with pytest.raises(ConfigurationError, match=f"\\(field {name}\\)$|^field {name} must"):
            cls(**{**fields, name: value})

    def test_runners_refuse_bad_specs_built_directly(self):
        with pytest.raises(ConfigurationError, match="field methods must be one of"):
            run_interp(InterpSpec(**self.INTERP, methods=("bogus",)))
        with pytest.raises(ConfigurationError, match="^r grid is empty"):
            run_heatmap(HeatmapSpec(D=64, n=8, r_values=()))

    def test_a_spec_built_directly_is_normalised(self):
        spec = HeatmapSpec(D=16, n=4, r_values=[1], q_fixed=0)
        assert spec.r_values == (1.0,) and isinstance(spec.r_values[0], float) and isinstance(spec.q_fixed, float)
        assert spec == spec_from_dict(HeatmapSpec, spec_to_dict(spec))

    def test_float_formatting_roundtrip(self):
        value = 1 / 3
        assert float(render_cell(value)) == value
        assert render_cell(True) == "true"
        assert render_cell(None) == ""


def _subparsers():
    """The parser of each command, by name."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


_COMMON_FLAGS = {"-h", "--help", "--config", "--out", "--format", "--threads"}
_CURVE_FLAGS = {"--ambient", "-D", "--samples", "-n", "--r-values", "--p-values"}
_MC_FLAGS = {"--trials", "--seed", "--coefficient-model"}


class TestGeneratedParser:
    OPTION_STRINGS = {
        "risk-curve": _CURVE_FLAGS | {"--q-values"},
        "mc-risk": _CURVE_FLAGS | {"--q-values", "--confidence"} | _MC_FLAGS,
        "heatmap": _CURVE_FLAGS | {"--q-rule", "--q-fixed"},
        "bound-check": {"--n-values", "--r-values", "--l-values", "--tau-multipliers"},
        "interp": {"--n-axis", "--p-axis", "--d-axis", "--q", "--target", "--samples-file",
                   "--methods", "--weight-kind", "--noise-sigma", "--eval-points", "--seed"},
        "concentration": {"--ambient", "-D", "--samples", "-n", "--truncation", "-p", "--r", "--q",
                          "--t-multipliers"} | _MC_FLAGS,
    }
    SPECS = TestSpecs.CASES + [
        McRiskSpec(D=32, n=4, r_values=(0.5, 1.5), q_values=(0.0, 2.0), p_values=(2, 8), trials=3,
                   seed=2**70, confidence=0.9, coefficient_model="real-gaussian", out="a.json", format="json",
                   threads=2),
        HeatmapSpec(D=16, n=4, r_values=(1.0,), q_rule="fixed", q_fixed=0.25, p_values=(4,)),
        BoundCheckSpec(n_values=(4, 8), r_values=(0.6,), l_values=(2, 3), tau_multipliers=(5,), format="json"),
        InterpSpec(n_axis=4, p_axis=9, D_axis=30, q=1.5, samples_file="s.csv",
                   methods=("least-squares", "weighted-min-norm"), weight_kind="separable", noise_sigma=0.1,
                   eval_points=7, seed=3, out="stem", threads=2),
        ConcentrationSpec(D=64, n=8, p=16, r=1.0, q=0.75, t_multipliers=(0.0, 3.5), coefficient_model="real-gaussian"),
    ]

    @pytest.mark.parametrize("command", sorted(SPEC_TYPES))
    def test_one_flag_per_field(self, command):
        actions = _subparsers()[command]._actions
        assert {flag for action in actions for flag in action.option_strings} == (
            _COMMON_FLAGS | self.OPTION_STRINGS[command])
        dests = [action.dest for action in actions]
        for f in dataclasses.fields(SPEC_TYPES[command]):
            assert dests.count(f.name) == 1, f.name
        assert set(dests) == {f.name for f in dataclasses.fields(SPEC_TYPES[command])} | {"help", "config"}

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.COMMAND)
    def test_spec_as_argv_parses_back(self, spec):
        flags = {action.dest: action.option_strings[0] for action in _subparsers()[spec.COMMAND]._actions}
        argv = [spec.COMMAND]
        for name, value in spec_to_dict(spec).items():
            if name != "command" and value is not None:
                argv += [flags[name], ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        assert spec_from_args(build_parser().parse_args(argv)) == spec

    @pytest.mark.parametrize(
        "command, config, field, choices",
        [
            ("risk-curve", {"D": 16, "n": 4, "r_values": [1.0], "format": "bogus"}, "format", "'csv', 'json'"),
            ("heatmap", {"D": 16, "n": 4, "r_values": [1.0], "q_rule": "bogus"}, "q_rule", "'match-r', 'fixed'"),
            ("interp", {"n_axis": 15, "p_axis": 30, "D_axis": 100, "q": 1.0, "target": "cubic1d",
                        "weight_kind": "bogus"}, "weight_kind", "'separable', 'euclidean'"),
            ("interp", {"n_axis": 15, "p_axis": 30, "D_axis": 100, "q": 1.0, "target": "cubic1d",
                        "methods": ["plain-min-norm", "bogus"]}, "methods",
             "'least-squares', 'plain-min-norm', 'weighted-min-norm'"),
        ],
        ids=["format", "q_rule", "weight_kind", "methods"],
    )
    def test_bad_choice_in_a_config_file(self, tmp_path, capsys, command, config, field, choices):
        # coefficient_model: TestConfigFile.test_bad_coefficient_model_lists_the_choices
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: field {field} must be one of {choices}, got 'bogus'\n"
        assert list(tmp_path.iterdir()) == [path]


class TestRiskCurve:
    def test_basic_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "risk-curve",
                "-D", "64", "-n", "8",
                "--r-values", "0.5,1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["D", "n", "p", "r", "q", "regime", "risk_theory"]
        # default rule: p < n plus aligned multiples, per r (q = r)
        assert len(rows) == 2 * (7 + 8)
        keys = [(float(row[3]), float(row[4]), int(row[2])) for row in rows]
        assert keys == sorted(keys)

    def test_full_truncation_row_value(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["risk-curve", "-D", "64", "-n", "8", "--r-values", "1.0",
              "--q-values", "0.0", "--p-values", "64", "--out", str(out)])
        header, rows = read_csv(out)
        risk = column(header, rows, "risk_theory")[0]
        assert risk == pytest.approx(1 - 8 / 64, abs=1e-14)

    def test_serialized_floats_roundtrip_exactly(self, tmp_path):
        from fourier_minnorm import build_spectrum, sweep_risks

        out = tmp_path / "curve.csv"
        main(["risk-curve", "-D", "48", "-n", "6", "--r-values", "0.7",
              "--q-values", "1.3", "--p-values", "12,18", "--out", str(out)])
        header, rows = read_csv(out)
        s = build_spectrum(48, 0.7)
        for row in rows:
            p = int(row[header.index("p")])
            expected = sweep_risks([s], 6, [1.3], [p])[0, 0]
            assert float(row[header.index("risk_theory")]) == expected

    def test_double_descent_peak(self, tmp_path):
        # r = q = 0.5: risk peaks at p = n and descends beyond
        out = tmp_path / "curve.csv"
        main(["risk-curve", "-D", "1024", "-n", "64", "--r-values", "0.5",
              "--p-values", "64,1024", "--out", str(out)])
        header, rows = read_csv(out)
        risks = column(header, rows, "risk_theory")
        assert risks[0] > risks[1]

    def test_empty_p_grid_errors_without_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["risk-curve", "-D", "64", "-n", "8", "--r-values", "1.0",
                     "--p-values", "", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "p grid" in capsys.readouterr().err

    def test_unaligned_rule_rejected(self, tmp_path):
        code = main(["risk-curve", "-D", "10", "-n", "3", "--r-values", "1.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        main(["risk-curve", "-D", "16", "-n", "4", "--r-values", "1.0",
              "--p-values", "4,8", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "D"
        assert len(payload["rows"]) == 2


class TestMcRisk:
    def test_reruns_byte_identical_across_threads(self, tmp_path):
        args = ["mc-risk", "-D", "32", "-n", "4", "--r-values", "0.5,1.0",
                "--p-values", "2,4,8,32", "--trials", "25", "--seed", "11"]
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / f"mc_{tag}.csv"
            assert main(args + ["--out", str(out), "--threads", str(threads)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_mean_within_ci(self, tmp_path):
        out = tmp_path / "mc.csv"
        main(["mc-risk", "-D", "32", "-n", "4", "--p-values", "2,8,16",
              "--r-values", "1.0", "--trials", "100", "--seed", "3", "--out", str(out)])
        header, rows = read_csv(out)
        for mean, lo, hi in zip(
            column(header, rows, "risk_mc_mean"),
            column(header, rows, "ci_low"),
            column(header, rows, "ci_high"),
        ):
            assert lo <= mean <= hi

    def test_general_truncation_uses_trace_theory(self, tmp_path):
        # n does not divide p: the closed-form theory column agrees with the
        # dense trace form
        out = tmp_path / "mc.csv"
        code = main(["mc-risk", "-D", "32", "-n", "4", "--p-values", "6",
                     "--r-values", "1.0", "--trials", "200", "--seed", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("regime")] == "over_general"
        theory = column(header, rows, "risk_theory")[0]
        mean = column(header, rows, "risk_mc_mean")[0]
        assert mean == pytest.approx(theory, rel=0.15)
        grid = classify_grid(32, 4, 6)
        assert theory == pytest.approx(risk_trace_over(build_spectrum(32, 1.0), grid, 1.0).risk, abs=1e-12)

    def test_theory_inside_ci_for_most_rows(self, tmp_path):
        out = tmp_path / "mc.csv"
        main(["mc-risk", "-D", "256", "-n", "16", "--r-values", "1.0",
              "--trials", "500", "--seed", "19", "--out", str(out)])
        header, rows = read_csv(out)
        theory = column(header, rows, "risk_theory")
        lo = column(header, rows, "ci_low")
        hi = column(header, rows, "ci_high")
        hits = sum(1 for t, a, b in zip(theory, lo, hi) if a <= t <= b)
        assert hits >= 0.9 * len(rows)

    def test_tiny_theory_risks_sit_inside_their_sample_range(self, tmp_path):
        # r = q = 5: every row's risk is about 1.15e-17, far below what a form subtracting from 1 resolves
        out = tmp_path / "mc.csv"
        code = main(["mc-risk", "-D", "1024", "-n", "64", "--r-values", "5", "--q-values", "5",
                     "--p-values", "64,128,512,1024", "--trials", "400", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        theory = column(header, rows, "risk_theory")
        lo = column(header, rows, "ci_low")
        hi = column(header, rows, "ci_high")
        assert len(rows) == 4
        assert all(a <= t <= b for t, a, b in zip(theory, lo, hi)), list(zip(theory, lo, hi))


class TestHeatmap:
    def test_plain_sheet_jump_at_transition(self, tmp_path):
        # q = 0 risks jump once p crosses n when the decay is steep
        out = tmp_path / "heat.csv"
        main(["heatmap", "-D", "256", "-n", "16", "--r-values", "1.5",
              "--q-rule", "fixed", "--q-fixed", "0.0", "--out", str(out)])
        header, rows = read_csv(out)
        p = column(header, rows, "p", int)
        risk = column(header, rows, "risk")
        at = {pp: rr for pp, rr in zip(p, risk)}
        assert at[32] > at[15]

    def test_matched_sheet_monotone_down_column(self, tmp_path):
        out = tmp_path / "heat.csv"
        main(["heatmap", "-D", "256", "-n", "16", "--r-values", "1.5", "--out", str(out)])
        header, rows = read_csv(out)
        risks = column(header, rows, "risk")
        assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:]))

    def test_single_cell(self, tmp_path):
        out = tmp_path / "heat.csv"
        main(["heatmap", "-D", "16", "-n", "4", "--r-values", "1.0",
              "--p-values", "8", "--out", str(out)])
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_log_column_matches(self, tmp_path):
        out = tmp_path / "heat.csv"
        main(["heatmap", "-D", "16", "-n", "4", "--r-values", "1.0",
              "--p-values", "4,8", "--out", str(out)])
        header, rows = read_csv(out)
        for risk, log_risk in zip(column(header, rows, "risk"), column(header, rows, "log10_risk")):
            assert log_risk == pytest.approx(math.log10(risk), rel=1e-12)

    def test_tiny_risks_keep_their_log(self, tmp_path):
        # r = 5: risks of about 1e-17 stay positive, so every row keeps its log10 cell
        out = tmp_path / "heat.csv"
        assert main(["heatmap", "-D", "1024", "-n", "64", "--r-values", "3,5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        risks = column(header, rows, "risk")
        assert all(risk > 0 for risk in risks)
        for risk, log_risk in zip(risks, column(header, rows, "log10_risk")):
            assert log_risk == pytest.approx(math.log10(risk), rel=1e-12)


class TestBoundCheck:
    def test_valid_rows_and_summary(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bound-check", "--n-values", "8,16", "--r-values", "0.75,1.0",
                     "--l-values", "2,4", "--tau-multipliers", "2,4", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "kind"
        config_rows = [row for row in rows if row[0] == "config"]
        summary_rows = [row for row in rows if row[0] == "summary"]
        assert len(config_rows) == 16 and len(summary_rows) == 1
        assert all(row[header.index("valid")] == "true" for row in config_rows)
        slacks = [float(row[header.index("slack")]) for row in config_rows]
        assert float(summary_rows[0][header.index("slack")]) == pytest.approx(min(slacks), rel=0)

    def test_out_of_domain_skipped_to_sidecar(self, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["bound-check", "--n-values", "8", "--r-values", "0.4,1.0",
              "--l-values", "1,2", "--tau-multipliers", "2", "--out", str(out)])
        header, rows = read_csv(out)
        assert all(row[header.index("r")] != "0.4" for row in rows if row[0] == "config")
        sidecar = tmp_path / "bounds.csv.log"
        assert sidecar.exists()
        text = sidecar.read_text()
        assert "r=0.4" in text and "l >= 2" in text


class TestConcentration:
    def test_columns_and_domination(self, tmp_path):
        out = tmp_path / "conc.csv"
        code = main(["concentration", "-D", "64", "-n", "8", "-p", "16",
                     "--r", "1.0", "--q", "1.0", "--trials", "200", "--seed", "5",
                     "--t-multipliers", "0.5,1,2", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["D", "n", "p", "r", "q", "trials", "t",
                          "empirical_tail", "bound_tail", "std_err"]
        for row in rows:
            emp = float(row[header.index("empirical_tail")])
            bound = float(row[header.index("bound_tail")])
            se = float(row[header.index("std_err")])
            if bound < 1.0:
                assert emp <= bound + 3 * se

    def test_out_of_regime_exit_code(self, tmp_path):
        code = main(["concentration", "-D", "64", "-n", "8", "-p", "16",
                     "--r", "0.4", "--q", "0.4", "--trials", "10",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "r, q, flags, limit, multiples",
        [
            # q^3 past the double range (first two), then T_q^2 past it (last)
            (1e155, 1e155, ["--trials", "3"], 1.5, [0.5, 1.0, 2.0]),
            (1e103, 1e103, ["--trials", "3"], 1.5, [0.5, 1.0, 2.0]),
            (1e200, 1.0, ["--trials", "50", "--t-multipliers", "0.5,2"], 10 / 3, [0.5, 2.0]),
        ],
    )
    def test_large_exponents_give_finite_constant_and_tails(self, tmp_path, capsys, r, q, flags, limit, multiples):
        out = tmp_path / "conc.csv"
        code = main(["concentration", "-D", "8", "-n", "2", "-p", "4", "--r", repr(r), "--q", repr(q),
                     *flags, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        header, rows = read_csv(out)
        T_q = 4 * (2 * r - 1) * math.sqrt(limit)  # the q -> inf limit, or q = 1
        assert column(header, rows, "t") == pytest.approx([m * T_q for m in multiples], rel=1e-13)
        tails = [min(1.0, 2 * math.exp(-min(m * m, m))) for m in multiples]
        assert column(header, rows, "bound_tail") == pytest.approx(tails, rel=1e-15)
        assert column(header, rows, "bound_tail")[-1] == 0.2706705664732254

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--r", "3e307", "--q", "1"], "error: T_q overflows a double at decay exponent r=3e+307, "
                                           "weighting exponent q=1.0\n"),
            (["--r", "1", "--q", "1", "--t-multipliers", "1e308"],
             "error: t = 1e+308 * T_q overflows a double at T_q = 7.302967433402215 (field t_multipliers)\n"),
        ],
        ids=["T_q", "t"],
    )
    def test_overflow_is_blamed_on_its_own_field(self, tmp_path, capsys, flags, message):
        code = main(["concentration", "-D", "8", "-n", "2", "-p", "4", *flags, "--trials", "3",
                     "--out", str(tmp_path / "conc.csv")])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not list(tmp_path.iterdir())


class TestSweepAgreement:
    """risk-curve, mc-risk and heatmap build one sweep: the columns they share agree cell for cell."""

    SPEC = ["-D", "64", "-n", "8", "--r-values", "0.5,1.0"]

    @staticmethod
    def _cells(tmp_path, argv, fmt, names):
        out = tmp_path / f"{'-'.join(argv)}.{fmt}"
        assert main(argv + TestSweepAgreement.SPEC + ["--format", fmt, "--out", str(out)]) == 0
        if fmt == "csv":
            header, rows = read_csv(out)
        else:
            payload = json.loads(out.read_text(encoding="utf-8"))
            header, rows = payload["columns"], payload["rows"]
        return [[row[header.index(name)] for name in names] for row in rows]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "heatmap_flags, curve_flags", [([], []), (["--q-rule", "fixed", "--q-fixed", "0.5"], ["--q-values", "0.5"])]
    )
    def test_heatmap_equals_risk_curve(self, tmp_path, fmt, heatmap_flags, curve_flags):
        grid = ["D", "n", "p", "r", "q"]
        heatmap = self._cells(tmp_path, ["heatmap", *heatmap_flags], fmt, grid + ["risk"])
        curve = self._cells(tmp_path, ["risk-curve", *curve_flags], fmt, grid + ["risk_theory"])
        assert len(heatmap) == 2 * (7 + 8)
        assert heatmap == curve

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mc_risk_starts_with_the_risk_curve(self, tmp_path, fmt):
        names = ["D", "n", "p", "r", "q", "regime", "risk_theory"]
        mc = self._cells(tmp_path, ["mc-risk", "--trials", "5"], fmt, names)
        assert mc == self._cells(tmp_path, ["risk-curve"], fmt, names)


class TestInterp:
    def test_square_system_methods_coincide(self, tmp_path):
        out = tmp_path / "interp"
        code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "15",
                     "--d-axis", "20", "--q", "2.0", "--eval-points", "64",
                     "--methods", "least-squares,plain-min-norm,weighted-min-norm",
                     "--out", str(out)])
        assert code == 0
        headers, per_method = {}, {}
        for method in ("least-squares", "plain-min-norm", "weighted-min-norm"):
            header, rows = read_csv(tmp_path / f"interp.{method}.csv")
            headers[method] = header
            per_method[method] = column(header, rows, "f_hat")
            assert header == ["x0", "f_true", "f_hat"]
        a, b, c = (np.array(per_method[m]) for m in per_method)
        assert np.max(np.abs(a - b)) <= 1e-8
        assert np.max(np.abs(a - c)) <= 1e-8

    def test_metrics_content(self, tmp_path):
        out = tmp_path / "wm"
        main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "45",
              "--d-axis", "45", "--q", "2.0", "--eval-points", "64", "--out", str(out)])
        metrics = json.loads((tmp_path / "wm.metrics.json").read_text())
        per = metrics["per_method"]
        assert per["weighted-min-norm"]["sample_residual"] <= 1e-8
        assert per["weighted-min-norm"]["rmse"] < per["plain-min-norm"]["rmse"]
        assert per["weighted-min-norm"]["weighted_norm"] < per["plain-min-norm"]["weighted_norm"]

    def test_samples_file_roundtrip(self, tmp_path):
        n = 8
        x = sample_axis(n)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(n)
        lines = ["x0,y"] + [f"{xi:.17g},{yi:.17g}" for xi, yi in zip(x, y)]
        samples = tmp_path / "samples.csv"
        samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "fromfile"
        code = main(["interp", "--samples-file", str(samples),
                     "--n-axis", "8", "--p-axis", "16", "--d-axis", "16", "--q", "1.0",
                     "--eval-points", "32", "--methods", "weighted-min-norm",
                     "--out", str(out)])
        assert code == 0
        metrics = json.loads((tmp_path / "fromfile.metrics.json").read_text())
        assert metrics["samples"] == [float(v) for v in y]
        header, _ = read_csv(tmp_path / "fromfile.weighted-min-norm.csv")
        assert header == ["x0", "f_hat"]

    def test_2d_samples_file_fixes_the_dimension(self, tmp_path):
        # the header x0,x1,y makes a 2-D problem: the same fit as the named target on those samples
        problem = interpolation.InterpolationProblem(dimension=2, n_axis=8, p_axis=17, D_axis=40, q=2.0,
                                                     target="cos2d")
        points = interpolation.training_grid(problem).reshape(-1, 2)
        clean, _ = interpolation.training_samples(problem)
        lines = ["x0,x1,y"] + [f"{x!r},{y!r},{v!r}" for (x, y), v in zip(points.tolist(), clean.ravel().tolist())]
        samples = tmp_path / "samples.csv"
        samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sizes = ["--n-axis", "8", "--p-axis", "17", "--d-axis", "40", "--q", "2", "--eval-points", "9",
                 "--methods", "weighted-min-norm"]
        assert main(["interp", "--samples-file", str(samples), *sizes, "--out", str(tmp_path / "file")]) == 0
        assert main(["interp", "--target", "cos2d", *sizes, "--out", str(tmp_path / "named")]) == 0
        header, rows = read_csv(tmp_path / "file.weighted-min-norm.csv")
        named_header, named_rows = read_csv(tmp_path / "named.weighted-min-norm.csv")
        assert header == ["x0", "x1", "f_hat"] and named_header == ["x0", "x1", "f_true", "f_hat"]
        assert column(header, rows, "f_hat", str) == column(named_header, named_rows, "f_hat", str)
        metrics = json.loads((tmp_path / "file.metrics.json").read_text())
        assert metrics["problem"]["dimension"] == 2 and metrics["samples"] == clean.ravel().tolist()

    @pytest.mark.parametrize("header", ["y", "x1,y"])
    def test_samples_file_header_names_its_axes(self, tmp_path, capsys, header):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"{header}\n0.0,1.0\n0.5,2.0\n", encoding="utf-8")
        code = main(["interp", "--samples-file", str(samples), "--n-axis", "2", "--p-axis", "2", "--d-axis", "4",
                     "--q", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: samples file header {header.split(',')} != expected ['x0', 'y'] (x0,...,x{{d-1}},y in d dims)\n")
        assert list(tmp_path.iterdir()) == [samples]

    def test_dimension_is_not_a_flag(self, tmp_path, capsys):
        # a named target fixes the dimension; a flag that could contradict it is refused
        with pytest.raises(SystemExit) as exc:
            main(["interp", "--target", "cubic1d", "--dimension", "2", "--n-axis", "15", "--p-axis", "15",
                  "--d-axis", "15", "--q", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dimension 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p-axis", "60", "--d-axis", "100", "--eval-points", "5", "--noise-sigma", "1e200"],
            ["--p-axis", "60", "--d-axis", "100", "--eval-points", "5", "--noise-sigma", "1e154"],
            ["--p-axis", "1000", "--d-axis", "1000", "--eval-points", "1000", "--seed", "0",
             "--methods", "weighted-min-norm", "--noise-sigma", "6e152"],
        ],
        ids=["1e200", "1e154", "6e152"],
    )
    def test_large_noise_metrics_are_finite_strict_json(self, tmp_path, argv):
        # every metric fits in a double; only the squares of the norms and the RMSE overflow
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--q", "2", *argv,
                         "--out", str(tmp_path / "noisy")])
        assert code == 0
        per = json.loads((tmp_path / "noisy.metrics.json").read_text(), parse_constant=reject)["per_method"]
        for metrics in per.values():
            for name in ("plain_norm", "rmse", "sample_residual"):
                assert isinstance(metrics[name], float) and math.isfinite(metrics[name]), name
            assert metrics["rmse"] > 1e140

    def test_2d_grid_columns(self, tmp_path):
        out = tmp_path / "two"
        main(["interp", "--target", "cos2d", "--n-axis", "5", "--p-axis", "9",
              "--d-axis", "12", "--q", "2.0", "--eval-points", "8",
              "--methods", "weighted-min-norm", "--out", str(out)])
        header, rows = read_csv(tmp_path / "two.weighted-min-norm.csv")
        assert header == ["x0", "x1", "f_true", "f_hat"]
        assert len(rows) == 64

    def test_unknown_method_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "15", "--d-axis", "20",
                     "--q", "1", "--methods", "weighted-min-norm,foo", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field methods must be one of") and "'least-squares'" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # checked before any method is fitted

    def test_missing_samples_file_is_a_configuration_error(self, tmp_path, capsys):
        code = main(["interp", "--samples-file", str(tmp_path / "nope.csv"),
                     "--n-axis", "15", "--p-axis", "15", "--d-axis", "20", "--q", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read samples file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.0,oops\n0.5,1.0\n", "malformed row"),
            ("0.0,1.0\n0.5,2.0,3.0\n", "malformed row"),  # ragged
            ("0.0,1.0,5.0\n0.5,2.0,6.0\n", "rows must have 2 cells"),  # one cell too many in every row
        ],
    )
    def test_malformed_samples_file_is_a_configuration_error(self, tmp_path, capsys, body, message):
        samples = tmp_path / "samples.csv"
        samples.write_text("x0,y\n" + body, encoding="utf-8")
        code = main(["interp", "--samples-file", str(samples), "--n-axis", "2", "--p-axis", "2",
                     "--d-axis", "4", "--q", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_negative_noise_seed_is_a_configuration_error(self, tmp_path, capsys):
        code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "15", "--d-axis", "15",
                     "--q", "1", "--seed", "-1", "--noise-sigma", "0.1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: field noise_seed must be a nonnegative integer, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_target_exit_code(self, tmp_path):
        code = main(["interp", "--target", "mystery", "--n-axis", "8", "--p-axis", "8",
                     "--d-axis", "8", "--q", "1.0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_reruns_byte_identical(self, tmp_path):
        args = ["interp", "--target", "cos2d", "--n-axis", "5", "--p-axis", "9",
                "--d-axis", "12", "--q", "2.0", "--eval-points", "16",
                "--methods", "weighted-min-norm"]
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"i{tag}"
            assert main(args + ["--out", str(out)]) == 0
            blobs.append(
                (tmp_path / f"i{tag}.weighted-min-norm.csv").read_bytes()
                + (tmp_path / f"i{tag}.metrics.json").read_bytes()
            )
        assert blobs[0] == blobs[1]


    def test_large_q_metrics_are_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = tmp_path / "lq"
        code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "1000",
                     "--d-axis", "1000", "--q", "200", "--eval-points", "64", "--out", str(out)])
        assert code == 0
        per = json.loads((tmp_path / "lq.metrics.json").read_text(), parse_constant=reject)["per_method"]
        for metrics in per.values():
            assert metrics["sample_residual"] <= 1e-12
            assert math.isfinite(metrics["log10_weighted_norm"])
        assert per["plain-min-norm"]["weighted_norm"] is None  # overflows a double
        assert per["weighted-min-norm"]["log10_weighted_norm"] < per["plain-min-norm"]["log10_weighted_norm"]

    def test_overflowing_log_norm_is_null_without_a_warning(self, tmp_path):
        # q * log w_k leaves the float range: the norm and its log are infinite, written as null
        argv = ["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "60", "--d-axis", "100",
                "--q", "1e308", "--eval-points", "3", "--out", str(tmp_path / "big")]
        env = dict(os.environ, PYTHONPATH=str(Path(fourier_minnorm.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fourier_minnorm", *argv],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert b"Warning" not in done.stderr
        per = json.loads((tmp_path / "big.metrics.json").read_text())["per_method"]
        for metrics in per.values():
            assert metrics["log10_weighted_norm"] is None and metrics["weighted_norm"] is None

    @pytest.mark.parametrize(
        "argv",
        [["--p-axis", "7", "--methods", "least-squares"], ["--p-axis", "60"]],
        ids=["least-squares", "min-norm"],
    )
    def test_overflowing_noise_is_a_configuration_error(self, tmp_path, argv):
        # the seed-0 samples stay finite, but their transform overflows
        argv = ["interp", "--target", "cubic1d", "--n-axis", "15", "--d-axis", "100", "--q", "2",
                "--noise-sigma", "1e308", "--eval-points", "5", *argv, "--out", str(tmp_path / "x")]
        env = dict(os.environ, PYTHONPATH=str(Path(fourier_minnorm.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fourier_minnorm", *argv],
                              env=env, capture_output=True, timeout=120)
        err = done.stderr.decode()
        assert done.returncode == 2, err
        assert err == ("error: samples up to |y| = 1.680784261445413e+308 overflow their Fourier transform "
                       "(noise_sigma=1e+308)\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "cubic1d", "--n-axis", "15", "--p-axis", "15", "--d-axis", "20",
             "--methods", "least-squares,plain-min-norm,weighted-min-norm"],
            ["--target", "stage1d", "--n-axis", "15", "--p-axis", "1000", "--d-axis", "1000"],
            ["--target", "cos2d", "--n-axis", "10", "--p-axis", "41", "--d-axis", "100", "--eval-points", "101",
             "--weight-kind", "separable"],
        ],
        ids=["square", "1d", "2d"],
    )
    def test_no_feature_matrix_on_the_interp_route(self, tmp_path, monkeypatch, argv):
        import fourier_minnorm.oracles as oracles

        def forbidden(*args, **kwargs):
            raise AssertionError("dense feature matrix built on the interp route")

        # the dense feature matrix lives only in the oracles, out of the interpolation module's reach
        assert not hasattr(interpolation, "axis_feature_matrix")
        monkeypatch.setattr(oracles, "axis_feature_matrix", forbidden)
        assert main(["interp", *argv, "--q", "2", "--out", str(tmp_path / "x")]) == 0

    def test_residual_guard_exits_3(self, tmp_path, monkeypatch, capsys):
        real_fit = interpolation._class_fit
        monkeypatch.setattr(interpolation, "_class_fit", lambda *args: real_fit(*args) + 1e-3)
        code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "45", "--d-axis", "45",
                     "--q", "2", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical inconsistency: weighted-min-norm fit misses its samples")
        # least squares interpolates from p_axis = n_axis on, so it is guarded there too
        for p in ("15", "45"):
            code = main(["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", p, "--d-axis", "45",
                         "--q", "2", "--methods", "least-squares", "--out", str(tmp_path / f"ls{p}")])
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical inconsistency: least-squares fit misses its samples")

    @pytest.mark.parametrize("target, n, p_values", [("cubic1d", 15, (7, 60)), ("cos2d", 10, (3, 41))])
    def test_every_method_fits_every_p_axis(self, tmp_path, target, n, p_values):
        # least squares and plain min-norm are one fit; below n_axis weighted min-norm is that fit too
        methods = ("least-squares", "plain-min-norm", "weighted-min-norm")
        for p in p_values:
            out = tmp_path / f"p{p}"
            code = main(["interp", "--target", target, "--n-axis", str(n), "--p-axis", str(p), "--d-axis", "100",
                         "--q", "2", "--methods", ",".join(methods), "--eval-points", "33", "--out", str(out)])
            assert code == 0
            files = {method: (tmp_path / f"p{p}.{method}.csv").read_bytes() for method in methods}
            assert files["least-squares"] == files["plain-min-norm"]
            assert (files["weighted-min-norm"] == files["least-squares"]) == (p < n)
            per = json.loads((tmp_path / f"p{p}.metrics.json").read_text())["per_method"]
            assert per["least-squares"] == per["plain-min-norm"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_samples_are_a_configuration_error(self, tmp_path, capsys, cell):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"x0,y\n0.0,1.0\n0.5,{cell}\n", encoding="utf-8")
        code = main(["interp", "--samples-file", str(samples), "--n-axis", "2", "--p-axis", "2",
                     "--d-axis", "4", "--q", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "non-finite value" in capsys.readouterr().err

    def test_samples_off_the_training_grid_are_a_configuration_error(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("x0,y\n0.0,1.0\n0.25,2.0\n", encoding="utf-8")
        code = main(["interp", "--samples-file", str(samples), "--n-axis", "2", "--p-axis", "2",
                     "--d-axis", "4", "--q", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "do not match the equispaced training grid" in capsys.readouterr().err


class TestOracleImport:
    def test_oracles_import_from_their_module(self):
        import fourier_minnorm.oracles as oracles
        import fourier_minnorm.risktheory as risktheory

        with pytest.raises(ImportError):
            exec("from fourier_minnorm import risk_trace_over", {})
        assert not hasattr(fourier_minnorm, "__getattr__")
        assert risktheory.risk_trace_over is oracles.risk_trace_over

    def test_no_command_loads_the_dense_oracles(self, tmp_path):
        # every command at a small size, the interp routes at p <= n, p > n in 1-D and 2-D among them
        interp = ["interp", "--q", "2", "--eval-points", "33"]
        argvs = [
            ["risk-curve", "-D", "64", "-n", "8", "--r-values", "0.5,1.0", "--p-values", "3,8,20,64"],
            ["mc-risk", "-D", "64", "-n", "8", "--r-values", "1.0", "--p-values", "3,8,20,64", "--trials", "5"],
            ["heatmap", "-D", "64", "-n", "8", "--r-values", "0.5,1.0"],
            ["bound-check", "--n-values", "4,8", "--r-values", "1.0", "--l-values", "2", "--tau-multipliers", "2"],
            ["concentration", "-D", "64", "-n", "8", "-p", "16", "--r", "1.0", "--q", "1.0", "--trials", "20"],
            [*interp, "--target", "cubic1d", "--n-axis", "15", "--p-axis", "15", "--d-axis", "20",
             "--methods", "least-squares,plain-min-norm,weighted-min-norm"],
            [*interp, "--target", "stage1d", "--n-axis", "15", "--p-axis", "1000", "--d-axis", "1000"],
            [*interp, "--target", "cos2d", "--n-axis", "10", "--p-axis", "41", "--d-axis", "100",
             "--weight-kind", "separable"],
        ]
        argvs = [[*argv, "--out", str(tmp_path / f"run{i}")] for i, argv in enumerate(argvs)]
        # after the runs: the loaded package modules, and any dense oracle one of them holds
        script = (
            "import json, sys\n"
            "from fourier_minnorm.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "modules = {name: vars(m) for name, m in sys.modules.items() if name.startswith('fourier_minnorm')}\n"
            "held = sorted(f'{m}.{name}' for m, names in modules.items() for name in json.loads(sys.argv[2])\n"
            "              if name in names)\n"
            "print(json.dumps([codes, sorted(modules), held]))\n"
        )
        oracles = ["fourier_matrix", "solve_weighted_minnorm", "minnorm_kkt_check", "risk_trace_over",
                   "risk_trace_under", "evaluate_interpolant", "axis_feature_matrix", "trial_generator", "sample_theta"]
        env = dict(os.environ, PYTHONPATH=str(Path(fourier_minnorm.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs), json.dumps(oracles)], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        codes, modules, held = json.loads(done.stdout.decode().splitlines()[-1])
        assert codes == [0] * len(argvs)
        assert "fourier_minnorm.oracles" not in modules and held == []


class TestConfigFile:
    def test_config_file_with_cli_override(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"D": 16, "n": 4, "r_values": [1.0], "p_values": [4, 8]}))
        out = tmp_path / "curve.csv"
        code = main(["risk-curve", "--config", str(config), "--p-values", "8", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_config_file_unknown_key(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"D": 16, "n": 4, "r_values": [1.0], "zzz": 1}))
        code = main(["risk-curve", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("risk-curve", {"D": 16, "n": 4, "r_values": [1.0], "p_rule": "paper"}, "p_rule"),
            ("mc-risk", {"D": 16, "n": 4, "r_values": [1.0], "trials": 2, "p_rule": "paper"}, "p_rule"),
            ("heatmap", {"D": 16, "n": 4, "r_values": [1.0], "p_rule": "paper"}, "p_rule"),
            ("interp", {"n_axis": 15, "p_axis": 15, "D_axis": 15, "q": 1.0, "target": "cubic1d", "dimension": 1},
             "dimension"),
            ("concentration", {"D": 64, "n": 8, "p": 16, "r": 1.0, "q": 1.0, "trials": 2, "confidence": 0.8},
             "confidence"),
        ],
    )
    def test_removed_fields_are_unknown_keys(self, tmp_path, capsys, command, config, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: unknown config field(s) for {command}: {field}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_mc_risk_confidence_sets_the_intervals(self, tmp_path):
        argv = ["mc-risk", "-D", "64", "-n", "8", "--r-values", "1.0", "--p-values", "4,16", "--trials", "40"]
        tables = {}
        for confidence in ("0.5", "0.9"):
            out = tmp_path / f"mc{confidence}.csv"
            assert main([*argv, "--confidence", confidence, "--out", str(out)]) == 0
            tables[confidence] = read_csv(out)
        (header, narrow), (_, wide) = tables["0.5"], tables["0.9"]
        assert column(header, narrow, "risk_mc_mean") == column(header, wide, "risk_mc_mean")
        for bound, wider in (("ci_low", float.__lt__), ("ci_high", float.__gt__)):
            assert all(map(wider, column(header, wide, bound), column(header, narrow, bound))), bound

    def test_missing_config_file(self, tmp_path):
        code = main(["risk-curve", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, config, field",
        [
            ("risk-curve", {"D": "64", "n": 8, "r_values": [1.0]}, "D"),
            ("risk-curve", {"D": 64, "n": 8, "r_values": 1.0}, "r_values"),
            ("mc-risk", {"D": 64, "n": 8, "r_values": [1.0], "trials": True}, "trials"),
            ("mc-risk", {"D": 64, "n": 8, "r_values": [1.0], "p_values": [8, 2.5]}, "p_values"),
        ],
    )
    def test_config_type_errors_name_the_field(self, tmp_path, capsys, command, config, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {field} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("mc-risk", {"D": 64, "n": 8, "r_values": [1.0], "trials": 2, "coefficient_model": "bogus"}),
            ("concentration", {"D": 64, "n": 8, "p": 16, "r": 1.0, "q": 1.0, "trials": 2,
                               "coefficient_model": "bogus"}),
        ],
    )
    def test_bad_coefficient_model_lists_the_choices(self, tmp_path, capsys, command, config):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        code = main([command, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: field coefficient_model must be one of 'complex-gaussian', "
                       "'real-gaussian', got 'bogus'\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "contents", [None, b"\xff\xfe{}", b"[" * 100_000], ids=["directory", "not-utf8", "deep"]
    )
    def test_unreadable_config_file_is_one_error_line(self, tmp_path, capsys, contents):
        path = tmp_path / "spec.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        code = main(["risk-curve", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1

    def test_int_config_values_widen_to_float(self):
        spec = spec_from_dict(HeatmapSpec, {"D": 16, "n": 4, "r_values": [1], "q_rule": "fixed", "q_fixed": 0})
        assert spec.r_values == (1.0,) and isinstance(spec.r_values[0], float)
        assert isinstance(spec.q_fixed, float)


class TestOutputDirectory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["risk-curve", "-D", "64", "-n", "8", "--r-values", "1.0"],
            ["risk-curve", "-D", "64", "-n", "8", "--r-values", "1.0", "--format", "json"],
            # the skipped r = 0.4 rows go to a .log sidecar
            ["bound-check", "--n-values", "8", "--r-values", "0.4"],
        ],
    )
    def test_missing_directory_is_a_configuration_error(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path / "nodir" / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and err.count("\n") == 1
        assert not (tmp_path / "nodir").exists()

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "x.csv").mkdir()
        code = main(["risk-curve", "-D", "64", "-n", "8", "--r-values", "1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1


def test_numerical_inconsistency_exit_code(monkeypatch, capsys):
    from fourier_minnorm.cli import RUNNERS
    from fourier_minnorm.errors import NumericalInconsistencyError

    def boom(spec):
        raise NumericalInconsistencyError("synthetic")

    monkeypatch.setitem(RUNNERS, "risk-curve", boom)
    code = main(["risk-curve", "-D", "8", "-n", "2", "--r-values", "1.0"])
    assert code == 3
    assert "numerical" in capsys.readouterr().err


class TestSweepEdges:
    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_is_a_configuration_error(self, tmp_path, capsys, r):
        for command in ("risk-curve", "heatmap"):
            out = tmp_path / f"{command}.csv"
            code = main([command, "-D", "16", "-n", "4", "--r-values", f"1.0,{r}", "--out", str(out)])
            assert code == 2
            assert not out.exists()
            assert "decay exponent r" in capsys.readouterr().err

    def test_large_q_risk_is_finite(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["risk-curve", "-D", "1024", "-n", "16", "--r-values", "1.0", "--q-values", "100",
                     "--p-values", "512", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        # at q -> inf only the leading term of each class keeps weight:
        # risk = 2 c_r * sum_{j >= n} t_j^2
        s = build_spectrum(1024, 1.0)
        expected = 2 * s.c_r * math.fsum(memoryview(s.t[16:] ** 2.0))
        assert column(header, rows, "risk_theory")[0] == pytest.approx(expected, abs=1e-12)

    def test_large_q_monte_carlo_is_finite(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["mc-risk", "-D", "1024", "-n", "16", "--r-values", "1.0", "--q-values", "100",
                     "--p-values", "512", "--trials", "5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        for name in ("risk_theory", "risk_mc_mean", "ci_low", "ci_high"):
            assert math.isfinite(column(header, rows, name)[0])


INTERP_1D = ["interp", "--target", "cubic1d", "--n-axis", "15", "--p-axis", "30", "--d-axis", "100"]
SMALL_RUNS = [
    ["risk-curve", "-D", "16", "-n", "4", "--r-values", "1.0"],
    ["mc-risk", "-D", "16", "-n", "4", "--r-values", "1.0", "--trials", "2"],
    ["heatmap", "-D", "16", "-n", "4", "--r-values", "1.0"],
    ["bound-check", "--n-values", "4", "--r-values", "1.0"],
    INTERP_1D + ["--q", "1"],
    ["concentration", "-D", "64", "-n", "8", "-p", "16", "--r", "1.0", "--q", "1.0", "--trials", "20"],
]


class TestRangeChecks:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (INTERP_1D + ["--q", "nan"], "q"),
            (INTERP_1D + ["--q", "inf"], "q"),
            (INTERP_1D + ["--q", "1", "--noise-sigma", "nan"], "noise_sigma"),
            (INTERP_1D + ["--q", "1", "--noise-sigma", "inf"], "noise_sigma"),
            (INTERP_1D + ["--q", "1", "--eval-points", "0"], "eval_points"),
            (INTERP_1D + ["--q", "1", "--eval-points", "-3"], "eval_points"),
            (SMALL_RUNS[5] + ["--t-multipliers", "nan"], "t_multipliers"),
            (SMALL_RUNS[5] + ["--t-multipliers", "1,-inf"], "t_multipliers"),
            *[(argv + ["--threads", threads], "threads") for argv in SMALL_RUNS for threads in ("0", "-2")],
        ],
    )
    def test_out_of_range_is_one_error_line(self, tmp_path, capsys, argv, field):
        code = main(argv + ["--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {field} must") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_threads_in_a_config_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"D": 16, "n": 4, "r_values": [1.0], "threads": 0}))
        assert main(["risk-curve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: field threads must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["risk-curve", "heatmap"])
    def test_zero_samples_with_the_paper_rule(self, tmp_path, capsys, command):
        code = main([command, "-D", "64", "-n", "0", "--r-values", "1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: sample count n=0 outside [1, D=64]\n"

    @pytest.mark.parametrize("command", ["risk-curve", "mc-risk"])
    def test_empty_q_grid(self, tmp_path, capsys, command):
        argv = [command, "-D", "16", "-n", "4", "--r-values", "1.0", "--q-values", ",", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: q grid is empty (field q_values)\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_t_grid(self, tmp_path, capsys, source):
        argv = SMALL_RUNS[5] + ["--out", str(tmp_path / "x.csv")]
        if source == "flag":
            argv += ["--t-multipliers", ","]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"t_multipliers": []}))
            argv += ["--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: t grid is empty (field t_multipliers)\n"
        assert not (tmp_path / "x.csv").exists()


def _list(values):
    return st.lists(values, min_size=1, max_size=3).map(lambda vs: ",".join(vs))


def _ints(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


_SIZE = _ints(1, 64)
_FLOAT = st.sampled_from(["0.0", "0.3", "0.6", "1.0", "1.5", "2.5"])
_BAD = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "", "x", "1,,2"])

# per command: flag -> strategy for a valid value text
_FLAGS = {
    "risk-curve": {"-D": _SIZE, "-n": _ints(1, 16), "--r-values": _list(_FLOAT), "--q-values": _list(_FLOAT),
                   "--p-values": _list(_SIZE)},
    "heatmap": {"-D": _SIZE, "-n": _ints(1, 16), "--r-values": _list(_FLOAT),
                "--q-rule": st.sampled_from(["match-r", "fixed"]), "--q-fixed": _FLOAT, "--p-values": _list(_SIZE)},
    "bound-check": {"--n-values": _list(_ints(1, 4)), "--r-values": _list(_FLOAT), "--l-values": _list(_ints(1, 4)),
                    "--tau-multipliers": _list(_ints(1, 4))},
    "interp": {"--target": st.sampled_from(["stage1d", "cubic1d", "cos2d"]), "--n-axis": _ints(1, 16),
               "--p-axis": _ints(1, 32), "--d-axis": _SIZE, "--q": _FLOAT, "--noise-sigma": _FLOAT,
               "--eval-points": _ints(1, 32),
               "--methods": st.sampled_from(["least-squares", "weighted-min-norm,plain-min-norm"]),
               "--weight-kind": st.sampled_from(["euclidean", "separable"]), "--seed": _SIZE},
    "concentration": {"-D": _SIZE, "-n": _ints(1, 16), "-p": _SIZE, "--r": st.sampled_from(["1.0", "2.5"]),
                      "--q": st.sampled_from(["0.6", "1.0"]), "--t-multipliers": _list(_FLOAT),
                      "--trials": _ints(1, 16), "--seed": _SIZE},
}
_FLAGS["mc-risk"] = {**_FLAGS["risk-curve"], "--trials": _ints(1, 4), "--seed": _SIZE,
                     "--confidence": st.sampled_from(["0.5", "0.8"])}
# flags that are mostly left out
_RARE = {command: {"--threads": _ints(1, 2), "--format": st.sampled_from(["csv", "json"]),
                   "--config": st.just("missing.json")} for command in _FLAGS}
_RARE["interp"]["--samples-file"] = st.just("missing.csv")


@st.composite
def cli_argvs(draw):
    """A command whose flags are each left out, given a valid value or given a bad one."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flags, kinds in ((_FLAGS, ["valid"] * 18 + ["bad", "omit"]), (_RARE, ["omit"] * 18 + ["bad", "valid"])):
        for flag, values in flags[command].items():
            kind = draw(st.sampled_from(kinds))
            if kind != "omit":
                argv += [flag, draw(_BAD if kind == "bad" else values)]
    return argv


# Any JSON value, small: sizes stay in [-2, 64], so a valid config runs in milliseconds.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 64) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
_CONFIG_FLOAT = _FLOAT.map(float)
# per field type, a strategy for a value of that type; per field name, overrides
_CONFIG_TYPES = {
    int: st.integers(1, 16),
    float: _CONFIG_FLOAT,
    str: st.text(max_size=6),
    tuple[int, ...]: st.lists(st.integers(1, 64), min_size=1, max_size=3),
    tuple[float, ...]: st.lists(_CONFIG_FLOAT, min_size=1, max_size=3),
    tuple[str, ...]: st.lists(st.sampled_from([m.value for m in interpolation.Method]), min_size=1, max_size=2),
}
_CONFIG_FIELDS = {
    "D": st.integers(1, 64), "D_axis": st.integers(1, 64), "threads": st.integers(1, 2),
    "seed": st.integers(0, 2**70), "confidence": st.sampled_from([0.5, 0.8]),
    "q_rule": st.sampled_from(["match-r", "fixed"]),
    "format": st.sampled_from(["csv", "json"]), "target": st.sampled_from(["stage1d", "cubic1d", "cos2d"]),
    "samples_file": st.just("missing.csv"),
    "coefficient_model": st.sampled_from(["complex-gaussian", "real-gaussian"]),
    "weight_kind": st.sampled_from(["euclidean", "separable"]),
}


@st.composite
def config_argvs(draw):
    """A command with a JSON config file: each field left out, given a valid value or any JSON value."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    cls = SPEC_TYPES[command]
    kinds = typing.get_type_hints(cls)
    config = {}
    for field in dataclasses.fields(cls):
        mode = draw(st.sampled_from(["valid"] * 8 + ["any", "omit"]))
        if field.name == "out" or mode == "omit":
            continue
        kind = kinds[field.name]  # X or X | None
        options = typing.get_args(kind) if isinstance(kind, types.UnionType) else (kind,)
        valid = _CONFIG_FIELDS.get(field.name, _CONFIG_TYPES[options[0]])
        config[field.name] = draw(valid if mode == "valid" else _JSON)
    edit = draw(st.sampled_from(["none"] * 16 + ["unknown key", "command", "not an object"]))
    if edit == "unknown key":
        config[draw(st.text(max_size=4))] = draw(_JSON)
    elif edit == "command":
        config["command"] = draw(st.sampled_from(sorted(_FLAGS)) | st.text(max_size=4))
    argv = [command]
    for flag, values in _FLAGS[command].items():  # a flag wins over its field
        if draw(st.integers(0, 7)) == 0:
            argv += [flag, draw(values)]
    if command == "interp" and "eval_points" not in config:
        argv += ["--eval-points", "8"]  # the default, 512 per axis, writes 2^18-row files in 2-D
    return argv, json.dumps(draw(_JSON) if edit == "not an object" else config)


_GOOD_CELL = st.floats(-4, 4).map(repr)
_BAD_CELL = st.sampled_from(["1e400", "nan", "-inf", "", "x", "0x1p3"]) | st.text(max_size=3)


@st.composite
def samples_file_argvs(draw):
    """``interp --samples-file`` with a file close to valid, or any text."""
    dimension = draw(st.integers(1, 2))
    n_axis = draw(st.integers(1, 4))
    lines = [",".join([*(f"x{i}" for i in range(dimension)), "y"])]
    axes = np.meshgrid(*[sample_axis(n_axis)] * dimension, indexing="ij")
    for point in np.stack(axes, axis=-1).reshape(-1, dimension):  # the training grid, row-major
        kind = draw(st.sampled_from(["good"] * 30 + ["bad", "width"]))
        cells = [*map(repr, point.tolist()), draw(_GOOD_CELL)]
        if kind == "bad":
            cells[draw(st.integers(0, dimension))] = draw(_BAD_CELL)
        elif kind == "width":
            cells = cells[: draw(st.integers(0, dimension))] if draw(st.booleans()) else [*cells, "0"]
        lines.append(",".join(cells))
    edit = draw(st.sampled_from(["none"] * 6 + ["header", "drop", "add", "shuffle", "text"]))
    if edit == "header":
        lines[0] = draw(st.text(max_size=8))
    elif edit == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif edit == "add":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=8)))
    elif edit == "shuffle":
        lines = draw(st.permutations(lines))
    text = draw(st.text(max_size=40)) if edit == "text" else "\n".join(lines)
    D_axis = draw(st.integers(1, 16))
    argv = ["interp", "--n-axis", str(n_axis), "--p-axis", draw(_ints(1, D_axis + 1)),
            "--d-axis", str(D_axis), "--q", draw(_FLOAT), "--eval-points", draw(_ints(1, 8))]
    if draw(st.booleans()):
        argv += ["--methods", draw(_FLAGS["interp"]["--methods"])]
    return argv, text


def _exit_code(argv, out):
    """main's exit code and stderr; argparse's own exits count too."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--out", str(out / "run")])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, stderr.getvalue()


class TestExitCodes:
    @given(argv=cli_argvs())
    @settings(max_examples=150, deadline=None)
    def test_random_argv_exits_cleanly(self, argv, tmp_path_factory):
        out = tmp_path_factory.getbasetemp() / "fuzz"
        out.mkdir(exist_ok=True)
        code, err = _exit_code(argv, out)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err

    @given(case=config_argvs())
    @settings(max_examples=150, deadline=None)
    def test_random_config_file_exits_cleanly(self, case, tmp_path_factory):
        argv, text = case
        out = tmp_path_factory.getbasetemp() / "fuzz-config"
        out.mkdir(exist_ok=True)
        (out / "spec.json").write_text(text, encoding="utf-8")
        code, err = _exit_code(argv + ["--config", str(out / "spec.json")], out)
        assert code in (0, 2, 3), (argv, text, err)
        assert "Traceback" not in err

    @given(case=samples_file_argvs())
    @settings(max_examples=150, deadline=None)
    def test_random_samples_file_exits_cleanly(self, case, tmp_path_factory):
        argv, text = case
        out = tmp_path_factory.getbasetemp() / "fuzz-samples"
        out.mkdir(exist_ok=True)
        (out / "samples.csv").write_text(text, encoding="utf-8")
        code, err = _exit_code(argv + ["--samples-file", str(out / "samples.csv")], out)
        assert code in (0, 2, 3), (argv, text, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc-risk", "-D", "8", "-n", "2", "--r-values", "1", "--p-values", "1", "--trials", str(2**56)],
            ["risk-curve", "-D", str(2**56), "-n", "1", "--r-values", "1", "--p-values", "1"],
            # from 2^60 elements on, numpy's own error was a ValueError and exit 1
            ["mc-risk", "-D", "8", "-n", "2", "--r-values", "1", "--p-values", "1", "--trials", str(2**60)],
            ["concentration", "-D", "8", "-n", "2", "-p", "4", "--r", "1", "--q", "1", "--trials", str(2**60)],
            ["heatmap", "-D", str(2**60), "-n", "1", "--r-values", "1", "--p-values", "1"],
            ["bound-check", "--n-values", str(2**58), "--r-values", "1", "--l-values", "2", "--tau-multipliers", "2"],
            ["interp", "--target", "cos2d", "--n-axis", "4", "--p-axis", "4", "--d-axis", "8", "--q", "1",
             "--eval-points", str(2**40)],
            ["interp", "--target", "cubic1d", "--n-axis", str(2**60), "--p-axis", "4", "--d-axis", "8", "--q", "1",
             "--methods", "least-squares"],
        ],
        ids=["trials", "D", "trials-2^60", "concentration", "heatmap", "bound-check", "eval-points", "n-axis"],
    )
    def test_unallocatable_size_is_one_error_line(self, tmp_path, capsys, argv):
        # 2^56 eight-byte elements (512 PiB) exceed any 64-bit address space:
        # the spec is refused before anything is allocated
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("axes, code", [(32, 0), (33, 2), (70, 2)])
    def test_samples_file_axes_past_the_grid_limit_are_one_error_line(self, tmp_path, capsys, axes, code):
        # np.meshgrid broadcasts at most 32 axes; 33 to 64 once ended in its RuntimeError, more in a
        # reshape's ValueError: a traceback and exit 1 either way, as every size here is 1
        samples = tmp_path / "samples.csv"
        header, row = [f"x{i}" for i in range(axes)] + ["y"], ["0.0"] * axes + ["1.0"]
        samples.write_text(",".join(header) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        argv = ["interp", "--samples-file", str(samples), "--n-axis", "1", "--p-axis", "1", "--d-axis", "1",
                "--q", "2", "--eval-points", "1", "--out", str(tmp_path / "x")]
        assert main(argv) == code
        if code:
            assert capsys.readouterr().err == f"error: samples file has {axes} axes, more than the 32 a grid can have\n"
            assert list(tmp_path.iterdir()) == [samples]

    def test_paper_rule_too_large_to_list_fails_at_once(self, tmp_path):
        # D is below the element limit, but the paper rule's 2^55 truncations
        # cannot be listed.  The run gets a 1 GiB address-space limit, so a list
        # built entry by entry stops there instead of filling the machine.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        argv = ["risk-curve", "-D", str(2**55), "-n", "1", "--r-values", "1", "--out", str(tmp_path / "x.csv")]
        env = dict(os.environ, PYTHONPATH=str(Path(fourier_minnorm.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-m", "fourier_minnorm", *argv], env=env, preexec_fn=limit,
                              capture_output=True, timeout=120)
        err = done.stderr.decode()
        assert done.returncode == 2 and err == "error: out of memory: the sizes of the spec do not fit\n", err
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 512 * 1024  # KiB: nothing was filled
        assert not list(tmp_path.iterdir())

    def test_large_ambient_axis_allocates_nothing_and_runs(self, tmp_path):
        # D_axis^d is 2^60, but only the p_axis^d fit is ever allocated
        argv = ["interp", "--target", "cos2d", "--n-axis", "4", "--p-axis", "4", "--d-axis", str(2**30), "--q", "1",
                "--methods", "least-squares", "--eval-points", "4", "--out", str(tmp_path / "x")]
        assert main(argv) == 0


class TestParserReuse:
    ARGV = ["mc-risk", "-D", "64", "-n", "8", "--r-values", "1.0", "--q-values", "0.0,1.0", "--trials", "20",
            "--seed", "3"]

    def _fresh(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(fourier_minnorm.__file__).parents[1]), COLUMNS="100")
        return subprocess.run([sys.executable, "-m", "fourier_minnorm", *argv], env=env, capture_output=True,
                              timeout=120)

    def test_run_after_rejected_argvs_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            main(["mc-risk", "--trials", "many"])  # argparse rejects it
        assert exc.value.code == 2
        assert main(["risk-curve", "-D", "8", "-n", "16", "--r-values", "1", "--out", str(tmp_path / "bad.csv")]) == 2
        assert main([*self.ARGV, "--out", str(tmp_path / "here.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["mc-risk", "--help"])
        assert exc.value.code == 0
        help_here = capsys.readouterr().out.split("\n", 1)[1]  # after the "wrote ..." line

        fresh = self._fresh([*self.ARGV, "--out", str(tmp_path / "fresh.csv")])
        assert fresh.returncode == 0, fresh.stderr
        assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        fresh_help = self._fresh(["mc-risk", "--help"])
        assert fresh_help.returncode == 0
        assert help_here == fresh_help.stdout.decode()
