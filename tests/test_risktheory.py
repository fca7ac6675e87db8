import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    NumericalInconsistencyError,
    RegimeError,
    SingularConstantError,
    StructureError,
    asymptotic_bound,
    build_spectrum,
    classify_grid,
    concentration_bound,
    lowest_risks,
    sweep_risks,
)
from fourier_minnorm.oracles import _finalize_risk, risk_trace_over, risk_trace_under
from fourier_minnorm.risktheory import _finalize_risks

Q_GRID = [0.0, 0.5, 1.0, 2.0]
R_GRID = [0.0, 0.3, 0.5, 1.0, 1.5]


def closed(spectrum, grid, q):
    """The closed-form risk at one grid: a one-row, one-point sweep_risks call."""
    return float(sweep_risks([spectrum], grid.n, [q], [grid.p])[0, 0])


def tail_sum(spectrum, u, start):
    """Exactly rounded sum of t_j^u over j >= start."""
    return math.fsum(memoryview(spectrum.t[start:] ** u))


def plain_risk(spectrum, grid):
    """The q = 0 closed form at p = l*n, any D: every class holds l fitted features."""
    n, p = grid.n, grid.p
    tail = tail_sum(spectrum, 2.0 * spectrum.decay_r, p)
    return 1.0 - n / p + (2.0 * n / p) * spectrum.c_r * tail


@st.composite
def any_grids(draw, max_D=48):
    """(D, n) with n | D or not, n = 1 included, and r, q in [0, 2]."""
    D = draw(st.integers(min_value=1, max_value=max_D))
    n = draw(st.integers(min_value=1, max_value=D))
    r = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    q = draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    return D, n, r, q


def aligned_grids(D_values=(8, 16, 32), taus=(2, 4)):
    for D in D_values:
        for tau in taus:
            if D % tau:
                continue
            n = D // tau
            for l in sorted({1, 2, tau}):
                if l * n <= D:
                    yield D, n, l * n


class TestOverClosedVsTrace:
    def test_grid_agreement(self):
        worst = 0.0
        for D, n, p in aligned_grids():
            grid = classify_grid(D, n, p)
            for r in R_GRID:
                s = build_spectrum(D, r)
                for q in Q_GRID:
                    trace = risk_trace_over(s, grid, q)
                    worst = max(worst, abs(closed(s, grid, q) - trace.risk))
        assert worst <= 1e-9

    def test_trace_handles_general_grid(self):
        s = build_spectrum(6, 1.0)
        value = risk_trace_over(s, classify_grid(6, 2, 3), 1.0)
        assert math.isfinite(value.risk)

    @given(grid=any_grids(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_closed_matches_trace_on_any_grid(self, grid, data):
        D, n, r, q = grid
        p = data.draw(st.integers(min_value=n, max_value=D))
        s = build_spectrum(D, r)
        grid = classify_grid(D, n, p)
        assert abs(closed(s, grid, q) - risk_trace_over(s, grid, q).risk) <= 1e-10

    def test_single_sample_grids(self):
        # n = 1 (tau = D): every p is aligned
        s = build_spectrum(8, 1.0)
        for p in (1, 3, 8):
            grid = classify_grid(8, 1, p)
            trace = risk_trace_over(s, grid, 1.0).risk
            assert closed(s, grid, 1.0) == pytest.approx(trace, abs=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=8),
        l=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=4),
        q=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        r=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_agreement_on_random_aligned_grids(self, n, l, extra, q, r):
        tau = l + extra
        D, p = tau * n, l * n
        s = build_spectrum(D, r)
        grid = classify_grid(D, n, p)
        trace = risk_trace_over(s, grid, q).risk
        assert abs(closed(s, grid, q) - trace) <= 1e-9


class TestSpecialCases:
    def test_full_truncation_plain_risk(self):
        for D, n in [(8, 2), (16, 4), (64, 8)]:
            s = build_spectrum(D, 1.0)
            grid = classify_grid(D, n, D)
            assert abs(closed(s, grid, 0.0) - (1 - n / D)) <= 1e-14

    def test_square_full_model_zero_risk(self):
        for q in Q_GRID:
            s = build_spectrum(16, 1.0)
            grid = classify_grid(16, 16, 16)
            assert abs(closed(s, grid, q)) <= 1e-12

    def test_plain_equals_closed_at_q0(self):
        # n = 3 and n = 5 divide p but not D = 16 or D = 32
        grids = [*aligned_grids(), (16, 3, 6), (16, 3, 15), (32, 5, 10), (32, 5, 30)]
        for D, n, p in grids:
            for r in R_GRID:
                s = build_spectrum(D, r)
                grid = classify_grid(D, n, p)
                assert abs(plain_risk(s, grid) - closed(s, grid, 0.0)) <= 1e-12

    def test_p_equals_n_closed_form_value(self):
        # algebraic simplification: risk at l = 1 is twice the covariance tail
        s = build_spectrum(8, 1.0)
        grid = classify_grid(8, 2, 2)
        expected = 2 * s.c_r * tail_sum(s, 2.0, 2)
        for q in Q_GRID:
            assert closed(s, grid, q) == pytest.approx(expected, abs=1e-12)


class TestUnder:
    def test_grid_agreement(self):
        worst = 0.0
        for D in (8, 16, 32):
            for tau in (2, 4):
                n = D // tau
                for p in range(1, n + 1):
                    grid = classify_grid(D, n, p)
                    for r in R_GRID:
                        s = build_spectrum(D, r)
                        worst = max(worst, abs(closed(s, grid, 0.0) - risk_trace_under(s, grid)))
        assert worst <= 1e-9

    def test_flat_spectrum_formula(self):
        # r = 0 collapses to 1 + p(1/n - 2/D)
        for D, n, p in [(8, 4, 2), (16, 4, 3), (64, 8, 8)]:
            s = build_spectrum(D, 0.0)
            grid = classify_grid(D, n, p)
            assert closed(s, grid, 0.0) == pytest.approx(1 + p * (1 / n - 2 / D), abs=1e-13)

    def test_boundary_matches_over(self):
        for D, n in [(8, 2), (16, 4), (32, 8)]:
            for r in R_GRID:
                s = build_spectrum(D, r)
                grid = classify_grid(D, n, n)
                under = risk_trace_under(s, grid)
                for q in Q_GRID:
                    assert abs(under - closed(s, grid, q)) <= 1e-12

    def test_trace_handles_unaligned_d(self):
        s = build_spectrum(7, 1.0)
        assert math.isfinite(risk_trace_under(s, classify_grid(7, 3, 2)))

    @given(grid=any_grids(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_closed_matches_trace_on_any_grid(self, grid, data):
        D, n, r, q = grid
        p = data.draw(st.integers(min_value=1, max_value=n))
        s = build_spectrum(D, r)
        g = classify_grid(D, n, p)
        assert abs(closed(s, g, 0.0) - risk_trace_under(s, g)) <= 1e-12
        assert closed(s, g, 0.0) == closed(s, g, q)  # the least-squares fit, whatever q

    def test_wrong_regime(self):
        s = build_spectrum(8, 1.0)
        with pytest.raises(RegimeError):
            risk_trace_under(s, classify_grid(8, 2, 4))
        with pytest.raises(RegimeError):
            risk_trace_over(s, classify_grid(8, 4, 2), 1.0)

    def test_empty_complement_zero(self):
        s = build_spectrum(8, 1.0)
        assert risk_trace_under(s, classify_grid(8, 8, 8)) == 0.0


class TestProofIdentity:
    def test_q1_equals_p_at_matched_exponent(self):
        for D, n, p in aligned_grids():
            for r in (0.3, 0.5, 1.0, 1.5):
                s = build_spectrum(D, r)
                b = risk_trace_over(s, classify_grid(D, n, p), r)
                assert abs(b.Q_q1 - b.P_q) <= 1e-10


class TestAsymptoticBound:
    def test_dr_closed_form(self):
        s = build_spectrum(64, 1.0)
        grid = classify_grid(64, 8, 16)  # l = 2
        assert asymptotic_bound(s, grid).d_r == pytest.approx(1 / 2 - 1 / 3, rel=1e-14)

    def test_bound_dominates_risk(self):
        for r in (0.6, 0.75, 1.0, 1.5):
            for n in (8, 16):
                for l in (2, 4):
                    for tau in (2 * l, 4 * l):
                        D = tau * n
                        s = build_spectrum(D, r)
                        grid = classify_grid(D, n, l * n)
                        risk = closed(s, grid, r)
                        assert asymptotic_bound(s, grid).bound >= risk

    def test_large_d_envelope(self):
        # at D = 4096, n = 64 the exact constants sit within 5% of the
        # simplified large-D form
        s = build_spectrum(4096, 1.0)
        grid = classify_grid(4096, 64, 128)
        report = asymptotic_bound(s, grid)
        assert report.bound <= report.large_D_bound * 1.05

    def test_needs_aligned_grid(self):
        s = build_spectrum(60, 1.0)
        for n, p in ((8, 16), (6, 14)):  # 8 does not divide D; 6 divides D, not p
            with pytest.raises(StructureError):
                asymptotic_bound(s, classify_grid(60, n, p))

    def test_domain_validation(self):
        s = build_spectrum(64, 0.4)
        with pytest.raises(RegimeError):
            asymptotic_bound(s, classify_grid(64, 8, 16))
        s = build_spectrum(64, 1.0)
        with pytest.raises(RegimeError):
            asymptotic_bound(s, classify_grid(64, 8, 8))  # l = 1


class TestConcentrationBound:
    def test_matched_unit_exponents(self):
        T_q, _ = concentration_bound(1.0, 1.0, 1.0)
        assert T_q == pytest.approx(4 * math.sqrt(10 / 3), rel=1e-14)

    def test_tail_at_zero_is_two(self):
        _, tail = concentration_bound(1.0, 1.0, 0.0)
        assert tail == 2.0

    def test_tail_at_tq(self):
        T_q, tail = concentration_bound(1.0, 1.0, 4 * math.sqrt(10 / 3))
        assert tail == pytest.approx(2 * math.exp(-1), rel=1e-12)

    def test_rejects_half(self):
        with pytest.raises(SingularConstantError):
            concentration_bound(1.0, 0.5, 1.0)

    def test_rejects_r_below_q(self):
        with pytest.raises(RegimeError):
            concentration_bound(0.6, 0.8, 1.0)

    def test_rejects_negative_t(self):
        with pytest.raises(ConfigurationError):
            concentration_bound(1.0, 1.0, -0.5)

    @pytest.mark.parametrize(
        "r, q, t",
        [(1.0, math.nan, 1.0), (math.nan, 1.0, 1.0), (1.0, 1.0, math.nan),
         (math.inf, 1.0, 1.0), (math.inf, math.inf, 1.0), (1.0, 1.0, math.inf)],
    )
    def test_rejects_non_finite_parameters(self, r, q, t):
        with pytest.raises(ConfigurationError, match="must be finite"):
            concentration_bound(r, q, t)

    @pytest.mark.parametrize("r, q", [(3e307, 1.0), (1.7e308, 1e155), (1e308, 1e308)])
    def test_rejects_a_constant_past_the_double_range(self, r, q):
        with pytest.raises(ConfigurationError) as exc:
            concentration_bound(r, q, 0.0)
        assert str(exc.value) == f"T_q overflows a double at decay exponent r={r!r}, weighting exponent q={q!r}"

    @pytest.mark.parametrize("q", [0.5 + 1e-9, 0.75, 1.0, 3.7, 1e102, 1e103, 1e155, 1e300])
    def test_matches_mpmath_for_every_q(self, q):
        # r = q: 4 (2r - 1) stays finite while q^3 and T_q^2 overflow from q ~ 2e102 and 1e154 on
        with mpmath.workdps(50):
            x = mpmath.mpf(q)
            exact = 4 * (2 * x - 1) * mpmath.sqrt(x * (24 * x**2 - 17 * x + 3) / ((2 * x - 1) ** 2 * (4 * x - 1)))
            for multiple in (0.0, 0.3, 1.0, 2.0):
                T_q, tail = concentration_bound(q, q, multiple * float(exact))
                u = mpmath.mpf(multiple * float(exact)) / exact
                assert T_q == pytest.approx(float(exact), rel=1e-13)
                assert tail == pytest.approx(float(2 * mpmath.exp(-min(u * u, u))), rel=1e-13)


class TestLowestRisks:
    def test_over_beats_under_at_matched_exponents(self):
        s = build_spectrum(64, 1.0)
        result = lowest_risks(s, 4, 1.0)
        assert result.over_star < result.under_star
        assert result.argmin_p_over > 4

    def test_under_monotone_for_smooth(self):
        for r in (1.0, 1.5):
            s = build_spectrum(64, r)
            values = sweep_risks([s], 8, [0.0], range(1, 9))[0]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_scan_includes_full_truncation(self):
        s = build_spectrum(32, 1.0)
        result = lowest_risks(s, 4, 1.0)
        candidates = sweep_risks([s], 4, [1.0], [l * 4 for l in range(1, 9)])[0]
        assert result.over_star == pytest.approx(min(candidates), rel=0)

    @given(grid=any_grids(max_D=64))
    @settings(max_examples=60, deadline=None)
    def test_any_grid_scans_multiples_of_n(self, grid):
        D, n, r, q = grid
        s = build_spectrum(D, r)
        p_values = [l * n for l in range(1, D // n + 1)]
        over = [closed(s, classify_grid(D, n, p), q) for p in p_values]
        result = lowest_risks(s, n, q)
        assert result.under_star == over[0]
        assert result.over_star == np.min(over)
        assert result.argmin_p_over == p_values[int(np.argmin(over))]

    @pytest.mark.parametrize("n", [0, -4, 16])
    def test_rejects_n_outside_one_to_d(self, n):
        with pytest.raises(ConfigurationError, match="sample count"):
            lowest_risks(build_spectrum(8, 1.0), n, 1.0)


class TestFinalizeRisk:
    def test_positive_passthrough(self):
        assert _finalize_risk(0.25) == (0.25, False)

    def test_tiny_negative_clamped_with_flag(self):
        value, clamped = _finalize_risk(-5e-11)
        assert value == 0.0 and clamped

    def test_large_negative_raises(self):
        with pytest.raises(NumericalInconsistencyError):
            _finalize_risk(-1e-6)
        with pytest.raises(NumericalInconsistencyError):  # the closed form has no rounding to forgive
            _finalize_risks(np.array([0.25, -5e-11]))

    def test_array_pass_matches_the_per_value_rule(self):
        # on what the closed form can produce, the array pass is the oracles' rule, and clamps nothing
        values = np.array([0.25, -0.0, 0.0, 1e300, 3.5e-17, 5e-324])
        risks = _finalize_risks(values)
        expected = [_finalize_risk(value) for value in values.tolist()]
        assert [(math.copysign(1.0, r), r) for r in risks.tolist()] == [
            (math.copysign(1.0, r), r) for r, _ in expected
        ]
        assert not any(clamped for _, clamped in expected)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, -1e-6, math.nan], "risk evaluated to -1e-06, below 0"),
            ([0.5, math.nan, -1e-6], "risk evaluated to nan, which is not a finite number"),
            ([math.inf, 0.5], "risk evaluated to inf, which is not a finite number"),
            ([0.1, -math.inf], "risk evaluated to -inf, which is not a finite number"),
        ],
    )
    def test_array_pass_reports_the_first_bad_value(self, values, message):
        with pytest.raises(NumericalInconsistencyError) as array_error:
            _finalize_risks(np.array(values))
        assert str(array_error.value) == message


class TestTheoryRisk:
    def test_regime_dispatch(self):
        s = build_spectrum(16, 1.0)
        # one pass for every regime: each point as the matching oracle gives it
        under = classify_grid(16, 8, 4)
        assert closed(s, under, 1.0) == pytest.approx(risk_trace_under(s, under), abs=1e-12)
        over = classify_grid(16, 4, 8)
        assert closed(s, over, 1.0) == pytest.approx(risk_trace_over(s, over, 1.0).risk, abs=1e-12)
        general = classify_grid(16, 3, 5)
        assert closed(s, general, 1.0) == pytest.approx(risk_trace_over(s, general, 1.0).risk, abs=1e-12)

    def test_under_value_independent_of_q(self):
        s = build_spectrum(16, 1.0)
        grid = classify_grid(16, 8, 4)
        assert closed(s, grid, 0.0) == closed(s, grid, 2.0)
