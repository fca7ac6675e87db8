"""One-pass risk sweeps: sweep_risks against the dense oracles and mpmath, and stacked against one group at a time."""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    NumericalInconsistencyError,
    build_spectrum,
    classify_grid,
    lowest_risks,
    sweep_risks,
)
from fourier_minnorm import risktheory
from fourier_minnorm.oracles import _finalize_risk, risk_trace_over, risk_trace_under
from fourier_minnorm.model import COMPENSATED_SUM_MIN_BLOCKS
from fourier_minnorm.risktheory import _class_risks, _finalize_risks

# D = 2^16: n = 256 spans exactly the block count from which running sums are compensated
COMPENSATED_D = 256 * COMPENSATED_SUM_MIN_BLOCKS


def one_row(spectrum, n, q, p_values):
    """One spectrum's sweep: one row of sweep_risks."""
    return sweep_risks([spectrum], n, [q], p_values)[0]


def one_point(spectrum, n, q, p):
    """One point: a one-row, one-point sweep_risks call."""
    return float(sweep_risks([spectrum], n, [q], [p])[0, 0])


def paper_grid(D, n):
    return list(range(1, n)) + [l * n for l in range(1, D // n + 1)]


def oracle(spectrum, n, p, q):
    grid = classify_grid(spectrum.D, n, p)
    if p <= n:
        return risk_trace_under(spectrum, grid)
    return risk_trace_over(spectrum, grid, q).risk


def mp_risks(D, n, r, q, p_values, dps=40):
    """Closed-form risks summed in mpmath straight from t_j = 1/(j+1), unscaled."""
    out = []
    with mpmath.workdps(dps):
        r2, q2 = mpmath.mpf(2 * r), mpmath.mpf(2 * q)
        t = [mpmath.mpf(1) / (k + 1) for k in range(D)]
        t2r = [x**r2 for x in t]
        t2q = [x**q2 for x in t]
        c_r = 1 / mpmath.fsum(t2r)
        for p in p_values:
            if p <= n:
                alias = mpmath.fsum(mpmath.fsum(t2r[j + n :: n]) for j in range(p))
                out.append(float(c_r * (mpmath.fsum(t2r[p:]) + alias)))
                continue
            P = Q1 = Q2 = mpmath.mpf(0)
            for m in range(n):
                w = t2q[m:p:n]
                a_2q = mpmath.fsum(w)
                a_4q = mpmath.fsum(x**2 for x in w)
                P += mpmath.fsum(x * y for x, y in zip(w, t2r[m:p:n])) / a_2q
                Q1 += a_4q * mpmath.fsum(t2r[m:p:n]) / a_2q**2
                first = m + n * -(-(p - m) // n)  # the first member of class m at or past p
                Q2 += a_4q * mpmath.fsum(t2r[first::n]) / a_2q**2
            out.append(float(1 - 2 * c_r * P + c_r * Q1 + c_r * Q2))
    return out


class TestAgainstOracles:
    @given(
        n=st.integers(min_value=1, max_value=8),
        tau=st.integers(min_value=1, max_value=6),
        r=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        q=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_paper_grid_matches_trace_forms(self, n, tau, r, q):
        D = tau * n
        s = build_spectrum(D, r)
        p_values = paper_grid(D, n)
        swept = one_row(s, n, q, p_values)
        expected = [oracle(s, n, p, q) for p in p_values]
        assert np.max(np.abs(swept - expected)) <= 1e-9

    def test_misaligned_points_match_the_trace_forms(self):
        s = build_spectrum(24, 0.8)
        # n | D but p = 6 is no multiple of n; n = 5 does not divide D at all
        assert one_row(s, 4, 1.0, [6])[0] == pytest.approx(oracle(s, 4, 6, 1.0), abs=1e-12)
        swept = one_row(s, 5, 1.0, [3, 5, 10, 24])
        assert np.max(np.abs(swept - [oracle(s, 5, p, 1.0) for p in (3, 5, 10, 24)])) <= 1e-12

    @given(
        D=st.integers(min_value=1, max_value=60),
        data=st.data(),
        r=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        q=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_grids_match_trace_forms(self, D, data, r, q):
        # any (D, n), n | D or not, n = 1 included; p = n and p = D always swept
        n = data.draw(st.integers(min_value=1, max_value=D))
        extra = data.draw(st.lists(st.integers(min_value=1, max_value=D), max_size=6))
        p_values = [n, D, *extra]
        s = build_spectrum(D, r)
        swept = one_row(s, n, q, p_values)
        expected = [oracle(s, n, p, q) for p in p_values]
        assert np.max(np.abs(swept - expected)) <= 1e-12


class TestSweepIsTheSinglePointValue:
    @pytest.mark.parametrize("D,n,r,q", [(64, 8, 1.0, 1.0), (60, 6, 0.3, 2.5), (32, 1, 1.5, 0.0)])
    def test_bit_identical(self, D, n, r, q):
        s = build_spectrum(D, r)
        p_values = paper_grid(D, n)
        swept = one_row(s, n, q, p_values)
        for p, value in zip(p_values, swept):
            assert value == one_point(s, n, q, p)

    def test_lowest_risks_is_the_sweep_minimum(self):
        s = build_spectrum(256, 1.0)
        over = [one_point(s, 16, 1.0, l * 16) for l in range(1, 17)]
        result = lowest_risks(s, 16, 1.0)
        assert result.over_star == min(over)
        assert result.argmin_p_over == 16 * (1 + over.index(min(over)))


class TestAccuracyEdges:
    def test_compensated_sweep_matches_mpmath(self):
        D, n, r, q = COMPENSATED_D, 256, 1.0, 1.0
        p_values = [100, 256, 512, 8192, D]
        swept = one_row(build_spectrum(D, r), n, q, p_values)
        assert np.max(np.abs(swept - mp_risks(D, n, r, q, p_values))) <= 1e-12

    def test_compensated_misaligned_sweep_matches_mpmath(self):
        # n = 250 divides neither D = 2^16 nor any p > n below
        D, n, r, q = COMPENSATED_D, 250, 1.0, 1.0
        p_values = [100, 250, 1001, 12345, D]
        swept = one_row(build_spectrum(D, r), n, q, p_values)
        assert np.max(np.abs(swept - mp_risks(D, n, r, q, p_values))) <= 1e-12

    @pytest.mark.parametrize("D, r", [(65535, 1.0), (2048, 3.0)])
    def test_many_blocks_below_2_16_match_mpmath(self, D, r):
        # n = 1: D blocks of one feature; plain running sums were off by 1.7e-14 and 1.5e-14, relative
        p_values = [1, 2, D // 2, D - 1, D]
        swept = one_row(build_spectrum(D, r), 1, r, p_values)
        exact = np.array(mp_risks(D, 1, r, r, p_values, dps=50))
        assert np.max(np.abs(swept - exact) / exact) <= 1e-15

    @pytest.mark.parametrize("q", [80.0, 200.0, 400.0])
    def test_large_q_is_finite_and_matches_mpmath(self, q):
        s = build_spectrum(1024, 1.0)
        value = one_row(s, 16, q, [512])[0]
        assert math.isfinite(value)
        assert abs(value - mp_risks(1024, 16, 1.0, q, [512])[0]) <= 1e-12
        assert one_point(s, 16, q, 512) == value

    def test_large_q_on_misaligned_grid_matches_mpmath(self):
        # n = 60 divides neither D = 1000 nor p = 250
        value = one_row(build_spectrum(1000, 1.0), 60, 100.0, [250])[0]
        assert math.isfinite(value)
        assert abs(value - mp_risks(1000, 60, 1.0, 100.0, [250])[0]) <= 1e-12


class TestRelativeAccuracy:
    """Tiny risks to relative accuracy: the class risks are sums of nonnegative terms, nothing cancels."""

    @pytest.mark.parametrize("D, n", [(256, 16), (250, 12)])
    @pytest.mark.parametrize("r, q", [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0), (8.0, 8.0), (2.0, 0.0), (0.5, 4.0)])
    def test_every_third_p_matches_mpmath_relatively(self, D, n, r, q):
        # at r = q = 8 the risks fall to about 1e-20, far below what a form subtracting from 1 resolves
        p_values = list(range(1, D + 1, 3))
        swept = one_row(build_spectrum(D, r), n, q, p_values)
        exact = np.array(mp_risks(D, n, r, q, p_values, dps=80))
        assert np.max(np.abs(swept - exact) / exact) <= 1e-14

    @given(
        D=st.integers(min_value=1, max_value=300),
        data=st.data(),
        r=st.floats(min_value=0.0, max_value=50.0),
        q=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_raw_risk_is_finite_and_nonnegative(self, D, data, r, q):
        # so the runtime has nothing to clamp: any negative or non-finite value raises
        divisors = [d for d in range(1, D + 1) if D % d == 0]
        n = data.draw(st.one_of(st.sampled_from(divisors), st.integers(min_value=1, max_value=D)))
        raw = _class_risks([build_spectrum(D, r)], n, [q], np.arange(1, D + 1))
        assert np.all(np.isfinite(raw)) and np.all(raw >= 0.0)


class TestValidation:
    @pytest.mark.parametrize("q", [-0.5, math.nan, math.inf])
    def test_rejects_bad_weighting_exponent(self, q):
        s = build_spectrum(16, 1.0)
        with pytest.raises(ConfigurationError):
            one_row(s, 4, q, [8])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_risk_has_its_own_message(self, value):
        with pytest.raises(NumericalInconsistencyError, match="not a finite number"):
            _finalize_risks(np.array([0.5, value]))
        with pytest.raises(NumericalInconsistencyError, match="not a finite number"):
            _finalize_risk(value)


@st.composite
def stacked_sweeps(draw):
    """(D, n, groups (r, q), p values): n dividing D or not, q from 0 to the hundreds, split points included."""
    D = draw(st.integers(min_value=1, max_value=400))
    divisors = [d for d in range(1, D + 1) if D % d == 0]
    n = draw(st.one_of(st.sampled_from(divisors), st.integers(min_value=1, max_value=D)))
    r = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0))
    q = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=100.0, max_value=600.0))
    groups = draw(st.lists(st.tuples(r, q), min_size=1, max_size=6))
    split = [l * n + s for l in range(D // n + 1) for s in (1, n // 2, n - 1) if 1 <= l * n + s <= D]
    p_values = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=D), st.sampled_from(split or [D])),
                             min_size=1, max_size=12))
    return D, n, groups, sorted(set(p_values) | {n, D})


@st.composite
def mixed_D_sweeps(draw):
    """(n, groups (D, r, q), p values): every (r, q) at several D, n dividing D or not, q = 0 and r = 0, split points."""
    n = draw(st.integers(min_value=1, max_value=40))
    D_values = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=12).map(lambda k: k * n),
                                       st.integers(min_value=n, max_value=12 * n)), min_size=1, max_size=4, unique=True))
    r = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0))
    q = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=100.0, max_value=600.0))
    pairs = draw(st.lists(st.tuples(r, q), min_size=1, max_size=3))
    groups = draw(st.permutations([(D, r, q) for D in D_values for r, q in pairs]))
    top = max(D_values)
    split = [l * n + s for l in range(top // n + 1) for s in (1, n // 2, n - 1) if 1 <= l * n + s <= top]
    p_values = draw(st.lists(st.one_of(st.integers(min_value=1, max_value=top), st.sampled_from(split or [top]),
                                       st.sampled_from(D_values)), min_size=1, max_size=12))
    return n, groups, sorted(set(p_values))


def one_D_at_a_time(spectra, n, q_values, p_values):
    """Each group alone over the points within its D; NaN past it."""
    out = np.full((len(spectra), len(p_values)), math.nan)
    for row, spectrum, q in zip(out, spectra, q_values):
        inside = [j for j, p in enumerate(p_values) if p <= spectrum.D]
        row[inside] = one_row(spectrum, n, q, [p_values[j] for j in inside])
    return out


def one_at_a_time(spectra, n, q_values, p_values):
    return np.array([one_row(s, n, q, p_values) for s, q in zip(spectra, q_values)])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestStackedSweep:
    @given(case=stacked_sweeps(), groups_per_pass=st.sampled_from([None, 1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_one_group_at_a_time(self, case, groups_per_pass):
        D, n, groups, p_values = case
        spectra, q_values = [build_spectrum(D, r) for r, _ in groups], [q for _, q in groups]
        features = risktheory.STACKED_FEATURES if groups_per_pass is None else groups_per_pass * D
        with mock.patch.object(risktheory, "STACKED_FEATURES", features):
            stacked = sweep_risks(spectra, n, q_values, p_values)
        assert stacked.shape == (len(groups), len(p_values))
        np.testing.assert_array_equal(bits(stacked), bits(one_at_a_time(spectra, n, q_values, p_values)))

    @pytest.mark.parametrize(
        "D, n", [(COMPENSATED_D, 256), (COMPENSATED_D + 4465, 300), (COMPENSATED_D + 4465, 250)]
    )
    @pytest.mark.parametrize("groups_per_pass", [None, 3])
    def test_compensated_stack_equals_one_group_at_a_time(self, D, n, groups_per_pass):
        # by default each group of D >= 2^16 has a pass to itself; 3 to a pass runs the Kahan loop over
        # blocks of shape (3, groups, n) where D spans 256 blocks or more (not D = 70001, n = 300: 234 blocks)
        groups = [(1.0, 1.0), (0.5, 0.0), (1.5, 300.0)]
        spectra, q_values = [build_spectrum(D, r) for r, _ in groups], [q for _, q in groups]
        p_values = [1, n - 1, n, n + 1, 3 * n + n // 2, D // 2, D - 1, D]
        features = risktheory.STACKED_FEATURES if groups_per_pass is None else groups_per_pass * D
        with mock.patch.object(risktheory, "STACKED_FEATURES", features):
            stacked = sweep_risks(spectra, n, q_values, p_values)
        np.testing.assert_array_equal(bits(stacked), bits(one_at_a_time(spectra, n, q_values, p_values)))

    @pytest.mark.parametrize(
        "D, groups, passes", [(1024, 21, [21]), (8192, 21, [8, 8, 5]), (COMPENSATED_D, 2, [1, 1])]
    )
    def test_groups_per_pass_keep_the_working_set(self, D, groups, passes):
        # at most max(1, 2^16 // D) groups share a pass: a 21-r heatmap at D = 1024 takes one
        spectra = [build_spectrum(D, 0.1 * i) for i in range(groups)]
        with mock.patch.object(risktheory, "_class_risks", wraps=risktheory._class_risks) as passes_made:
            sweep_risks(spectra, 64, [1.0] * groups, [64, 128, D])
        assert [len(call.args[0]) for call in passes_made.call_args_list] == passes

    @pytest.mark.parametrize(
        "spectra, q_values",
        [
            ([], []),
            ([build_spectrum(16, 1.0)], [1.0, 2.0]),
        ],
        ids=["empty", "q-count"],
    )
    def test_rejects_a_stack_that_is_not_one_grid(self, spectra, q_values):
        with pytest.raises(ConfigurationError):
            sweep_risks(spectra, 4, q_values, [8])

    def test_a_p_above_its_group_D_is_nan(self):
        # D = 16 and 32 share n = 4: p = 24 lies past the first D only, p = 33 past both, n = 20 past the first
        small, large = build_spectrum(16, 1.0), build_spectrum(32, 1.0)
        risks = sweep_risks([small, large], 4, [1.0, 1.0], [8, 24])
        assert bits(risks[0, 0]) == bits(one_point(small, 4, 1.0, 8))
        assert math.isnan(risks[0, 1])
        np.testing.assert_array_equal(bits(risks[1]), bits(one_row(large, 4, 1.0, [8, 24])))
        with pytest.raises(ConfigurationError, match="p=33 outside"):
            sweep_risks([small, large], 4, [1.0, 1.0], [8, 33])
        with pytest.raises(ConfigurationError, match="n=20 outside"):
            sweep_risks([small, large], 20, [1.0, 1.0], [20])
        # such entries are skipped by the nonnegativity check, and only they
        finalized = _finalize_risks(np.array([[0.5, -1.0]]), np.array([[False, True]]))
        np.testing.assert_array_equal(finalized, [[0.5, math.nan]])
        with pytest.raises(NumericalInconsistencyError):
            _finalize_risks(np.array([[math.nan, 0.5]]), np.array([[False, True]]))

    @given(case=mixed_D_sweeps(), groups_per_pass=st.sampled_from([None, 1, 2]))
    @settings(max_examples=150, deadline=None)
    def test_mixed_D_stack_equals_one_group_at_a_time(self, case, groups_per_pass):
        n, groups, p_values = case
        spectra, q_values = [build_spectrum(D, r) for D, r, _ in groups], [q for *_, q in groups]
        features = risktheory.STACKED_FEATURES if groups_per_pass is None else groups_per_pass * max(
            D for D, *_ in groups)
        with mock.patch.object(risktheory, "STACKED_FEATURES", features):
            stacked = sweep_risks(spectra, n, q_values, p_values)
        np.testing.assert_array_equal(bits(stacked), bits(one_D_at_a_time(spectra, n, q_values, p_values)))

    def test_compensated_D_take_passes_of_their_own(self):
        # every (r, q) at D = 1024 shares one pass; each D of 256 blocks or more takes its own, one (r, q) to a pass
        n, D_values = 256, [1024, COMPENSATED_D, COMPENSATED_D + 4465]
        groups = [(D, r, q) for D in D_values for r, q in [(1.0, 1.0), (0.5, 0.0)]]
        spectra, q_values = [build_spectrum(D, r) for D, r, _ in groups], [q for *_, q in groups]
        p_values = [1, n - 1, n, n + 1, 3 * n + n // 2, 1024, 1025, COMPENSATED_D, D_values[-1]]
        with mock.patch.object(risktheory, "_class_risks", wraps=risktheory._class_risks) as passes_made:
            stacked = sweep_risks(spectra, n, q_values, p_values)
        assert [sorted({s.D for s in call.args[0]}) for call in passes_made.call_args_list] == [
            [1024], [D_values[1]], [D_values[1]], [D_values[2]], [D_values[2]]
        ]
        np.testing.assert_array_equal(bits(stacked), bits(one_D_at_a_time(spectra, n, q_values, p_values)))

    def test_no_points_give_an_empty_row_per_group(self):
        assert sweep_risks([build_spectrum(16, 1.0), build_spectrum(32, 2.0)], 4, [1.0, 0.0], []).shape == (2, 0)

    def test_rejects_a_bad_q_in_any_row(self):
        s = build_spectrum(16, 1.0)
        with pytest.raises(ConfigurationError):
            sweep_risks([s, s], 4, [1.0, math.nan], [8])
