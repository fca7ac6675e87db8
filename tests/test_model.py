import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    Regime,
    RegimeError,
    build_spectrum,
    classify_grid,
    cr_bounds,
)
from fourier_minnorm.model import accumulate_blocks, check_truncations, folded_sums, regime_tags


class TestBuildSpectrum:
    def test_decay_sequence_d4(self):
        s = build_spectrum(4, 1.0)
        np.testing.assert_allclose(s.t, [1.0, 1 / 2, 1 / 3, 1 / 4], rtol=0, atol=0)

    def test_single_term_normaliser(self):
        assert build_spectrum(1, 1.0).c_r == 1.0

    def test_cr_d4_r1(self):
        # direct summation oracle: 1 + 1/4 + 1/9 + 1/16 = 205/144
        s = build_spectrum(4, 1.0)
        assert s.c_r == pytest.approx(144 / 205, rel=1e-15)

    def test_cr_normalisation_identity(self):
        for D in (1, 2, 7, 64, 1000):
            for r in (0.0, 0.3, 0.5, 1.0, 2.5):
                s = build_spectrum(D, r)
                total = s.c_r * math.fsum((s.t ** (2 * r))[::-1])
                assert total == pytest.approx(1.0, rel=1e-14)

    def test_monotone_endpoints(self):
        s = build_spectrum(37, 0.7)
        assert np.all(np.diff(s.t) < 0)
        assert s.t[0] == 1.0
        assert s.t[-1] == pytest.approx(1 / 37, rel=0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            build_spectrum(0, 1.0)

    def test_rejects_negative_r(self):
        with pytest.raises(ConfigurationError):
            build_spectrum(4, -0.1)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_rejects_non_finite_r(self, r):
        with pytest.raises(ConfigurationError):
            build_spectrum(4, r)

    def test_bitwise_reproducible(self):
        a, b = build_spectrum(129, 1.3), build_spectrum(129, 1.3)
        assert np.array_equal(a.t, b.t)
        assert a.c_r == b.c_r

    def test_arrays_are_read_only(self):
        s = build_spectrum(8, 1.0)
        with pytest.raises(ValueError):
            s.t[0] = 2.0


class TestCrBounds:
    def test_d1_r1_closed_forms(self):
        lower, upper = cr_bounds(1, 1.0)
        assert lower == 1.0
        assert upper == 2.0
        assert lower <= build_spectrum(1, 1.0).c_r <= upper

    def test_sandwich_d4_r1(self):
        lower, upper = cr_bounds(4, 1.0)
        assert lower <= 144 / 205 <= upper

    def test_sandwich_large_shallow(self):
        s = build_spectrum(1024, 0.6)
        lower, upper = cr_bounds(1024, 0.6)
        assert lower < s.c_r < upper

    @pytest.mark.parametrize("r", [0.5, 0.2, 0.0])
    def test_rejects_shallow_decay(self, r):
        with pytest.raises(RegimeError):
            cr_bounds(64, r)

    @given(
        D=st.integers(min_value=1, max_value=5000),
        r=st.floats(min_value=0.51, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sandwich_property(self, D, r):
        lower, upper = cr_bounds(D, r)
        assert lower <= build_spectrum(D, r).c_r <= upper


class TestClassifyGrid:
    @pytest.mark.parametrize(
        "D,n,p,regime,tau,l",
        [
            (8, 2, 4, Regime.OVER_ALIGNED, 4, 2),
            (8, 4, 3, Regime.UNDER, 2, None),
            (8, 3, 5, Regime.OVER_GENERAL, None, None),
            (8, 2, 2, Regime.OVER_ALIGNED, 4, 1),
            (12, 4, 12, Regime.OVER_ALIGNED, 3, 3),
        ],
    )
    def test_examples(self, D, n, p, regime, tau, l):
        g = classify_grid(D, n, p)
        assert (g.regime, g.tau, g.l) == (regime, tau, l)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            classify_grid(8, 2, 9)
        with pytest.raises(ConfigurationError):
            classify_grid(8, 9, 4)
        with pytest.raises(ConfigurationError):
            classify_grid(8, 2, 0)

    @given(
        D=st.integers(min_value=1, max_value=128),
        n=st.integers(min_value=1, max_value=128),
        p=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=200, deadline=None)
    def test_tag_consistency(self, D, n, p):
        if not (n <= D and p <= D):
            with pytest.raises(ConfigurationError):
                classify_grid(D, n, p)
            return
        g = classify_grid(D, n, p)
        assert (g.tau is not None) == (D % n == 0)
        assert (g.l is not None) == (p % n == 0)
        if g.regime is Regime.UNDER:
            assert p < n
        elif g.regime is Regime.OVER_ALIGNED:
            assert p >= n and p % n == 0
        else:
            assert p > n and p % n != 0
        assert classify_grid(D, n, p) == g



class TestCheckTruncations:
    @given(
        D=st.integers(min_value=1, max_value=64),
        n=st.integers(min_value=-2, max_value=70),
        p_values=st.lists(st.integers(min_value=-3, max_value=70), max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_classify_grid_point_by_point(self, D, n, p_values):
        """Same values, same regimes, same error text as classify_grid on each point in turn."""
        try:
            grids = [classify_grid(D, n, p) for p in p_values]
            if not 1 <= n <= D:
                classify_grid(D, n, 1)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as raised:
                check_truncations(D, n, p_values)
            assert str(raised.value) == str(exc)
            return
        p = check_truncations(D, n, p_values)
        assert p.tolist() == [g.p for g in grids]
        assert regime_tags(n, p).tolist() == [g.regime.value for g in grids]

    def test_names_the_first_offending_value(self):
        with pytest.raises(ConfigurationError, match=r"^truncation p=0 outside \[1, D=8\]$"):
            check_truncations(8, 2, [4, 0, 9])
        with pytest.raises(ConfigurationError, match=r"^truncation p=9 outside \[1, D=8\]$"):
            check_truncations(8, 2, [4, 9, 0])

    def test_values_beyond_int64(self):
        with pytest.raises(ConfigurationError, match=f"truncation p={2**70} outside"):
            check_truncations(8, 2, [4, 2**70])

class TestFoldedSums:
    def test_plain_fold(self):
        out = folded_sums(np.arange(6, dtype=float), 3)
        np.testing.assert_allclose(out, [3.0, 5.0, 7.0])

    def test_pads_partial_block(self):
        out = folded_sums(np.arange(5, dtype=float), 3)
        np.testing.assert_allclose(out, [3.0, 5.0, 2.0])

    def test_compensated_matches_plain(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(128)
        np.testing.assert_allclose(
            folded_sums(values, 8, compensated=True),
            folded_sums(values, 8, compensated=False),
            rtol=1e-12,
        )


class TestAccumulateBlocks:
    @pytest.mark.parametrize("compensated", [False, True])
    def test_rows_become_prefix_sums_in_place(self, compensated):
        blocks = np.random.default_rng(3).standard_normal((6, 4))
        work = blocks.copy()
        assert accumulate_blocks(work, compensated) is work
        for l in range(6):
            np.testing.assert_allclose(work[l], blocks[: l + 1].sum(axis=0), rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("compensated", [False, True])
    def test_reversed_view_gives_suffix_sums(self, compensated):
        blocks = np.random.default_rng(4).standard_normal((5, 3))
        work = blocks.copy()
        accumulate_blocks(work[::-1], compensated)
        for l in range(5):
            np.testing.assert_allclose(work[l], blocks[l:].sum(axis=0), rtol=1e-13, atol=1e-14)

    def test_compensated_rows_are_nearly_exactly_rounded(self):
        values = 1.0 / np.arange(1, (1 << 14) + 1, dtype=float)
        out = accumulate_blocks(values.reshape(-1, 4).copy(), compensated=True)
        for l in (1, 100, 4096):
            exact = [math.fsum(values[m : 4 * l : 4]) for m in range(4)]
            np.testing.assert_allclose(out[l - 1], exact, rtol=4e-16, atol=0)

    def test_compensated_fold_of_nothing_is_zero(self):
        np.testing.assert_array_equal(folded_sums(np.zeros(0), 4, compensated=True), np.zeros(4))
