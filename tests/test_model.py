import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    McConfig,
    RegimeError,
    build_spectrum,
    classify_grid,
    cr_bounds,
    empirical_risks,
    sweep_risks,
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

    @pytest.mark.parametrize(
        "D, r, match",
        [(8, math.nan, "finite"), (8, math.inf, "finite"), (8, -math.inf, "finite"),
         (8.0, 1.0, "integer"), (True, 1.0, "integer"), ("8", 1.0, "integer")],
    )
    def test_rejects_non_finite_r_and_non_integer_D(self, D, r, match):
        with pytest.raises(ConfigurationError, match=match):
            cr_bounds(D, r)

    @pytest.mark.parametrize("r", [1e200, 8.98e307, 8.99e307, 1e308, 1.79e308])
    @pytest.mark.parametrize("D", [1, 8])
    def test_matches_mpmath_where_2r_overflows(self, D, r):
        # 2r overflows from about 8.99e307 on; the lower bound tends to 1 and the upper to 2r - 1
        with mpmath.workdps(50):
            two_r = 2 * mpmath.mpf(r)
            lower = (two_r - 1) / (two_r - mpmath.mpf(D) ** (1 - two_r))
            upper = (two_r - 1) / (1 - mpmath.mpf(D + 1) ** (1 - two_r))
        assert cr_bounds(D, r) == (float(lower), float(upper))
        assert cr_bounds(D, r)[0] == 1.0

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
            (8, 2, 4, "over_aligned", 4, 2),
            (8, 4, 3, "under", 2, None),
            (8, 3, 5, "over_general", None, None),
            (8, 2, 2, "over_aligned", 4, 1),
            (12, 4, 12, "over_aligned", 3, 3),
        ],
    )
    def test_examples(self, D, n, p, regime, tau, l):
        g = classify_grid(D, n, p)
        assert (g.tau, g.l) == (tau, l)
        assert regime_tags(g.n, np.array([g.p])).tolist() == [regime]

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
        # the regime of a grid is its tag: under below n, then aligned exactly where l is set
        tag = regime_tags(g.n, np.array([g.p]))[0]
        assert tag == ("under" if p < n else "over_aligned" if g.l is not None else "over_general")
        assert classify_grid(D, n, p) == g



# integers in and out of range, numpy integers, and values that are not integers
SIZES = st.one_of(
    st.integers(min_value=-3, max_value=70),
    st.integers(min_value=-3, max_value=70).map(np.int64),
    st.integers(min_value=0, max_value=70).map(np.uint16),
    st.floats(),
    st.booleans(),
)


def first_bad_size(D, n, p_values):
    """Reference: the error text for the first bad value, checking n, then each p in turn."""

    def is_integer(value):
        return isinstance(value, (int, np.integer)) and not isinstance(value, bool)

    if not is_integer(n):
        return f"sample count n must be an integer, got {n!r}"
    if not 1 <= n <= D:
        return f"sample count n={n} outside [1, D={D}]"
    for p in p_values:
        if not is_integer(p):
            return f"truncation p must be an integer, got {p!r}"
        if not 1 <= p <= D:
            return f"truncation p={p} outside [1, D={D}]"
    return None


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
        assert regime_tags(n, p).tolist() == [regime_tags(g.n, np.array([g.p]))[0] for g in grids]

    def test_names_the_first_offending_value(self):
        with pytest.raises(ConfigurationError, match=r"^truncation p=0 outside \[1, D=8\]$"):
            check_truncations(8, 2, [4, 0, 9])
        with pytest.raises(ConfigurationError, match=r"^truncation p=9 outside \[1, D=8\]$"):
            check_truncations(8, 2, [4, 9, 0])

    def test_values_beyond_int64(self):
        with pytest.raises(ConfigurationError, match=f"truncation p={2**70} outside"):
            check_truncations(8, 2, [4, 2**70])

    @given(
        D=st.integers(min_value=1, max_value=64),
        n=SIZES,
        p_values=st.lists(SIZES, max_size=8),
        as_array=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_names_the_first_value_that_is_not_an_integer_in_range(self, D, n, p_values, as_array):
        expected = first_bad_size(D, n, p_values)
        if as_array and expected is None:
            p_values = np.asarray(p_values, dtype=np.int64)
        checks = (
            lambda: check_truncations(D, n, p_values),
            lambda: [classify_grid(D, n, p) for p in [1, *p_values]],  # point by point
        )
        for check in checks:
            if expected is None:
                check()
            else:
                with pytest.raises(ConfigurationError) as raised:
                    check()
                assert str(raised.value) == expected
        if expected is None:
            assert check_truncations(D, n, p_values).tolist() == [int(p) for p in p_values]

    @pytest.mark.parametrize("p", [16.7, 16.0, math.nan, math.inf, True])
    def test_sweeps_reject_a_p_that_is_not_an_integer(self, p):
        spectrum, mc = build_spectrum(64, 1.0), McConfig(trials=2, seed=0)
        message = f"^truncation p must be an integer, got {p!r}$"
        with pytest.raises(ConfigurationError, match=message):
            sweep_risks([spectrum], 8, [1.0], [4, p])
        with pytest.raises(ConfigurationError, match=message):
            empirical_risks([spectrum], 8, [1.0], [4, p], mc)
        with pytest.raises(ConfigurationError, match=message):
            classify_grid(64, 8, p)

    @pytest.mark.parametrize("D", [64.0, 16.7, math.nan, False])
    def test_rejects_a_D_that_is_not_an_integer(self, D):
        message = f"^feature count D must be an integer, got {D!r}$"
        with pytest.raises(ConfigurationError, match=message):
            classify_grid(D, 8, 16)
        with pytest.raises(ConfigurationError, match=message):
            build_spectrum(D, 1.0)


class TestFoldedSums:
    def test_plain_fold(self):
        out = folded_sums(np.arange(6, dtype=float), 3)
        np.testing.assert_allclose(out, [3.0, 5.0, 7.0])

    def test_pads_partial_block(self):
        out = folded_sums(np.arange(5, dtype=float), 3)
        np.testing.assert_allclose(out, [3.0, 5.0, 2.0])

    def test_start_places_entry_i_in_class_start_plus_i(self):
        values = np.arange(1.0, 8.0)  # frequencies -3, ..., 3
        np.testing.assert_array_equal(folded_sums(values, 3, start=-3), [1 + 4 + 7, 2 + 5, 3 + 6])
        np.testing.assert_array_equal(folded_sums(values, 3, start=-3, reduce=np.maximum), [7, 5, 6])
        np.testing.assert_array_equal(folded_sums(values, 9, start=-3), [4, 5, 6, 7, 0, 0, 1, 2, 3])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_per_class_loop(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        length = data.draw(st.integers(0, 3 * n + 2), label="length")
        batch = data.draw(st.integers(0, 3), label="batch")
        axis = data.draw(st.sampled_from([0, 1, -1, -2]), label="axis")
        start = data.draw(st.integers(-40, 40), label="start")
        reduce = data.draw(st.sampled_from([np.add, np.maximum]), label="reduce")
        compensated = data.draw(st.booleans(), label="compensated")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = [batch, batch]
        shape[axis] = length
        values = rng.random(shape)
        out = folded_sums(values, n, compensated, start=start, axis=axis, reduce=reduce)
        rows = np.moveaxis(values, axis, -1)
        expected = np.zeros((batch, n))
        for i in range(length):  # entry i is frequency start + i, in class (start + i) mod n
            expected[:, (start + i) % n] = reduce(expected[:, (start + i) % n], rows[:, i])
        got = np.moveaxis(out, axis, -1)
        if compensated and reduce is np.add:
            exact = [[math.fsum(row[(np.arange(length) + start) % n == m]) for m in range(n)] for row in rows]
            np.testing.assert_allclose(got, np.reshape(exact, (batch, n)), rtol=1e-15, atol=0)
        else:  # the same additions in the same order, or exact maxima
            np.testing.assert_array_equal(got, expected)

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

    @given(
        shape=st.sampled_from([(9, 3, 21, 128), (17, 3, 12, 64), (9, 21, 128), (3, 16, 64), (65, 4, 16), (9, 3, 4, 8)]),
        seed=st.integers(0, 2**32 - 1),
        reverse=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_adds_and_cumsum_give_the_same_bits(self, shape, seed, reverse):
        # rows of 1024 values or more in runs of 64 or more are added row by row, narrower ones by cumsum;
        # the slots of the risk pass are strided views with the blocks leading, as some of these are
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        blocks = np.moveaxis(values.copy(), -2, 0) if len(shape) == 4 else values.copy()
        blocks = blocks[::-1] if reverse else blocks
        expected = np.cumsum(blocks, axis=0)
        assert accumulate_blocks(blocks) is blocks
        np.testing.assert_array_equal(blocks.view(np.int64), expected.view(np.int64))

    def test_compensated_rows_are_nearly_exactly_rounded(self):
        values = 1.0 / np.arange(1, (1 << 14) + 1, dtype=float)
        out = accumulate_blocks(values.reshape(-1, 4).copy(), compensated=True)
        for l in (1, 100, 4096):
            exact = [math.fsum(values[m : 4 * l : 4]) for m in range(4)]
            np.testing.assert_allclose(out[l - 1], exact, rtol=4e-16, atol=0)

    def test_compensated_fold_of_nothing_is_zero(self):
        np.testing.assert_array_equal(folded_sums(np.zeros(0), 4, compensated=True), np.zeros(4))
