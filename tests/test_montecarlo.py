import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    CoefficientModel,
    ConfigurationError,
    McConfig,
    SingularConstantError,
    build_spectrum,
    classify_grid,
    concentration_check,
    empirical_risk,
    empirical_risks,
    equispaced_predict,
    sweep_risks,
    weighted_minnorm,
)
from fourier_minnorm.oracles import sample_theta, trial_generator
from fourier_minnorm import montecarlo
from fourier_minnorm.montecarlo import _block_sampler, _draw_width, _scale_block, _theta_scale, _trial_keys

DRAWS = 100_000


@pytest.fixture(scope="module")
def theta_draws():
    """10^5 coefficient draws from one sequential stream (D = 8, r = 1)."""
    spectrum = build_spectrum(8, 1.0)
    rng = trial_generator(seed=2024, trial=0)
    draws = np.empty((DRAWS, 8), dtype=complex)
    for i in range(DRAWS):
        draws[i] = sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, rng)
    return spectrum, draws


class TestSampleTheta:
    def test_per_coordinate_second_moment(self, theta_draws):
        spectrum, draws = theta_draws
        target = spectrum.c_r * spectrum.t**2
        for j in (0, 4, 7):
            observed = np.mean(np.abs(draws[:, j]) ** 2)
            assert observed == pytest.approx(target[j], rel=0.05)

    def test_total_energy_is_one(self, theta_draws):
        _, draws = theta_draws
        assert np.mean(np.sum(np.abs(draws) ** 2, axis=1)) == pytest.approx(1.0, rel=0.02)

    def test_coordinates_uncorrelated(self, theta_draws):
        _, draws = theta_draws
        for j, k in [(0, 1), (0, 7), (3, 6)]:
            a, b = draws[:, j], draws[:, k]
            corr = np.mean(a * b.conj()) / np.sqrt(np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
            assert abs(corr) < 0.02

    def test_real_model_covariance(self):
        spectrum = build_spectrum(8, 1.0)
        rng = trial_generator(seed=11, trial=0)
        draws = np.stack(
            [sample_theta(spectrum, CoefficientModel.REAL_GAUSSIAN, rng) for _ in range(20_000)]
        )
        assert np.all(draws.imag == 0)
        observed = np.mean(np.abs(draws[:, 0]) ** 2)
        assert observed == pytest.approx(spectrum.c_r, rel=0.05)


class TestDeterminism:
    def test_bit_identical_samples(self):
        spectrum = build_spectrum(32, 1.0)
        grid = classify_grid(32, 4, 8)
        mc = McConfig(trials=50, seed=123)
        a = empirical_risk(spectrum, grid, 1.0, mc)
        b = empirical_risk(spectrum, grid, 1.0, mc)
        assert np.array_equal(a.samples, b.samples)
        assert (a.mean, a.ci_low, a.ci_high) == (b.mean, b.ci_low, b.ci_high)

    def test_trial_stream_independent_of_order(self):
        spectrum = build_spectrum(16, 0.5)
        direct = sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, trial_generator(7, 3))
        # drawing trial 3 after other trials touches nothing shared
        for trial in (0, 1, 2):
            sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, trial_generator(7, trial))
        again = sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, trial_generator(7, 3))
        assert np.array_equal(direct, again)

    def test_different_seeds_differ(self):
        spectrum = build_spectrum(16, 0.5)
        a = sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, trial_generator(1, 0))
        b = sample_theta(spectrum, CoefficientModel.COMPLEX_GAUSSIAN, trial_generator(2, 0))
        assert not np.array_equal(a, b)


class TestEmpiricalRisk:
    def test_exact_recovery_square_full_model(self):
        spectrum = build_spectrum(16, 1.0)
        grid = classify_grid(16, 16, 16)
        mc = McConfig(trials=20, seed=5)
        est = empirical_risk(spectrum, grid, 1.0, mc)
        assert np.all(est.samples <= 1e-16 * 16)

    def test_ci_contains_mean(self):
        spectrum = build_spectrum(64, 0.5)
        grid = classify_grid(64, 8, 16)
        est = empirical_risk(spectrum, grid, 0.5, McConfig(trials=200, seed=3))
        assert est.ci_low <= est.mean <= est.ci_high
        assert est.mean == est.samples.mean()

    def test_over_matches_theory(self):
        spectrum = build_spectrum(64, 0.5)
        grid = classify_grid(64, 8, 16)
        est = empirical_risk(spectrum, grid, 0.5, McConfig(trials=500, seed=17))
        theory = sweep_risks([spectrum], grid.n, [0.5], [grid.p])[0, 0]
        assert est.mean == pytest.approx(theory, rel=0.05)

    def test_under_matches_theory(self):
        spectrum = build_spectrum(64, 1.0)
        grid = classify_grid(64, 8, 4)
        est = empirical_risk(spectrum, grid, 1.0, McConfig(trials=500, seed=17))
        assert est.mean == pytest.approx(sweep_risks([spectrum], grid.n, [0.0], [grid.p])[0, 0], rel=0.05)

    def test_under_fits_ignore_q_sample_by_sample(self):
        spectrum = build_spectrum(32, 1.0)
        grid = classify_grid(32, 8, 5)
        mc = McConfig(trials=40, seed=9)
        a = empirical_risk(spectrum, grid, 0.0, mc)
        b = empirical_risk(spectrum, grid, 2.0, mc)
        assert np.array_equal(a.samples, b.samples)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            McConfig(trials=0, seed=0)
        with pytest.raises(ConfigurationError):
            McConfig(trials=1, seed=0, confidence=1.0)
        with pytest.raises(ConfigurationError):
            McConfig(trials=1, seed=-1)

    @pytest.mark.parametrize(
        "trials, seed", [(2.5, 0), (3, 1.5), (3, float("nan")), (3, 2.0), (True, 0), (3, True), (3, "1"), (3, None)]
    )
    def test_config_rejects_non_integers(self, trials, seed):
        with pytest.raises(ConfigurationError):
            McConfig(trials=trials, seed=seed)

    def test_config_accepts_numpy_integers(self):
        spectrum = build_spectrum(16, 1.0)
        a = empirical_risk(spectrum, classify_grid(16, 4, 8), 1.0, McConfig(trials=np.int64(3), seed=np.uint64(7)))
        b = empirical_risk(spectrum, classify_grid(16, 4, 8), 1.0, McConfig(trials=3, seed=7))
        assert np.array_equal(a.samples, b.samples)


class TestConcentrationCheck:
    def test_tail_shape(self):
        spectrum = build_spectrum(64, 1.0)
        grid = classify_grid(64, 8, 16)
        mc = McConfig(trials=300, seed=21)
        rows = concentration_check(spectrum, grid, 1.0, [0.0, 0.5, 100.0], mc)
        # t = 0: every sample deviates; bound clamps to 1
        assert rows[0].empirical_tail == 1.0
        assert rows[0].bound_tail == 1.0
        # enormous t: nothing deviates and the bound is informative
        assert rows[2].empirical_tail == 0.0
        assert rows[2].bound_tail < 1.0

    def test_monotone_and_dominated(self):
        spectrum = build_spectrum(64, 1.0)
        grid = classify_grid(64, 8, 16)
        mc = McConfig(trials=400, seed=22)
        from fourier_minnorm import concentration_bound

        T_q = concentration_bound(1.0, 1.0, 0.0).T_q
        rows = concentration_check(spectrum, grid, 1.0, [T_q, 2 * T_q, 5 * T_q], mc)
        tails = [row.empirical_tail for row in rows]
        assert tails == sorted(tails, reverse=True)
        for row in rows:
            if row.bound_tail < 1.0:
                assert row.empirical_tail <= row.bound_tail + 3 * row.std_err

    @pytest.mark.parametrize("t", [-0.5, float("nan"), float("inf")])
    def test_bad_t_rejected_before_sampling(self, t, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before validating t_grid")

        monkeypatch.setattr(montecarlo, "empirical_risk", no_sampling)
        spectrum = build_spectrum(64, 1.0)
        with pytest.raises(ConfigurationError):
            concentration_check(spectrum, classify_grid(64, 8, 16), 1.0, [1.0, t], McConfig(trials=10, seed=0))

    def test_out_of_regime_rejected(self):
        spectrum = build_spectrum(64, 0.4)
        grid = classify_grid(64, 8, 16)
        with pytest.raises(SingularConstantError):
            concentration_check(spectrum, grid, 0.4, [1.0], McConfig(trials=10, seed=0))


def one_trial_at_a_time(spectrum, n, q, p_values, mc):
    """The per-trial, per-p algorithm that empirical_risks batches; one sample array per p.

    Each error is math.fsum of the same terms |theta_k - theta_hat_k|^2, the
    exact sum rounded once.
    """
    estimates = []
    for p in p_values:
        grid = classify_grid(spectrum.D, n, p)
        samples = np.empty(mc.trials)
        for trial in range(mc.trials):
            theta = sample_theta(spectrum, mc.coefficient_model, trial_generator(mc.seed, trial))
            y = equispaced_predict(theta, n)
            fit = weighted_minnorm(y, spectrum, grid, q)
            diff = theta - fit.theta_hat
            samples[trial] = math.fsum(diff.real**2 + diff.imag**2)
        estimates.append(samples)
    return estimates


def fsum_bound(D, n):
    """Largest relative distance of an empirical_risks sample from math.fsum of its terms.

    The terms are nonnegative, so a sum in which no term passes through more
    than d additions lies within gamma_d = d u / (1 - d u) of the exact sum
    (u = 2^-53).  empirical_risks adds a term at most n - 1 times inside its
    block of n (block sum, prefix sum over the first n columns), at most
    ceil(D/n) - 1 times across blocks (suffix sum of block sums, sum of a
    fit's head blocks) and twice more to join head, partial block and tail:
    d <= n + ceil(D/n).  fsum rounds the exact sum once more (u), and the
    bound is taken relative to the rounded value, so gamma_(n + ceil(D/n) + 2)
    covers both.
    """
    d = n + -(-D // n) + 2
    u = 2.0**-53
    return d * u / (1.0 - d * u)


def assert_within_fsum_bound(estimates, exact, D, n):
    bound = fsum_bound(D, n)
    for est, want in zip(estimates, exact):
        assert np.all(np.abs(est.samples - want) <= bound * want)


def assert_stats_are_per_row_calls(est, confidence):
    alpha = 100.0 * (1.0 - confidence) / 2.0
    ci_low, ci_high = np.percentile(est.samples, [alpha, 100.0 - alpha])
    assert (est.mean, est.ci_low, est.ci_high) == (float(est.samples.mean()), float(ci_low), float(ci_high))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def sweeps(draw):
    # large D gives blocks of a few trials, so trial counts cross block edges
    D = draw(st.integers(1, 96) | st.sampled_from([1000, 1024, 2048, 3000, 4096]))
    n = draw(st.integers(1, min(D, 24)))
    extra = draw(st.lists(st.integers(1, D), max_size=4))
    multiples = [l * n for l in draw(st.lists(st.integers(1, D // n), min_size=1, max_size=2))]
    p_values = [n, *multiples, *extra]  # p = n, aligned p and (mostly) misaligned p
    q = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]))
    mc = McConfig(
        trials=draw(st.integers(1, 19)),
        seed=draw(st.integers(0, 2**96)),
        coefficient_model=draw(st.sampled_from(list(CoefficientModel))),
    )
    return build_spectrum(D, draw(st.sampled_from([0.0, 0.5, 1.0]))), n, q, p_values, mc


class TestEmpiricalRisks:
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_within_fsum_bound_of_one_trial_at_a_time(self, sweep):
        spectrum, n, q, p_values, mc = sweep
        got = empirical_risks([spectrum], n, [q], p_values, mc)[0]
        assert len(got) == len(p_values)
        assert_within_fsum_bound(got, one_trial_at_a_time(spectrum, n, q, p_values, mc), spectrum.D, n)
        for est in got:
            assert_stats_are_per_row_calls(est, mc.confidence)
            assert not est.samples.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(sweeps())
    def test_samples_independent_of_block_size(self, sweep):
        spectrum, n, q, p_values, mc = sweep
        runs = []
        for elements in (1, montecarlo._BLOCK_ELEMENTS, 1 << 20):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "_BLOCK_ELEMENTS", elements)
                runs.append(empirical_risks([spectrum], n, [q], p_values, mc)[0])
        for single_rows, default, one_block in zip(*runs):
            assert same_bits(single_rows.samples, default.samples)
            assert same_bits(one_block.samples, default.samples)

    @settings(max_examples=30, deadline=None)
    @given(sweeps())
    def test_point_calls_are_sweep_entries(self, sweep):
        spectrum, n, q, p_values, mc = sweep
        for p, est in zip(p_values, empirical_risks([spectrum], n, [q], p_values, mc)[0]):
            single = empirical_risk(spectrum, classify_grid(spectrum.D, n, p), q, mc)
            assert same_bits(single.samples, est.samples)
            assert (single.mean, single.ci_low, single.ci_high) == (est.mean, est.ci_low, est.ci_high)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5000),
        st.lists(st.integers(1, 8), min_size=1, max_size=12),
        st.sampled_from([0.5, 0.8, 0.9, 0.99]),
    )
    def test_stats_equal_per_row_calls(self, trials, p_values, confidence):
        # one percentile call and one mean over all rows give each row's bits
        mc = McConfig(trials=trials, seed=trials, confidence=confidence)
        for est in empirical_risks([build_spectrum(8, 1.0)], 2, [1.0], p_values, mc)[0]:
            assert_stats_are_per_row_calls(est, confidence)

    def test_point_call_is_one_sweep_entry(self):
        spectrum = build_spectrum(256, 1.0)
        mc = McConfig(trials=40, seed=4)
        sweep = empirical_risks([spectrum], 16, [1.0], [8, 16, 40, 64], mc)[0]
        for p, est in zip([8, 16, 40, 64], sweep):
            single = empirical_risk(spectrum, classify_grid(256, 16, p), 1.0, mc)
            assert np.array_equal(single.samples, est.samples)

    def test_large_q_is_finite_and_matches_theory(self):
        # t^(2q) of most features underflows at q = 100; class scaling keeps
        # every residue-class sum >= 1
        spectrum = build_spectrum(1024, 1.0)
        grid = classify_grid(1024, 16, 512)
        est = empirical_risk(spectrum, grid, 100.0, McConfig(trials=500, seed=0))
        assert np.all(np.isfinite(est.samples))
        assert est.mean == pytest.approx(sweep_risks([spectrum], grid.n, [100.0], [grid.p])[0, 0], rel=0.05)

    def test_large_q_on_misaligned_grid_matches_theory(self):
        # n = 60 divides neither D = 1000 nor p = 250: the circulant solve
        # with zero-padded class sums, at the point the mpmath test pins
        spectrum = build_spectrum(1000, 1.0)
        grid = classify_grid(1000, 60, 250)
        est = empirical_risk(spectrum, grid, 100.0, McConfig(trials=500, seed=0))
        assert np.all(np.isfinite(est.samples))
        assert est.mean == pytest.approx(sweep_risks([spectrum], grid.n, [100.0], [grid.p])[0, 0], rel=0.05)

    @pytest.mark.parametrize("q", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ConfigurationError):
            empirical_risks([build_spectrum(16, 1.0)], 4, [q], [8], McConfig(trials=2, seed=0))


@st.composite
def stacks(draw):
    # (r, q) groups of one D: a grid of r x q with cells left out, so an r
    # repeats across q and a q across r; one spectrum object per r
    D = draw(st.integers(1, 96) | st.sampled_from([1000, 1024]))
    n = draw(st.integers(1, min(D, 24)))
    p_values = draw(st.lists(st.integers(1, D), min_size=1, max_size=5))
    p_values += draw(st.sampled_from([[], [n], [1, D]]))  # p <= n and p > n in most draws
    r_values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3, unique=True))
    q_values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]), min_size=1, max_size=3, unique=True))
    cells = [(r, q) for r in r_values for q in q_values]
    groups = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    spectra = {r: build_spectrum(D, r) for r in r_values}
    mc = McConfig(
        trials=draw(st.integers(1, 19)),
        seed=draw(st.integers(0, 2**96)),
        coefficient_model=draw(st.sampled_from(list(CoefficientModel))),
    )
    # blocks of 1 to 4 trials (and the default): most trial counts leave a partial last block
    elements = draw(st.sampled_from([montecarlo._BLOCK_ELEMENTS, D, 2 * D, 3 * D + 1, 4 * D]))
    return [spectra[r] for r, _ in groups], n, [q for _, q in groups], p_values, mc, elements


class TestStackedGroups:
    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_each_group_is_its_run_alone(self, stack):
        spectra, n, q_values, p_values, mc, elements = stack
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_ELEMENTS", elements)
            stacked = empirical_risks(spectra, n, q_values, p_values, mc)
            alone = [empirical_risks([spectrum], n, [q], p_values, mc)[0] for spectrum, q in zip(spectra, q_values)]
        assert len(stacked) == len(spectra)
        for got, want in zip(stacked, alone):
            assert len(got) == len(want) == len(p_values)
            for a, b in zip(got, want):
                assert same_bits(a.samples, b.samples)
                assert (a.mean, a.ci_low, a.ci_high) == (b.mean, b.ci_low, b.ci_high)
                assert not a.samples.flags.writeable

    def test_one_kernel_set_per_distinct_q(self, monkeypatch):
        # the p > n kernels depend on D and q alone: mc-risk's r in {0.5, 1} x q in {0, 1} builds two sets, not four
        built = []
        real_kernel = montecarlo._minnorm_kernel

        def counting_kernel(t_T, n, q):
            built.append((len(t_T), q))
            return real_kernel(t_T, n, q)

        monkeypatch.setattr(montecarlo, "_minnorm_kernel", counting_kernel)
        spectra = {r: build_spectrum(64, r) for r in (0.5, 1.0)}
        groups = [(r, q) for r in (0.5, 1.0) for q in (0.0, 1.0)]
        mc = McConfig(trials=20, seed=0)
        empirical_risks([spectra[r] for r, _ in groups], 8, [q for _, q in groups], [3, 8, 20, 64], mc)
        assert sorted(built) == [(20, 0.0), (20, 1.0), (64, 0.0), (64, 1.0)]  # p = 20 and 64 are past n = 8

    def test_mixed_D_rejected(self):
        mc = McConfig(trials=2, seed=0)
        with pytest.raises(ConfigurationError, match="share D"):
            empirical_risks([build_spectrum(16, 1.0), build_spectrum(32, 1.0)], 4, [1.0, 1.0], [8], mc)

    @pytest.mark.parametrize("groups, q_values", [(1, []), (1, [1.0, 2.0]), (0, [])])
    def test_one_q_per_spectrum(self, groups, q_values):
        spectra = [build_spectrum(16, 1.0)] * groups
        with pytest.raises(ConfigurationError, match="one q per spectrum"):
            empirical_risks(spectra, 4, q_values, [8], McConfig(trials=2, seed=0))


def test_int_state_rekeying_reproduces_trial_generator():
    # the sampler's state holds Python ints; a key word >= 2^63 must reach the
    # generator unchanged (151 of the first 200 trials at seed 1 have one)
    keys = _trial_keys(1, np.arange(200))
    assert sum(max(key) >= 2**63 for key in keys.tolist()) == 151
    draws = np.empty((200, 10))
    _block_sampler()(keys, draws)
    for trial, row in enumerate(draws):
        assert same_bits(row, trial_generator(1, trial).standard_normal(10))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**200),
    st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1]), max_size=6),
)
def test_trial_keys_match_seed_sequence(seed, trials):
    trials = [2**32 - 1, 2**32, *trials]
    keys = _trial_keys(seed, np.array(trials, dtype=np.uint64))
    assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
    for trial, key in zip(trials, keys):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(trial,)).generate_state(2, np.uint64)
        assert np.array_equal(key, want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 64) | st.sampled_from([1000, 1024]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from(list(CoefficientModel)),
    st.integers(0, 2**96),
    st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 40), min_size=1, max_size=6),
)
def test_block_sampler_is_the_trial_stream(D, r, model, seed, trials):
    # the block draw of empirical_risks: keys in one pass, one re-keyed
    # generator, rows of a strided scratch block, one scaling pass
    spectrum = build_spectrum(D, r)
    draw = _block_sampler()
    keys = _trial_keys(seed, np.array(trials, dtype=np.uint64))
    width = _draw_width(model, D)
    theta = np.empty((len(trials), D), dtype=complex)
    split = len(trials) // 2  # a second call re-keys the same generator
    for part in (slice(0, split), slice(split, len(trials))):
        draws = np.empty((part.stop - part.start, width + 3))[:, :width]
        draw(keys[part], draws)
        _scale_block(_theta_scale(spectrum), model, draws, theta[part], out=draws)
    for row, trial in zip(theta, trials):
        assert same_bits(row, sample_theta(spectrum, model, trial_generator(seed, trial)))


def test_trial_keys_key_the_trial_streams():
    keys = _trial_keys(99, np.arange(3))
    for trial, key in enumerate(keys):
        assert np.array_equal(trial_generator(99, trial).bit_generator.state["state"]["key"], key)


# Samples of empirical_risks([build_spectrum(64, 1.0)], 8, [1.0], [4, 8, 20],
# McConfig(trials=3, seed=2024, coefficient_model=model)), one row per p
# (least squares, p = n and a misaligned min-norm p), as produced by
# trial_generator -> sample_theta per trial and the head/block-tail sums of
# empirical_risks; each lies within fsum_bound(64, 8) of math.fsum.  A change
# to key derivation, draw order, scaling or summation order shows here as a
# changed bit.
GOLDEN_SAMPLES = {
    CoefficientModel.COMPLEX_GAUSSIAN: [
        ["0x1.dac2460145499p-4", "0x1.37854a999da56p-3", "0x1.5ad49a358e930p-3"],
        ["0x1.8bd89c538055fp-4", "0x1.43b5c4c7bc2c0p-3", "0x1.32a4c5853db3ep-3"],
        ["0x1.66d0f724a14e0p-4", "0x1.1a11394b33ad2p-3", "0x1.f806e9660df0ep-4"],
    ],
    CoefficientModel.REAL_GAUSSIAN: [
        ["0x1.cce86e088239fp-4", "0x1.8de3a28330cbep-3", "0x1.041342f61d5c8p-2"],
        ["0x1.0840e12d3dd07p-3", "0x1.b2c3583464050p-3", "0x1.96f2e1bc1c6eep-3"],
        ["0x1.b78021f69606ep-4", "0x1.7606c95fd4daap-3", "0x1.37f1837f17cd3p-3"],
    ],
}


@pytest.mark.parametrize("model", list(CoefficientModel))
def test_golden_samples(model):
    mc = McConfig(trials=3, seed=2024, coefficient_model=model)
    estimates = empirical_risks([build_spectrum(64, 1.0)], 8, [1.0], [4, 8, 20], mc)[0]
    assert [[float(x).hex() for x in est.samples] for est in estimates] == GOLDEN_SAMPLES[model]
