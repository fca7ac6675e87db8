import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourier_minnorm.interpolation as interpolation
from fourier_minnorm import (
    ConfigurationError,
    InterpolationProblem,
    Method,
    NumericalInconsistencyError,
    UnknownTargetError,
    WeightKind,
    builtin_targets,
    fit_interpolant,
    symmetric_frequencies,
)
from fourier_minnorm.interpolation import (
    axis_weights,
    evaluate_on_grid,
    sample_axis,
    target_on_grid,
    tensor_weights,
    training_samples,
)
from fourier_minnorm.model import folded_sums
from fourier_minnorm.oracles import axis_feature_matrix, evaluate_interpolant, solve_weighted_minnorm


class TestFrequencyLayout:
    def test_odd_size_symmetric_window(self):
        np.testing.assert_array_equal(symmetric_frequencies(5), [0, 1, 2, -2, -1])

    def test_even_size_fft_convention(self):
        np.testing.assert_array_equal(symmetric_frequencies(4), [0, 1, -2, -1])

    def test_matches_numpy_fftfreq(self):
        for m in (1, 2, 3, 8, 15, 41):
            np.testing.assert_array_equal(symmetric_frequencies(m), np.rint(np.fft.fftfreq(m) * m))

    def test_weights_decay_with_frequency(self):
        w = axis_weights(7)
        freqs = symmetric_frequencies(7)
        np.testing.assert_allclose(w, 1.0 / (1.0 + np.abs(freqs)))


class TestTensorWeights:
    def test_separable_is_outer_product(self):
        w = axis_weights(5)
        np.testing.assert_allclose(tensor_weights(5, 2, WeightKind.SEPARABLE), np.outer(w, w))

    def test_euclidean_dc_mode_finite(self):
        w = tensor_weights(5, 2, WeightKind.EUCLIDEAN)
        assert w[0, 0] == 1.0
        assert np.all(w > 0)

    def test_variants_coincide_in_1d(self):
        np.testing.assert_allclose(
            tensor_weights(9, 1, WeightKind.SEPARABLE), tensor_weights(9, 1, WeightKind.EUCLIDEAN)
        )


class TestBuiltinTargets:
    def test_stage_values(self):
        stage = builtin_targets("stage1d")
        assert stage(np.array(-0.5)) == -1.0
        assert stage(np.array(0.5)) == 1.0
        assert stage(np.array(0.0)) == 1.0

    def test_cubic_roots(self):
        cubic = builtin_targets("cubic1d")
        assert cubic(np.array(0.0)) == 0.0
        assert cubic(np.array(1.0)) == 0.0

    def test_cos2d_origin(self):
        assert builtin_targets("cos2d")(np.zeros(2)) == 1.0

    def test_unknown_name(self):
        with pytest.raises(UnknownTargetError):
            builtin_targets("sawtooth9d")


class TestFitInterpolant:
    def test_single_mode_exact_recovery(self):
        # target inside the hypothesis class, square system: one nonzero entry
        n = p = 7
        x = sample_axis(n)
        y = np.exp(2j * np.pi * 2 * x)
        problem = InterpolationProblem(dimension=1, n_axis=n, p_axis=p, D_axis=10, q=1.0, target=y)
        for method in (Method.PLAIN_MIN_NORM, Method.WEIGHTED_MIN_NORM, Method.LEAST_SQUARES):
            fit = fit_interpolant(problem, method)
            expected = np.zeros(p, dtype=complex)
            expected[2] = 1.0  # frequency 2 sits in column 2 of the FFT layout
            np.testing.assert_allclose(fit.coefficients, expected, atol=1e-10)

    def test_kronecker_matches_dense_flattened_solve(self):
        # d = 2 separable weight: per-axis pseudoinverses vs one flat solve
        rng = np.random.default_rng(0)
        n, p = 3, 6
        y = rng.standard_normal((n, n))
        problem = InterpolationProblem(
            dimension=2, n_axis=n, p_axis=p, D_axis=8, q=1.5, target=y, weight_kind=WeightKind.SEPARABLE
        )
        fit = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        phi = axis_feature_matrix(sample_axis(n), p)
        flat = np.kron(phi, phi)
        w_flat = tensor_weights(p, 2, WeightKind.SEPARABLE).ravel()
        oracle = solve_weighted_minnorm(flat, w_flat, 1.5, y.ravel()).reshape(p, p)
        assert np.linalg.norm(fit.coefficients - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_training_roundtrip(self):
        problem = InterpolationProblem(dimension=1, n_axis=9, p_axis=27, D_axis=27, q=1.0, target="cubic1d")
        fit = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        values = evaluate_interpolant(fit.coefficients, problem.axes(), problem.domain)
        clean, _ = training_samples(problem)
        assert np.linalg.norm(values - clean) <= 1e-8

    def test_stage_interpolation_constraint(self):
        problem = InterpolationProblem(
            dimension=1, n_axis=15, p_axis=1000, D_axis=1000, q=1.5, target="stage1d"
        )
        fit = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        assert fit.residual <= 1e-8

    def test_weighted_norm_optimality_2d(self):
        # random perturbations in the nullspace of the flattened system never
        # decrease the weighted norm
        rng = np.random.default_rng(1)
        n, p = 3, 6
        y = rng.standard_normal((n, n))
        problem = InterpolationProblem(dimension=2, n_axis=n, p_axis=p, D_axis=8, q=2.0, target=y)
        fit = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        phi = axis_feature_matrix(sample_axis(n), p)
        flat = np.kron(phi, phi)
        w_inv = tensor_weights(p, 2, WeightKind.EUCLIDEAN).ravel() ** (-2.0)
        theta = fit.coefficients.ravel()
        base = np.linalg.norm(w_inv * theta)
        for _ in range(50):
            g = rng.standard_normal(p * p) + 1j * rng.standard_normal(p * p)
            correction, *_ = np.linalg.lstsq(flat, flat @ g, rcond=None)
            delta = g - correction
            assert np.linalg.norm(w_inv * (theta + delta)) >= base - 1e-10

    def test_smoothness_proxy_cubic(self):
        # the weighted fit minimises the weighted norm, so it beats the plain
        # interpolant on that metric whenever the two differ
        problem = InterpolationProblem(
            dimension=1, n_axis=15, p_axis=1000, D_axis=1000, q=2.0, target="cubic1d"
        )
        weighted = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        plain = fit_interpolant(problem, Method.PLAIN_MIN_NORM)
        assert weighted.weighted_norm < plain.weighted_norm

    @pytest.mark.parametrize("kind", list(WeightKind))
    @pytest.mark.parametrize("dimension, target", [(1, "cubic1d"), (2, "cos2d")])
    def test_least_squares_above_n_is_plain_min_norm(self, dimension, target, kind):
        for n, p in ((8, 16), (5, 9), (1, 3)):
            problem = InterpolationProblem(
                dimension=dimension, n_axis=n, p_axis=p, D_axis=16, q=1.0, target=target, weight_kind=kind
            )
            least_squares = fit_interpolant(problem, Method.LEAST_SQUARES)
            assert_same_fit(least_squares, fit_interpolant(problem, Method.PLAIN_MIN_NORM))
            assert least_squares.residual <= 1e-10 * max(1.0, np.linalg.norm(training_samples(problem)[1]))

    @pytest.mark.parametrize("kind", list(WeightKind))
    @pytest.mark.parametrize("dimension, target", [(1, "cubic1d"), (2, "cos2d")])
    def test_min_norm_up_to_n_is_least_squares(self, dimension, target, kind):
        # at p_axis <= n_axis each class holds at most one frequency: s = Lambda = 1, whatever q
        for n, p, q in ((8, 4, 1.0), (9, 1, 2.0), (6, 6, 40.0), (7, 3, 1e308)):
            problem = InterpolationProblem(
                dimension=dimension, n_axis=n, p_axis=p, D_axis=16, q=q, target=target, weight_kind=kind
            )
            least_squares = fit_interpolant(problem, Method.LEAST_SQUARES)
            for method in (Method.PLAIN_MIN_NORM, Method.WEIGHTED_MIN_NORM):
                assert_same_fit(fit_interpolant(problem, method), least_squares)

    def test_least_squares_projection(self):
        problem = InterpolationProblem(dimension=1, n_axis=15, p_axis=5, D_axis=20, q=0.0, target="cubic1d")
        fit = fit_interpolant(problem, Method.LEAST_SQUARES)
        # residual equals the dense lstsq residual
        phi = axis_feature_matrix(sample_axis(15, problem.domain), 5, problem.domain)
        clean, _ = training_samples(problem)
        oracle = np.linalg.lstsq(phi, clean, rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-10)

    def test_noise_is_seeded(self):
        a = InterpolationProblem(
            dimension=1, n_axis=8, p_axis=8, D_axis=8, q=0.0, target="cubic1d", noise_sigma=0.1, noise_seed=5
        )
        b = InterpolationProblem(
            dimension=1, n_axis=8, p_axis=8, D_axis=8, q=0.0, target="cubic1d", noise_sigma=0.1, noise_seed=5
        )
        _, ya = training_samples(a)
        _, yb = training_samples(b)
        assert np.array_equal(ya, yb)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            InterpolationProblem(dimension=1, n_axis=8, p_axis=30, D_axis=20, q=1.0, target="cubic1d")
        with pytest.raises(ConfigurationError):
            InterpolationProblem(dimension=2, n_axis=8, p_axis=8, D_axis=8, q=1.0, target="cubic1d")
        with pytest.raises(ConfigurationError):
            InterpolationProblem(dimension=1, n_axis=8, p_axis=8, D_axis=8, q=-1.0, target="cubic1d")

    def test_negative_noise_seed_rejected(self):
        # SeedSequence takes no negative entropy: refused when the problem is built, before any sample is drawn
        with pytest.raises(ConfigurationError, match="^field noise_seed must be a nonnegative integer, got -1$"):
            InterpolationProblem(
                dimension=1, n_axis=15, p_axis=15, D_axis=15, q=1.0, target="cubic1d", noise_sigma=0.1, noise_seed=-1
            )

    @pytest.mark.parametrize("field, value", [("n_axis", 15.5), ("p_axis", 31.0), ("D_axis", float("nan")),
                                              ("dimension", True), ("noise_seed", 1.5)])
    def test_sizes_must_be_integers(self, field, value):
        sizes = dict(dimension=1, n_axis=15, p_axis=31, D_axis=100, noise_seed=0)
        with pytest.raises(ConfigurationError, match=f"^field {field} must be an integer, got {value!r}$"):
            InterpolationProblem(q=1.0, target="cubic1d", **{**sizes, field: value})


def assert_same_fit(a, b):
    """Two fits equal bit for bit: coefficient bytes and every diagnostic."""
    assert a.coefficients.tobytes() == b.coefficients.tobytes()
    for name in ("residual", "weighted_norm", "log10_weighted_norm", "plain_norm"):
        assert getattr(a, name).hex() == getattr(b, name).hex(), name


def dense_fit(problem, method):
    """The fit from one dense solve of the flattened (Kronecker) system."""
    d, n, p = problem.dimension, problem.n_axis, problem.p_axis
    phi = axis_feature_matrix(sample_axis(n, problem.domain), p, problem.domain)
    flat = phi
    for _ in range(d - 1):
        flat = np.kron(flat, phi)
    weights = tensor_weights(p, d, problem.weight_kind).ravel()
    q = problem.q if method is Method.WEIGHTED_MIN_NORM else 0.0
    _, observed = training_samples(problem)
    return solve_weighted_minnorm(flat, weights, q, observed.ravel()).reshape((p,) * d)


class TestFoldAndFft:
    @given(
        d=st.sampled_from([1, 2]),
        n=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=7),
        below=st.booleans(),
        kind=st.sampled_from(list(WeightKind)),
        method=st.sampled_from(list(Method)),
        q=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_flattened_solve(self, d, n, extra, below, kind, method, q, seed):
        # every method at every p: truncated below n, extended above it
        p = max(1, n - extra) if below else n + extra
        y = np.random.default_rng(seed).standard_normal((n,) * d)
        problem = InterpolationProblem(
            dimension=d, n_axis=n, p_axis=p, D_axis=p, q=q, target=y, weight_kind=kind, domain=(-0.5, 1.5)
        )
        fit = fit_interpolant(problem, method)
        oracle = dense_fit(problem, method)
        assert np.linalg.norm(fit.coefficients - oracle) <= 1e-9 * max(1.0, np.linalg.norm(oracle))

    @pytest.mark.parametrize("q", [16.0, 50.0, 200.0, 400.0])
    @pytest.mark.parametrize(
        "dimension, n, p, target", [(1, 15, 1000, "cubic1d"), (2, 10, 41, "cos2d")], ids=["cubic1d", "cos2d"]
    )
    def test_large_q_still_interpolates(self, q, dimension, n, p, target):
        problem = InterpolationProblem(dimension=dimension, n_axis=n, p_axis=p, D_axis=1000, q=q, target=target)
        _, observed = training_samples(problem)
        fit = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        assert fit.residual <= 1e-12 * np.linalg.norm(observed)
        assert np.isfinite(fit.log10_weighted_norm)

    def test_log10_weighted_norm_matches_the_direct_norm(self):
        problem = InterpolationProblem(dimension=2, n_axis=5, p_axis=9, D_axis=12, q=2.0, target="cos2d")
        for method in (Method.WEIGHTED_MIN_NORM, Method.PLAIN_MIN_NORM):
            fit = fit_interpolant(problem, method)
            direct = np.linalg.norm(fit.coefficients / tensor_weights(9, 2, problem.weight_kind) ** 2.0)
            assert fit.weighted_norm == pytest.approx(direct, rel=1e-12)
            assert fit.log10_weighted_norm == pytest.approx(np.log10(direct), rel=1e-12)

    def test_overflowing_weighted_norm_is_inf_with_a_finite_log(self):
        problem = InterpolationProblem(dimension=1, n_axis=15, p_axis=1000, D_axis=1000, q=200.0, target="cubic1d")
        fit = fit_interpolant(problem, Method.PLAIN_MIN_NORM)
        assert fit.weighted_norm == np.inf
        assert 300 < fit.log10_weighted_norm < 1000

    def test_residual_guard(self, monkeypatch):
        real_fit = interpolation._class_fit
        monkeypatch.setattr(interpolation, "_class_fit", lambda *args: real_fit(*args) * (1.0 + 1e-6))
        # from p_axis = n_axis on every class holds a frequency, so every fit must interpolate
        for p in (9, 27):
            problem = InterpolationProblem(dimension=1, n_axis=9, p_axis=p, D_axis=27, q=1.0, target="cubic1d")
            for method in Method:
                with pytest.raises(NumericalInconsistencyError, match=f"^{method.value} fit misses its samples"):
                    fit_interpolant(problem, method)
        # below n no fit interpolates, so none is guarded
        under = InterpolationProblem(dimension=1, n_axis=9, p_axis=5, D_axis=27, q=1.0, target="cubic1d")
        for method in Method:
            assert fit_interpolant(under, method).residual > 1e-3


class TestEvaluateOnGrid:
    @pytest.mark.parametrize("d, p, m", [(1, 7, 20), (1, 20, 20), (1, 30, 7), (1, 1000, 15), (2, 6, 9), (2, 9, 4)])
    def test_matches_the_matrix_route(self, d, p, m):
        rng = np.random.default_rng(p * m + d)
        coefficients = rng.standard_normal((p,) * d) + 1j * rng.standard_normal((p,) * d)
        domain = (-1.0, 2.0)
        axes = [sample_axis(m, domain)] * d
        expected = evaluate_interpolant(coefficients, axes, domain)
        np.testing.assert_allclose(evaluate_on_grid(coefficients, m), expected, rtol=0, atol=1e-11 * p**d)

    def test_fold_sums_and_maxima_per_residue_class(self):
        values = np.arange(1.0, 8.0)  # frequencies 0, 1, 2, 3, -3, -2, -1
        ascending = np.fft.fftshift(values)  # frequencies -3, ..., 3: the fold starts at -3

        def fold(m, reduce=np.add):
            return folded_sums(ascending, m, start=-(len(values) // 2), reduce=reduce)

        np.testing.assert_array_equal(fold(3), [1 + 4 + 5, 2 + 6, 3 + 7])
        np.testing.assert_array_equal(fold(3, np.maximum), [5, 6, 7])
        np.testing.assert_array_equal(fold(9), [1, 2, 3, 4, 0, 0, 5, 6, 7])


class TestEvaluateInterpolant:
    def test_zero_coefficients(self):
        values = evaluate_interpolant(np.zeros(5, dtype=complex), [np.linspace(0, 1, 11)])
        np.testing.assert_array_equal(values, np.zeros(11))

    def test_dc_mode_constant(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[0] = 2.5
        values = evaluate_interpolant(coeffs, [np.linspace(0, 1, 7)])
        np.testing.assert_allclose(values, 2.5, atol=1e-14)

    def test_matches_direct_synthesis(self):
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = np.linspace(-1, 1, 17)
        domain = (-1.0, 2.0)
        values = evaluate_interpolant(coeffs, [x], domain)
        freqs = symmetric_frequencies(6)
        direct = sum(c * np.exp(2j * np.pi * k * (x + 1) / 2) for c, k in zip(coeffs, freqs))
        np.testing.assert_allclose(values, direct, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            evaluate_interpolant(np.zeros((3, 3)), [np.linspace(0, 1, 5)])


def grid_rmse(problem, fit, points_per_axis):
    """RMSE of the fitted series against the named target on the m-point grid of the problem's domain."""
    values = evaluate_on_grid(fit.coefficients, points_per_axis)
    return float(np.sqrt(np.mean(np.abs(values - target_on_grid(problem, points_per_axis)) ** 2)))


class TestRmseOrdering:
    def test_cubic_weighted_beats_plain(self):
        problem = InterpolationProblem(
            dimension=1, n_axis=15, p_axis=1000, D_axis=1000, q=2.0, target="cubic1d"
        )
        weighted = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        plain = fit_interpolant(problem, Method.PLAIN_MIN_NORM)
        assert grid_rmse(problem, weighted, 1001) < grid_rmse(problem, plain, 1001)

    def test_cos2d_weighted_beats_plain_small(self):
        # desk-size variant of the 2-D experiment (full size in acceptance)
        problem = InterpolationProblem(dimension=2, n_axis=7, p_axis=15, D_axis=30, q=2.0, target="cos2d")
        weighted = fit_interpolant(problem, Method.WEIGHTED_MIN_NORM)
        plain = fit_interpolant(problem, Method.PLAIN_MIN_NORM)
        assert grid_rmse(problem, weighted, 40) < grid_rmse(problem, plain, 40)
