import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    RegimeError,
    build_spectrum,
    classify_grid,
    fourier_matrix,
    least_squares,
    minnorm_kkt_check,
    solve_weighted_minnorm,
    weighted_minnorm,
)
from fourier_minnorm.estimators import _minnorm_fit, _minnorm_kernel


def dense_minnorm(y, spectrum, grid, q):
    """Oracle: the SVD least-squares solve of the column-scaled system, zero past p."""
    theta = np.zeros(grid.D, dtype=complex)
    theta[: grid.p] = solve_weighted_minnorm(fourier_matrix(grid.n, 0, grid.p), spectrum.t[: grid.p], q, y)
    return theta


def dense_pinv_minnorm(y, spectrum, grid, q):
    """Oracle: theta_T = S^q pinv(F_T S^q) y via an explicit pseudoinverse."""
    f = fourier_matrix(grid.n, 0, grid.p)
    wq = spectrum.t[: grid.p] ** q
    return wq * (np.linalg.pinv(f * wq[None, :]) @ y)


def nullspace_perturbation(grid, rng):
    """Random vector with F_T delta = 0."""
    f = fourier_matrix(grid.n, 0, grid.p)
    g = rng.standard_normal(grid.p) + 1j * rng.standard_normal(grid.p)
    correction, *_ = np.linalg.lstsq(f, f @ g, rcond=None)
    return g - correction


@st.composite
def misaligned_grids(draw):
    """(D, n, p) with p >= n where n does not divide D or p."""
    D = draw(st.integers(min_value=3, max_value=64))
    n = draw(st.integers(min_value=2, max_value=D - 1))
    p = draw(st.integers(min_value=n, max_value=D))
    assume(D % n or p % n)
    return classify_grid(D, n, p)


class TestWeightedMinnorm:
    def test_square_system_recovers_inverse(self):
        # p = n: the constraint pins theta uniquely, independent of q
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 4)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        expected = np.linalg.solve(fourier_matrix(4, 0, 4), y)
        for q in (0.0, 0.7, 2.0):
            fit = weighted_minnorm(y, s, g, q)
            np.testing.assert_allclose(fit.theta_hat[:4], expected, atol=1e-12)

    def test_exact_recovery_when_n_equals_p_equals_d(self):
        s = build_spectrum(8, 0.5)
        g = classify_grid(8, 8, 8)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = fourier_matrix(8, 0, 8) @ theta
        fit = weighted_minnorm(y, s, g, 1.0)
        np.testing.assert_allclose(fit.theta_hat, theta, atol=1e-12)

    def test_rowspace_target_recovered_at_q0(self):
        # min-norm pre-image of a consistent system is the row-space solution
        s = build_spectrum(12, 1.0)
        g = classify_grid(12, 3, 6)
        rng = np.random.default_rng(2)
        f = fourier_matrix(3, 0, 6)
        theta_T = f.conj().T @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        fit = weighted_minnorm(f @ theta_T, s, g, 0.0)
        np.testing.assert_allclose(fit.theta_hat[:6], theta_T, atol=1e-10)

    def test_paths_agree_d8(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 2, 4)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fast = weighted_minnorm(y, s, g, 1.0)
        dense = dense_minnorm(y, s, g, 1.0)
        assert np.linalg.norm(fast.theta_hat - dense) <= 1e-8 * np.linalg.norm(dense)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("D,n,p", [(8, 2, 4), (16, 4, 8), (32, 4, 16), (24, 3, 12)])
    def test_path_equivalence_grid(self, D, n, p, q):
        s = build_spectrum(D, 1.0)
        g = classify_grid(D, n, p)
        rng = np.random.default_rng(hash((D, n, p, q)) % 2**32)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = weighted_minnorm(y, s, g, q)
        dense = dense_minnorm(y, s, g, q)
        assert np.linalg.norm(fast.theta_hat - dense) <= 1e-8 * np.linalg.norm(dense)
        np.testing.assert_allclose(fast.theta_hat[:p], dense_pinv_minnorm(y, s, g, q), atol=1e-8)

    def test_interpolation_constraint(self):
        s = build_spectrum(16, 0.3)
        g = classify_grid(16, 4, 8)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for q in (0.0, 1.0, 2.0):
            fit = weighted_minnorm(y, s, g, q)
            assert fit.residual <= 1e-8 * max(1.0, np.linalg.norm(y))
            assert np.all(fit.theta_hat[8:] == 0)

    def test_norm_minimality_under_nullspace_perturbations(self):
        s = build_spectrum(16, 1.0)
        g = classify_grid(16, 4, 8)
        q = 1.5
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        theta = weighted_minnorm(y, s, g, q).theta_hat[:8]
        w_inv = s.t[:8] ** (-q)
        base = np.linalg.norm(w_inv * theta)
        for _ in range(100):
            delta = nullspace_perturbation(g, rng)
            assert np.linalg.norm(w_inv * (theta + delta)) >= base - 1e-10

    @given(
        alpha_re=st.floats(min_value=-3, max_value=3, allow_nan=False),
        alpha_im=st.floats(min_value=-3, max_value=3, allow_nan=False),
        q=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_equivariance(self, alpha_re, alpha_im, q):
        s = build_spectrum(12, 1.0)
        g = classify_grid(12, 3, 6)
        rng = np.random.default_rng(99)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = alpha_re + 1j * alpha_im
        base = weighted_minnorm(y, s, g, q).theta_hat
        scaled = weighted_minnorm(alpha * y, s, g, q).theta_hat
        np.testing.assert_allclose(scaled, alpha * base, atol=1e-10)

    def test_wrong_regime_rejected(self):
        s = build_spectrum(8, 1.0)
        with pytest.raises(RegimeError):
            weighted_minnorm(np.zeros(4), s, classify_grid(8, 4, 2), 1.0)

    def test_circulant_path_works_on_general_grid(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 3, 5)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fast = weighted_minnorm(y, s, g, 1.0)
        dense = dense_minnorm(y, s, g, 1.0)
        assert np.linalg.norm(fast.theta_hat - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_general_grid_defaults_to_circulant_path(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 3, 5)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fit = weighted_minnorm(y, s, g, 1.0)
        assert fit.residual <= 1e-8 * max(1.0, np.linalg.norm(y))

    @given(grid=misaligned_grids(), q=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_default_path_matches_dense_on_misaligned_grids(self, grid, q, seed):
        s = build_spectrum(grid.D, 1.0)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        fit = weighted_minnorm(y, s, grid, q)
        dense = dense_minnorm(y, s, grid, q)
        assert np.linalg.norm(fit.theta_hat - dense) <= 1e-10 * np.linalg.norm(dense)
        assert fit.residual <= 1e-10 * np.linalg.norm(y)
        assert np.all(fit.theta_hat[grid.p :] == 0)


class TestLeastSquares:
    def test_square_interpolates(self):
        g = classify_grid(8, 4, 4)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fit = least_squares(y, g)
        assert fit.residual <= 1e-12

    def test_dc_coefficient_of_constant(self):
        g = classify_grid(8, 4, 1)
        fit = least_squares(np.full(4, 2.5 + 0j), g)
        assert fit.theta_hat[0] == pytest.approx(2.5)
        assert np.all(fit.theta_hat[1:] == 0)

    def test_matches_dense_qr(self):
        g = classify_grid(8, 4, 2)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fit = least_squares(y, g)
        f = fourier_matrix(4, 0, 2)
        qmat, rmat = np.linalg.qr(f)
        oracle = np.linalg.solve(rmat, qmat.conj().T @ y)
        np.testing.assert_allclose(fit.theta_hat[:2], oracle, atol=1e-10)

    def test_wrong_regime_rejected(self):
        with pytest.raises(RegimeError):
            least_squares(np.zeros(2), classify_grid(8, 2, 4))


class TestKktCheck:
    def test_certificate_small_for_minnorm(self):
        s = build_spectrum(16, 1.0)
        g = classify_grid(16, 4, 8)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for q in (0.0, 1.0, 2.0):
            fit = weighted_minnorm(y, s, g, q)
            gradient_norm = np.linalg.norm(s.t[:8] ** (-2 * q) * fit.theta_hat[:8])
            assert minnorm_kkt_check(fit, g, s, q) <= 1e-8 * gradient_norm

    def test_perturbed_solution_fails_certificate(self):
        s = build_spectrum(16, 1.0)
        g = classify_grid(16, 4, 8)
        q = 1.0
        rng = np.random.default_rng(10)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fit = weighted_minnorm(y, s, g, q)
        theta = fit.theta_hat.copy()
        theta[:8] += 0.1 * nullspace_perturbation(g, rng)
        from fourier_minnorm.estimators import EstimatorResult

        perturbed = EstimatorResult(theta_hat=theta, q_used=q, residual=fit.residual)
        assert minnorm_kkt_check(perturbed, g, s, q) > 1e-4

    def test_rejects_under_regime(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 2)
        fit = least_squares(np.zeros(4, dtype=complex), g)
        with pytest.raises(RegimeError):
            minnorm_kkt_check(fit, g, s, 0.0)


def test_invalid_q_rejected():
    s = build_spectrum(8, 1.0)
    with pytest.raises(ConfigurationError):
        weighted_minnorm(np.zeros(2), s, classify_grid(8, 2, 4), -1.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_non_finite_q_rejected(q):
    s = build_spectrum(8, 1.0)
    with pytest.raises(ConfigurationError, match="weighting exponent q must be finite and >= 0"):
        weighted_minnorm(np.zeros(2), s, classify_grid(8, 2, 4), q)


@pytest.mark.parametrize("n, p", [(8, 8), (8, 32), (8, 20), (5, 23)])
def test_circulant_minnorm_out_buffer_is_bit_identical(n, p):
    # the fit lands in a strided window of a wider buffer, as in a Monte
    # Carlo block, and matches the freshly allocated result bit for bit
    rng = np.random.default_rng(n * p)
    c = np.fft.ifft(rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    kernel = _minnorm_kernel(build_spectrum(64, 1.0).t[:p], n, 1.5)
    buffer = np.full((4, 64), np.nan, dtype=complex)
    out = buffer[:3, :p]
    got = _minnorm_fit(c, kernel, p, out=out)
    assert got is out
    assert np.array_equal(out, _minnorm_fit(c, kernel, p))
    assert np.isnan(buffer[:3, p:]).all() and np.isnan(buffer[3]).all()


@given(
    D=st.integers(min_value=2, max_value=64),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_large_q_fit_is_least_squares_bit_for_bit(D, data, seed):
    # Every non-leader weight (t_k / t_{k mod n})^(2q) is at most 2^(-2q)
    # (k >= k mod n + n gives a ratio <= 1/2), so at q = 40 each class sum
    # Lambda rounds to 1 and the fit's first n coefficients are c = ifft(y)
    # itself: the least-squares fit at p = n, bit for bit.
    n = data.draw(st.integers(min_value=1, max_value=D - 1))
    p = data.draw(st.integers(min_value=n + 1, max_value=D))
    q = 40.0
    s = build_spectrum(D, 1.0)
    k = np.arange(n, p)
    assert np.all((s.t[k] / s.t[k % n]) ** (2 * q) < 2.0**-60)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fit = weighted_minnorm(y, s, classify_grid(D, n, p), q)
    ls = least_squares(y, classify_grid(D, n, n))
    assert np.array_equal(fit.theta_hat[:n], ls.theta_hat[:n])
