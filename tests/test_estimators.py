import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    NumericalInconsistencyError,
    RegimeError,
    build_spectrum,
    classify_grid,
    weighted_minnorm,
)
from fourier_minnorm.oracles import fourier_matrix, minnorm_kkt_check, solve_weighted_minnorm
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
    """p <= n: weighted_minnorm is the least-squares fit, whatever q."""

    def test_square_interpolates(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 4)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for q in (0.0, 1.0, 40.0):
            assert weighted_minnorm(y, s, g, q).residual <= 1e-12

    def test_dc_coefficient_of_constant(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 1)
        for q in (0.0, 1.0, 40.0):
            fit = weighted_minnorm(np.full(4, 2.5 + 0j), s, g, q)
            assert fit.theta_hat[0] == pytest.approx(2.5)
            assert np.all(fit.theta_hat[1:] == 0)

    def test_matches_dense_qr(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 2)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = fourier_matrix(4, 0, 2)
        qmat, rmat = np.linalg.qr(f)
        oracle = np.linalg.solve(rmat, qmat.conj().T @ y)
        for q in (0.0, 1.0, 40.0):
            np.testing.assert_allclose(weighted_minnorm(y, s, g, q).theta_hat[:2], oracle, atol=1e-10)


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

        perturbed = EstimatorResult(theta_hat=theta, residual=fit.residual)
        assert minnorm_kkt_check(perturbed, g, s, q) > 1e-4

    def test_rejects_under_regime(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 4, 2)
        fit = weighted_minnorm(np.zeros(4, dtype=complex), s, g, 0.0)
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
    got = _minnorm_fit(c, kernel, out=out)
    assert got is out
    assert np.array_equal(out, _minnorm_fit(c, kernel))
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
    # itself: the fit at p = n, least squares, bit for bit.
    n = data.draw(st.integers(min_value=1, max_value=D - 1))
    p = data.draw(st.integers(min_value=n + 1, max_value=D))
    q = 40.0
    s = build_spectrum(D, 1.0)
    k = np.arange(n, p)
    assert np.all((s.t[k] / s.t[k % n]) ** (2 * q) < 2.0**-60)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fit = weighted_minnorm(y, s, classify_grid(D, n, p), q)
    square = weighted_minnorm(y, s, classify_grid(D, n, n), q)
    assert np.array_equal(fit.theta_hat[:n], square.theta_hat[:n])


@st.composite
def any_fits(draw):
    """(D, n, p) with D <= 64, n dividing D or not, and any 1 <= p <= D."""
    D = draw(st.integers(min_value=1, max_value=64))
    divisors = [k for k in range(1, D + 1) if D % k == 0]
    n = draw(st.one_of(st.sampled_from(divisors), st.integers(min_value=1, max_value=D)))
    p = draw(st.integers(min_value=1, max_value=D))
    return classify_grid(D, n, p)


@given(grid=any_fits(), q=st.sampled_from([0.0, 0.5, 1.0, 40.0, 1e308]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_one_fit_for_every_p(grid, q, seed):
    # The constraints fix only the class sums and the weighted norm adds up
    # class by class, so scaling each class's weights by its leader t_{k mod n}
    # keeps the minimiser; it keeps the dense solve well conditioned at any q.
    D, n, p = grid.D, grid.n, grid.p
    s = build_spectrum(D, 1.0)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = weighted_minnorm(y, s, grid, q)
    scaled = s.t[:p] / s.t[np.arange(p) % n]
    dense = solve_weighted_minnorm(fourier_matrix(n, 0, p), scaled, q, y)
    assert np.linalg.norm(fit.theta_hat[:p] - dense) <= 1e-10 * np.linalg.norm(dense)
    assert np.all(fit.theta_hat[p:] == 0)
    if p <= n:
        assert fit.theta_hat[:p].tobytes() == np.fft.ifft(y)[:p].tobytes()
    else:
        assert fit.residual <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("D, n, q", [(64, 8, 40.0), (64, 40, 40.0), (16, 3, 40.0), (64, 8, 1e308)])
def test_dense_oracle_refuses_a_cut_solve(D, n, q):
    # Plain weights t^q span more than lstsq's cut here, so the scaled system
    # loses rank; its truncated solve (relative error 8.6 at D = 64, n = 8,
    # q = 40) must raise rather than pass for a reference.
    t = build_spectrum(D, 1.0).t
    y = np.random.default_rng(D + n).standard_normal(n)
    for p in (n, n + 1, D):
        with pytest.raises(NumericalInconsistencyError, match="a truncated solve"):
            solve_weighted_minnorm(fourier_matrix(n, 0, p), t[:p], q, y)
    # each weight divided by its class leader: the same minimiser at full rank
    leader_scaled = t / t[np.arange(D) % n]
    dense = solve_weighted_minnorm(fourier_matrix(n, 0, D), leader_scaled, q, y)
    fit = weighted_minnorm(y, build_spectrum(D, 1.0), classify_grid(D, n, D), q)
    assert np.linalg.norm(fit.theta_hat - dense) <= 1e-10 * np.linalg.norm(dense)
