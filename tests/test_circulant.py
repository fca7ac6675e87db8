import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourier_minnorm import (
    ConfigurationError,
    build_spectrum,
    classify_grid,
    equispaced_predict,
    gram_eigenvalues,
)
from fourier_minnorm.oracles import fourier_matrix
from fourier_minnorm.circulant import class_weights


def dense_gram(spectrum, grid, u, side):
    """Independent oracle: materialise F diag(t^u) F^* densely."""
    if side == "T":
        f = fourier_matrix(grid.n, 0, grid.p)
        w = spectrum.t[: grid.p] ** u
    else:
        f = fourier_matrix(grid.n, grid.p, grid.D)
        w = spectrum.t[grid.p :] ** u
    return (f * w[None, :]) @ f.conj().T


class TestFeatureMatrix:
    def test_two_point_dft(self):
        np.testing.assert_allclose(fourier_matrix(2, 0, 2), [[1, 1], [1, -1]], atol=1e-15)

    def test_row_orthogonality_aligned(self):
        # explicit 2x4 product; oracle for the p = l*n identity F F^* = p I
        f = fourier_matrix(2, 0, 4)
        np.testing.assert_allclose(f @ f.conj().T, 4 * np.eye(2), atol=1e-10)

    def test_dft3_row_norms(self):
        f = fourier_matrix(3, 0, 3)
        gram = f @ f.conj().T
        np.testing.assert_allclose(gram, 3 * np.eye(3), atol=1e-10)

    def test_unit_modulus(self):
        f = fourier_matrix(4, 2, 9)
        assert f.shape == (4, 7)
        np.testing.assert_allclose(np.abs(f), 1.0, atol=1e-12)


class TestGramEigenvalues:
    def test_u0_gives_p(self):
        s = build_spectrum(8, 1.0)
        g = classify_grid(8, 2, 4)
        np.testing.assert_allclose(gram_eigenvalues(s, g, 0.0, "T"), [4.0, 4.0], atol=1e-12)

    def test_t_side_example(self):
        s = build_spectrum(4, 1.0)
        g = classify_grid(4, 2, 2)
        np.testing.assert_allclose(gram_eigenvalues(s, g, 2.0, "T"), [2.0, 0.5], rtol=1e-15)

    def test_tc_side_example(self):
        s = build_spectrum(4, 1.0)
        g = classify_grid(4, 2, 2)
        np.testing.assert_allclose(gram_eigenvalues(s, g, 2.0, "Tc"), [2 / 9, 1 / 8], rtol=1e-14)

    @pytest.mark.parametrize("D,n,p,q,r", [(8, 2, 4, 1.0, 1.0), (16, 4, 8, 0.5, 0.3), (24, 4, 8, 2.0, 1.5)])
    @pytest.mark.parametrize("side", ["T", "Tc"])
    def test_matches_dense_eigendecomposition(self, D, n, p, q, r, side):
        s = build_spectrum(D, r)
        g = classify_grid(D, n, p)
        for u in (0.0, 2 * q, 4 * q, 2 * q + 2 * r):
            fast = gram_eigenvalues(s, g, u, side)
            dense = np.linalg.eigvalsh(dense_gram(s, g, u, side))
            np.testing.assert_allclose(np.sort(fast), np.sort(dense), rtol=1e-9, atol=1e-12)

    def test_positional_order_vs_fft_of_first_column(self):
        # fft(col 0) carries the aliased sums at reversed indices under the
        # exp(-2*pi*i*j*k/n) convention
        s = build_spectrum(12, 0.7)
        g = classify_grid(12, 3, 6)
        dense = dense_gram(s, g, 1.4, "T")
        eig_fft = np.fft.fft(dense[:, 0])
        assert np.max(np.abs(eig_fft.imag)) < 1e-10
        lam = gram_eigenvalues(s, g, 1.4, "T")
        np.testing.assert_allclose(lam[(-np.arange(3)) % 3], eig_fft.real, rtol=1e-10)

    def test_hermitian_positive(self):
        s = build_spectrum(16, 1.0)
        g = classify_grid(16, 4, 8)
        a = dense_gram(s, g, 2.0, "T")
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        assert np.all(gram_eigenvalues(s, g, 2.0, "T") > 0)

    def test_tc_side_places_class_m_at_offset_p_mod_n(self):
        # D = 10, n = 4, p = 5: the complement k = 5..9 lies in classes 1, 2, 3, 0, 1
        s = build_spectrum(10, 1.0)
        t2 = s.t**2
        expected = 4 * np.array([t2[8], t2[5] + t2[9], t2[6], t2[7]])
        np.testing.assert_allclose(gram_eigenvalues(s, classify_grid(10, 4, 5), 2.0, "Tc"), expected, rtol=1e-15)

    @given(
        D=st.integers(min_value=1, max_value=40),
        data=st.data(),
        u=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        side=st.sampled_from(["T", "Tc"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_grid_matches_dense_gram_entrywise(self, D, data, u, side):
        # n | D or not, any p: eigenvalue m is f_m^* G f_m / n for the DFT vector f_m
        n = data.draw(st.integers(min_value=1, max_value=D))
        p = data.draw(st.integers(min_value=1, max_value=D))
        s = build_spectrum(D, 1.0)
        g = classify_grid(D, n, p)
        dft = fourier_matrix(n, 0, n)
        dense = np.einsum("jm,jk,km->m", dft.conj(), dense_gram(s, g, u, side), dft).real / n
        np.testing.assert_allclose(gram_eigenvalues(s, g, u, side), dense, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("u", [-1.0, math.nan, math.inf])
    def test_rejects_bad_exponent(self, u):
        with pytest.raises(ConfigurationError, match="weight exponent u must be finite and >= 0"):
            gram_eigenvalues(build_spectrum(8, 1.0), classify_grid(8, 2, 4), u, "T")


class TestEquispacedPredict:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        n = 4
        dense = fourier_matrix(n, 0, 13) @ theta
        np.testing.assert_allclose(equispaced_predict(theta, n), dense, atol=1e-12)


class TestClassWeights:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_occupied_class_has_leader_one_and_sum_at_least_one(self, data):
        d = data.draw(st.integers(1, 2), label="d")
        n = data.draw(st.integers(1, 7), label="n")
        size = data.draw(st.integers(1, 3 * n + 1), label="size")
        start = data.draw(st.integers(-20, 20), label="start")
        q = data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 40.0]), label="q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        weights = rng.uniform(0.01, 1.0, (size,) * d)
        s, lam, classes = class_weights(weights, n, q, start)
        assert s.shape == lam[classes].shape == weights.shape and lam.shape == (n,) * d
        # per-class loop over every entry, its class read from its frequency start + i per axis
        members: dict[tuple, list] = {}
        for index in np.ndindex(*weights.shape):
            members.setdefault(tuple((start + i) % n for i in index), []).append(index)
        for cls in np.ndindex(*lam.shape):
            if cls not in members:
                assert lam[cls] == 0.0
                continue
            in_class = [s[index] for index in members[cls]]
            assert max(in_class) == 1.0
            assert lam[cls] >= 1.0
            np.testing.assert_allclose(lam[cls], math.fsum(in_class), rtol=1e-13)
            assert all(lam[classes][index] == lam[cls] for index in members[cls])
