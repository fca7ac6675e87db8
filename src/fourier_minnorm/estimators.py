"""Min-norm and least-squares estimators for equispaced Fourier regression.

Overparameterized (p >= n): the weighted min-norm estimator

    theta_T = S^(2q) F_T^* (F_T S^(2q) F_T^*)^(-1) y,   S = diag(t_T),

is the minimiser of ||S^(-q) theta|| among interpolants with support in T.
By the aliasing fact (see ``circulant``) the samples fix exactly the class
sums c = ifft(y), and the fit is theta_k = s_k c[k mod n] / Lambda[k mod n]
with the class weights of ``circulant.class_weights``: one inverse FFT of y
and one broadcast (O(n log n + p)) for every p >= n.

Underparameterized (p <= n): least squares; the equispaced geometry gives
F_T^* F_T = n I, so the normal equations collapse to theta_T = c[:p],
independent of any weighting exponent: the same formula with s = Lambda = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import class_weights, equispaced_predict
from .errors import ConfigurationError, RegimeError
from .model import GridConfig, Spectrum, check_finite_nonnegative


@dataclass(frozen=True)
class EstimatorResult:
    """Fitted coefficients (zero outside T) and the sample residual."""

    theta_hat: np.ndarray = field(repr=False)  # (D,) complex
    residual: float  # ||F_T theta_T - y||_2


def _minnorm_kernel(t_T: np.ndarray, n: int, q: float) -> np.ndarray:
    """s_k / Lambda[k mod n] for every feature k < p, in blocks of n features.

    s and Lambda are ``class_weights`` of t_T: the leader of class m < n is
    t_m, so s_k = (t_k / t_{k mod n})^(2q).  Returns (ceil(p/n), n),
    zero-padded past p.
    """
    p = len(t_T)
    s, lam, _ = class_weights(t_T, n, q)
    kernel = np.zeros((-(-p // n), n))
    kernel.reshape(-1)[:p] = s
    kernel /= lam
    return kernel


def _minnorm_fit(c: np.ndarray, kernel: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """theta_T = kernel[k] * c[k mod n] from c = ifft(y), batched over leading axes.

    Takes (..., n) class sums and the blocked kernel of ``_minnorm_kernel``
    and returns (..., p) coefficients, written into ``out`` when given (its
    last axis must be contiguous, so whole blocks of n reshape as a view);
    each row comes out bit for bit as it would alone.
    """
    n = kernel.shape[1]
    if out is None:
        out = np.empty((*c.shape[:-1], p), dtype=complex)
    # c repeats in every block of n features: whole blocks, then the partial one
    full, rest = divmod(p, n)
    np.multiply(kernel[:full], c[..., None, :], out=out[..., : full * n].reshape(*c.shape[:-1], full, n))
    if rest:
        np.multiply(kernel[full, :rest], c[..., :rest], out=out[..., full * n :])
    return out


def weighted_minnorm(y: np.ndarray, spectrum: Spectrum, grid: GridConfig, q: float) -> EstimatorResult:
    """Fit the (weighted for q > 0, plain for q = 0) min-norm interpolator."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (grid.n,):
        raise ConfigurationError(f"y has shape {y.shape}, expected ({grid.n},)")
    check_finite_nonnegative(q, "weighting exponent q")
    if grid.p < grid.n:
        raise RegimeError(f"min-norm estimation needs p >= n, got p={grid.p}, n={grid.n}")
    n, p = grid.n, grid.p
    theta_T = _minnorm_fit(np.fft.ifft(y), _minnorm_kernel(spectrum.t[:p], n, q), p)
    theta = np.zeros(grid.D, dtype=complex)
    theta[:p] = theta_T
    residual = float(np.linalg.norm(equispaced_predict(theta_T, n) - y))
    return EstimatorResult(theta_hat=theta, residual=residual)


def least_squares(y: np.ndarray, grid: GridConfig) -> EstimatorResult:
    """Least-squares fit for p <= n; the weighting exponent has no effect here."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (grid.n,):
        raise ConfigurationError(f"y has shape {y.shape}, expected ({grid.n},)")
    if grid.p > grid.n:
        raise RegimeError(f"least squares needs p <= n, got p={grid.p}, n={grid.n}")
    theta_T = np.fft.ifft(y)[: grid.p]
    theta = np.zeros(grid.D, dtype=complex)
    theta[: grid.p] = theta_T
    residual = float(np.linalg.norm(equispaced_predict(theta_T, grid.n) - y))
    return EstimatorResult(theta_hat=theta, residual=residual)
