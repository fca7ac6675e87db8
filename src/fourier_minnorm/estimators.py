"""Min-norm and least-squares estimators for equispaced Fourier regression.

Overparameterized (p >= n): the weighted min-norm estimator

    theta_T = S^(2q) F_T^* (F_T S^(2q) F_T^*)^(-1) y,   S = diag(t_T),

is the minimiser of ||S^(-q) theta|| among interpolants with support in T.
By the aliasing fact (see ``circulant``) the samples fix exactly the class
sums c = ifft(y), and the fit is theta_k = s_k c[k mod n] / Lambda[k mod n]
with the class weights of ``circulant.class_weights``: one inverse FFT of y
and one broadcast (O(n log n + p)) for every p >= n.
``solve_weighted_minnorm``, the SVD pseudoinverse of F_T S^q, is the dense
oracle this is tested against.

Underparameterized (p <= n): least squares; the equispaced geometry gives
F_T^* F_T = n I, so the normal equations collapse to theta_T = c[:p],
independent of any weighting exponent: the same formula with s = Lambda = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import class_weights, equispaced_predict, fourier_matrix
from .errors import ConfigurationError, RegimeError
from .model import GridConfig, Spectrum, check_finite_nonnegative


@dataclass(frozen=True)
class EstimatorResult:
    """Fitted coefficients (zero outside T), the weighting exponent used and the sample residual."""

    theta_hat: np.ndarray = field(repr=False)  # (D,) complex
    q_used: float
    residual: float  # ||F_T theta_T - y||_2


def solve_weighted_minnorm(features: np.ndarray, weights: np.ndarray, q: float, y: np.ndarray) -> np.ndarray:
    """Minimise ||diag(weights)^(-q) theta|| subject to features @ theta = y.

    Solved through the SVD pseudoinverse of the column-scaled system (lstsq),
    never by explicit Gram inversion.  Also usable with p <= n, where it
    returns the unique least-squares solution instead.  The dense oracle of
    ``weighted_minnorm``.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ConfigurationError("weights must be strictly positive")
    wq = weights ** q if q != 0.0 else np.ones_like(weights)
    beta, *_ = np.linalg.lstsq(features * wq[None, :], np.asarray(y, dtype=complex), rcond=None)
    return wq * beta


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
    return EstimatorResult(theta_hat=theta, q_used=float(q), residual=residual)


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
    return EstimatorResult(theta_hat=theta, q_used=0.0, residual=residual)


def minnorm_kkt_check(result: EstimatorResult, grid: GridConfig, spectrum: Spectrum, q: float) -> float:
    """Stationarity certificate for an overparameterized min-norm fit.

    Returns the norm of the component of S^(-2q) theta_T orthogonal to the
    row space of F_T; it vanishes exactly at the weighted-norm minimiser.
    """
    if grid.p < grid.n:
        raise RegimeError("certificate applies to overparameterized fits only")
    p = grid.p
    gradient = (spectrum.t[:p] ** (-2.0 * q)) * result.theta_hat[:p]
    basis = fourier_matrix(grid.n, 0, p).conj().T  # columns span row space of F_T
    coef, *_ = np.linalg.lstsq(basis, gradient, rcond=None)
    return float(np.linalg.norm(gradient - basis @ coef))
