"""The weighted min-norm estimator for equispaced Fourier regression, every p.

The fit is the minimiser of ||S^(-q) theta||, S = diag(t_T), among the
coefficients with support in T = [0, p) that fit the samples best.  By the
aliasing fact (see ``circulant``) the samples fix exactly the class sums
c = ifft(y), and the fit is theta_k = s_k c[k mod n] / Lambda[k mod n] with
the class weights of ``circulant.class_weights``: one inverse FFT of y and
one broadcast (O(n log n + p)) for every p.

For p > n this is the interpolator S^(2q) F_T^* (F_T S^(2q) F_T^*)^(-1) y.
For p <= n every class holds at most one feature, so s = Lambda = 1 and
the fit is least squares, theta_T = c[:p], whatever q: the equispaced
geometry gives F_T^* F_T = n I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import class_weights, equispaced_predict
from .errors import ConfigurationError
from .model import GridConfig, Spectrum, check_finite_nonnegative


@dataclass(frozen=True)
class EstimatorResult:
    """Fitted coefficients (zero outside T) and the sample residual."""

    theta_hat: np.ndarray = field(repr=False)  # (D,) complex
    residual: float  # ||F_T theta_T - y||_2


def _minnorm_kernel(t_T: np.ndarray, n: int, q: float) -> np.ndarray:
    """s_k / Lambda[k mod n] for every feature k < p, from ``class_weights`` of t_T.

    The leader of class m < n is t_m, so s_k = (t_k / t_{k mod n})^(2q).
    At p <= n each class holds its leader alone, and the kernel is all 1.
    """
    s, lam, classes = class_weights(t_T, n, q)
    return s / lam[classes]


def _minnorm_fit(c: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """theta_T = kernel[k] * c[k mod n] from c = ifft(y), batched over leading axes.

    Takes (..., n) class sums and the length-p kernel of ``_minnorm_kernel``
    and returns (..., p) coefficients, written into ``out`` when given (its
    last axis must be contiguous, so whole blocks of n reshape as a view);
    each row comes out bit for bit as it would alone.
    """
    n, p = c.shape[-1], len(kernel)
    if out is None:
        out = np.empty((*c.shape[:-1], p), dtype=complex)
    # c repeats in every block of n features: whole blocks, then the partial one
    full, rest = divmod(p, n)
    whole = full * n
    np.multiply(kernel[:whole].reshape(full, n), c[..., None, :], out=out[..., :whole].reshape(*c.shape[:-1], full, n))
    if rest:
        np.multiply(kernel[whole:], c[..., :rest], out=out[..., whole:])
    return out


def weighted_minnorm(y: np.ndarray, spectrum: Spectrum, grid: GridConfig, q: float) -> EstimatorResult:
    """Fit the (weighted for q > 0, plain for q = 0) min-norm estimator; least squares at p <= n."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (grid.n,):
        raise ConfigurationError(f"y has shape {y.shape}, expected ({grid.n},)")
    check_finite_nonnegative(q, "weighting exponent q")
    n, p = grid.n, grid.p
    theta_T = _minnorm_fit(np.fft.ifft(y), _minnorm_kernel(spectrum.t[:p], n, q))
    theta = np.zeros(grid.D, dtype=complex)
    theta[:p] = theta_T
    residual = float(np.linalg.norm(equispaced_predict(theta_T, n) - y))
    return EstimatorResult(theta_hat=theta, residual=residual)
