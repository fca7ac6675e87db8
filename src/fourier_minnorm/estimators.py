"""Min-norm and least-squares estimators for equispaced Fourier regression.

Overparameterized (p >= n): the weighted min-norm estimator

    theta_T = S^(2q) F_T^* (F_T S^(2q) F_T^*)^(-1) y,   S = diag(t_T),

is the minimiser of ||S^(-q) theta|| among interpolants with support in T.
Features on n equispaced points alias modulo n for any column window, so
the Gram matrix F_T S^(2q) F_T^* is circulant for every p >= n and the fit
is a fold followed by length-n FFTs (O(n log n + p)), the default path.  The
SVD pseudoinverse of F_T S^q stays as an explicit ``path=`` choice and the
oracle it is tested against.

Underparameterized (p <= n): least squares; the equispaced geometry gives
F_T^* F_T = n I, so the normal equations collapse to theta_T = F_T^* y / n,
independent of any weighting exponent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .circulant import equispaced_predict, fourier_matrix
from .errors import ConfigurationError, RegimeError
from .model import GridConfig, Spectrum, check_finite_nonnegative


class SolverPath(enum.Enum):
    DENSE_SVD = "dense_svd"
    CIRCULANT_FFT = "circulant_fft"
    NORMAL_EQUATIONS = "normal_equations"


@dataclass(frozen=True)
class EstimatorResult:
    """Fitted coefficients (zero outside T) plus solve-path metadata."""

    theta_hat: np.ndarray = field(repr=False)  # (D,) complex
    q_used: float
    path: SolverPath
    residual: float  # ||F_T theta_T - y||_2


def solve_weighted_minnorm(features: np.ndarray, weights: np.ndarray, q: float, y: np.ndarray) -> np.ndarray:
    """Minimise ||diag(weights)^(-q) theta|| subject to features @ theta = y.

    Solved through the SVD pseudoinverse of the column-scaled system (lstsq),
    never by explicit Gram inversion.  Also usable with p <= n, where it
    returns the unique least-squares solution instead.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ConfigurationError("weights must be strictly positive")
    wq = weights ** q if q != 0.0 else np.ones_like(weights)
    beta, *_ = np.linalg.lstsq(features * wq[None, :], np.asarray(y, dtype=complex), rcond=None)
    return wq * beta


def _class_weights(t_T: np.ndarray, n: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights and Gram eigenvalues of the circulant solve for any p >= n.

    The weight of feature k is (t_k / t_{k mod n})^(2q): t^(2q) with each
    residue class scaled by its leading term.  The min-norm fit is invariant
    under per-class scaling, and every class sum stays >= 1, so no class
    underflows to zero however large q is.  The weights come in blocks of n
    features, (ceil(p/n), n), zero-padded past p.
    """
    p = len(t_T)
    weights = np.zeros((-(-p // n), n))
    weights.reshape(-1)[:p] = np.power(t_T / t_T[np.arange(p) % n], 2.0 * q)
    # fft(first column of the Gram) carries the aliased sums in
    # index-reversed order under the exp(-2*pi*i*j*k/n) convention
    lam = n * weights.sum(axis=0)[(-np.arange(n)) % n]
    return weights, lam


def _circulant_minnorm(
    y_fft: np.ndarray, weights: np.ndarray, lam: np.ndarray, p: int, out: np.ndarray | None = None
) -> np.ndarray:
    """theta_T of the min-norm fit from fft(y), batched over leading axes.

    Takes (..., n) transforms and the blocked weights of ``_class_weights``
    and returns (..., p) coefficients, written into ``out`` when given (its
    last axis must be contiguous, so whole blocks of n reshape as a view);
    each row comes out bit for bit as it would alone.
    """
    n = len(lam)
    z = np.fft.ifft(y_fft / lam)
    v = n * np.fft.ifft(z)
    if out is None:
        out = np.empty((*v.shape[:-1], p), dtype=complex)
    # v repeats in every block of n features: whole blocks, then the partial one
    full, rest = divmod(p, n)
    np.multiply(weights[:full], v[..., None, :], out=out[..., : full * n].reshape(*v.shape[:-1], full, n))
    if rest:
        np.multiply(weights[full, :rest], v[..., :rest], out=out[..., full * n :])
    return out


def weighted_minnorm(
    y: np.ndarray,
    spectrum: Spectrum,
    grid: GridConfig,
    q: float,
    path: SolverPath = SolverPath.CIRCULANT_FFT,
) -> EstimatorResult:
    """Fit the (weighted for q > 0, plain for q = 0) min-norm interpolator."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (grid.n,):
        raise ConfigurationError(f"y has shape {y.shape}, expected ({grid.n},)")
    check_finite_nonnegative(q, "weighting exponent q")
    if grid.p < grid.n:
        raise RegimeError(f"min-norm estimation needs p >= n, got p={grid.p}, n={grid.n}")
    n, p = grid.n, grid.p
    t_T = spectrum.t[:p]

    if path is SolverPath.CIRCULANT_FFT:
        theta_T = _circulant_minnorm(np.fft.fft(y), *_class_weights(t_T, n, q), p)
    elif path is SolverPath.DENSE_SVD:
        theta_T = solve_weighted_minnorm(fourier_matrix(n, 0, p), t_T, q, y)
    else:
        raise ConfigurationError(f"unsupported path for min-norm estimation: {path}")

    theta = np.zeros(grid.D, dtype=complex)
    theta[:p] = theta_T
    residual = float(np.linalg.norm(equispaced_predict(theta_T, n) - y))
    return EstimatorResult(theta_hat=theta, q_used=float(q), path=path, residual=residual)


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
    return EstimatorResult(theta_hat=theta, q_used=0.0, path=SolverPath.NORMAL_EQUATIONS, residual=residual)


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
