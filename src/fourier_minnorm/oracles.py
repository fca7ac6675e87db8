"""Dense reference routes, the oracles the fast routes are tested against; no CLI command loads them.

Each materialises the feature matrices, or draws one trial at a time, where
the runtime folds and transforms (the aliasing fact, see ``circulant``):

* ``fourier_matrix``, F itself: checks ``circulant.equispaced_predict`` and
  ``gram_eigenvalues`` and feeds the oracles below;
* ``solve_weighted_minnorm``, the SVD pseudoinverse of F_T S^q: checks
  ``estimators.weighted_minnorm`` at every p (least squares at p <= n) and,
  on tensor products of ``axis_feature_matrix``,
  ``interpolation.fit_interpolant``;
* ``minnorm_kkt_check``, a dense stationarity certificate: checks that
  ``weighted_minnorm`` is the weighted-norm minimiser;
* ``risk_trace_over``/``risk_trace_under``, trace forms on any grid, the
  former with its ``P_q``/``Q_q1``/``Q_q2`` breakdown: check
  ``risktheory.sweep_risks``;
* ``evaluate_interpolant``, the series at arbitrary points by
  ``axis_feature_matrix``: checks ``interpolation.evaluate_on_grid``;
* ``trial_generator`` and ``sample_theta``, the reference definition of the
  Monte Carlo stream: ``montecarlo.empirical_risks`` draws every theta bit
  for bit as they do (``_trial_keys``, ``_block_sampler``, ``_scale_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalInconsistencyError, RegimeError
from .estimators import EstimatorResult
from .interpolation import UNIT_DOMAIN, symmetric_frequencies
from .model import GridConfig, Spectrum, check_finite_nonnegative
from .montecarlo import CoefficientModel
from .risktheory import _require_over

# The trace forms subtract: a tiny negative is rounding noise and reported as
# 0, anything worse indicates a bug.
NEGATIVE_RISK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RiskBreakdown:
    P_q: float
    Q_q1: float
    Q_q2: float
    risk: float
    clamped: bool = False


def _finalize_risk(value: float) -> tuple[float, bool]:
    """(risk, clamped): a value in [-NEGATIVE_RISK_TOLERANCE, 0) becomes 0.0 and is flagged.

    A value that is not finite or lies further below zero raises
    NumericalInconsistencyError.
    """
    if not math.isfinite(value):
        raise NumericalInconsistencyError(f"risk evaluated to {value}, which is not a finite number")
    if value < -NEGATIVE_RISK_TOLERANCE:
        raise NumericalInconsistencyError(f"risk evaluated to {value}, below -{NEGATIVE_RISK_TOLERANCE}")
    return (0.0, True) if value < 0.0 else (value, False)


def fourier_matrix(n: int, start: int, stop: int) -> np.ndarray:
    """Raw (n, stop-start) array with entries exp(-2*pi*i*j*k/n)."""
    rows = np.arange(n)[:, None]
    cols = np.arange(start, stop)[None, :]
    return np.exp((-2.0j * np.pi / n) * rows * cols)


def solve_weighted_minnorm(features: np.ndarray, weights: np.ndarray, q: float, y: np.ndarray) -> np.ndarray:
    """Minimise ||diag(weights)^(-q) theta|| subject to features @ theta = y.

    Solved through the SVD pseudoinverse of the column-scaled system (lstsq),
    never by explicit Gram inversion.  Also usable with p <= n, where it
    returns the unique least-squares solution instead.  The dense oracle of
    ``weighted_minnorm``.  Raises NumericalInconsistencyError where lstsq's
    cut leaves the scaled system short of full rank: a truncated solve.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights <= 0):
        raise ConfigurationError("weights must be strictly positive")
    wq = weights ** q if q != 0.0 else np.ones_like(weights)
    beta, _, rank, _ = np.linalg.lstsq(features * wq[None, :], np.asarray(y, dtype=complex), rcond=None)
    if rank < min(features.shape):  # the weights' q-th powers span more than the cut
        raise NumericalInconsistencyError(f"scaled system of rank {rank} < {min(features.shape)}: a truncated solve")
    return wq * beta


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


def risk_trace_over(spectrum: Spectrum, grid: GridConfig, q: float) -> RiskBreakdown:
    """Dense trace-form risk; works on misaligned grids too (oracle route).

    Evaluated through the SVD of the column-weighted feature matrix rather
    than the inverted Gram: with F Sigma^q = U diag(s) V^*, the three traces
    collapse to

        P_q  = tr(K V V^*),
        Q_q1 = tr((V^* Sigma^{2q} V)(V^* K Sigma^{-2q} V)),
        Q_q2 = tr(diag(1/s) (V^* Sigma^{2q} V) diag(1/s) U^* M_c U),

    in which the singular values cancel everywhere except the benign Q_q2
    factor, keeping the oracle accurate at large weighting exponents.
    """
    _require_over(grid)
    check_finite_nonnegative(q, "weighting exponent q")
    n, p, D = grid.n, grid.p, grid.D
    r = spectrum.decay_r
    t = spectrum.t
    k_diag = spectrum.c_r * t ** (2.0 * r)

    f_T = fourier_matrix(n, 0, p)
    wq = t[:p] ** q
    u, sv, vh = np.linalg.svd(f_T * wq[None, :], full_matrices=False)
    v = vh.conj().T  # (p, n), orthonormal columns

    P_q = float(np.sum(k_diag[:p] * np.sum(np.abs(v) ** 2, axis=1)))
    a = v.conj().T @ ((t[:p] ** (2.0 * q))[:, None] * v)
    b = v.conj().T @ ((k_diag[:p] * t[:p] ** (-2.0 * q))[:, None] * v)
    Q_q1 = float(np.sum(a * b.T).real)
    if p < D:
        f_c = fourier_matrix(n, p, D)
        m_c = (f_c * k_diag[p:][None, :]) @ f_c.conj().T
        m_tilde = u.conj().T @ m_c @ u
        Q_q2 = float(np.sum((a / np.outer(sv, sv)) * m_tilde.T).real)
    else:
        Q_q2 = 0.0
    risk, clamped = _finalize_risk(1.0 - 2.0 * P_q + Q_q1 + Q_q2)
    return RiskBreakdown(P_q=P_q, Q_q1=Q_q1, Q_q2=Q_q2, risk=risk, clamped=clamped)


def risk_trace_under(spectrum: Spectrum, grid: GridConfig) -> float:
    """Dense trace-form least-squares risk; no divisibility requirement."""
    if grid.p > grid.n:
        raise RegimeError(f"underparameterized form needs p <= n, got p={grid.p}, n={grid.n}")
    n, p, D = grid.n, grid.p, grid.D
    k_diag = spectrum.c_r * spectrum.t ** (2.0 * spectrum.decay_r)
    if p == D:
        return 0.0
    f_T = fourier_matrix(n, 0, p)
    f_c = fourier_matrix(n, p, D)
    ftf = f_T.conj().T @ f_T
    inv2 = np.linalg.inv(ftf @ ftf)
    cross = f_T.conj().T @ (f_c * k_diag[p:][None, :])
    back = f_c.conj().T @ f_T
    value = math.fsum(k_diag[p:]) + float(np.trace(inv2 @ cross @ back).real)
    risk, _ = _finalize_risk(value)
    return risk


def axis_feature_matrix(x: np.ndarray, m: int, domain: tuple[float, float] = UNIT_DOMAIN) -> np.ndarray:
    """Entries exp(2*pi*i*k*(x - x0)/L) for the m-term frequency layout."""
    start, length = domain
    u = (np.asarray(x, dtype=float) - start) / length
    return np.exp(2j * np.pi * np.outer(u, symmetric_frequencies(m)))


def evaluate_interpolant(
    coefficients: np.ndarray,
    axes: Sequence[np.ndarray],
    domain: tuple[float, float] = UNIT_DOMAIN,
) -> np.ndarray:
    """Synthesise the truncated Fourier series on a tensor grid of arbitrary points.

    The dense matrix route: ``evaluate_on_grid`` gives the same values on
    the problem's equispaced grids.  ``axes`` holds one 1-D point array per
    dimension; the result has shape
    (len(axes[0]), ..., len(axes[d-1])) and is complex (imaginary parts of
    fits to real data are rounding-level).
    """
    coefficients = np.asarray(coefficients)
    if coefficients.ndim != len(axes):
        raise ConfigurationError(
            f"coefficient tensor is {coefficients.ndim}-dimensional but {len(axes)} axes were given"
        )
    out = coefficients.astype(complex)
    for ax in axes:
        m = out.shape[0]
        out = np.tensordot(axis_feature_matrix(ax, m, domain), out, axes=(1, 0))
        out = np.moveaxis(out, 0, -1)
    return out


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream; independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


def sample_theta(spectrum: Spectrum, model: CoefficientModel, rng: np.random.Generator) -> np.ndarray:
    """Draw coefficients with E[theta] = 0 and E[theta theta^*] = c_r diag(t^(2r))."""
    D = spectrum.D
    scale = math.sqrt(spectrum.c_r) * spectrum.t**spectrum.decay_r
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        g = rng.standard_normal(2 * D)  # D real parts, then D imaginary parts
        return scale * (g[:D] + 1j * g[D:]) / math.sqrt(2)
    if model is CoefficientModel.REAL_GAUSSIAN:
        return scale * rng.standard_normal(D).astype(complex)
    raise ConfigurationError(f"unknown coefficient model {model!r}")
