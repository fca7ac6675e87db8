"""Monte Carlo validation of the risk theory.

Coefficients are sampled with the modelled covariance c_r diag(t^(2r)),
observations are full-model (all D features), and each trial records the
squared recovery error of the regime-appropriate estimator.

``empirical_risks`` is the Monte Carlo twin of ``risktheory.theory_risks``:
it estimates a whole p sweep in one pass.  Trials are taken in blocks of a
fixed number of coefficients (16 trials at D = 1024).  Each trial's theta is
drawn once per sweep, the block is folded to its samples y once, and fft(y)
and ifft(y) are taken once; y and its transforms are shared by every p,
because features alias modulo n.  Each p then costs only elementwise work
(p <= n reads ifft(y), every p > n runs the batched circulant solve, the
Gram being circulant for any p >= n).  ``empirical_risk`` is the one-point
call.

Reproducibility: trial i draws from a Philox stream keyed by
(seed, spawn_key=(i,)), so the sample stream is bit-identical for a given
(seed, trials) regardless of execution order, blocking or worker count, and
every estimate equals, bit for bit, the one-trial-at-a-time loop
trial_generator -> sample_theta -> equispaced_predict -> least_squares or
weighted_minnorm.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .circulant import equispaced_predict
from .errors import ConfigurationError
from .estimators import _circulant_minnorm, _class_weights
from .model import GridConfig, Spectrum, check_finite_nonnegative, check_truncations
from .risktheory import concentration_bound

# Trials are solved in blocks of about this many complex coefficients (16
# trials at D = 1024).  The block bounds the working set: on the paper-size
# mc-risk and concentration runs, 2^14 adds about 1 MB of peak memory over
# one trial at a time and 2^17 about 9 MB, for no further gain in speed.
_BLOCK_ELEMENTS = 1 << 14


class CoefficientModel(enum.Enum):
    COMPLEX_GAUSSIAN = "complex-gaussian"
    REAL_GAUSSIAN = "real-gaussian"


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    coefficient_model: CoefficientModel = CoefficientModel.COMPLEX_GAUSSIAN
    confidence: float = 0.8

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass(frozen=True)
class McRiskEstimate:
    mean: float
    ci_low: float
    ci_high: float
    samples: np.ndarray = field(repr=False)


class TailRow(NamedTuple):
    t: float
    empirical_tail: float
    bound_tail: float
    std_err: float


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream; independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


def sample_theta(spectrum: Spectrum, model: CoefficientModel, rng: np.random.Generator) -> np.ndarray:
    """Draw coefficients with E[theta] = 0 and E[theta theta^*] = c_r diag(t^(2r))."""
    return _draw_theta(_theta_scale(spectrum), model, rng)


def _theta_scale(spectrum: Spectrum) -> np.ndarray:
    return math.sqrt(spectrum.c_r) * spectrum.t_pow(spectrum.decay_r)


def _draw_theta(scale: np.ndarray, model: CoefficientModel, rng: np.random.Generator) -> np.ndarray:
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        g = rng.standard_normal(len(scale)) + 1j * rng.standard_normal(len(scale))
        return scale * g / math.sqrt(2.0)
    if model is CoefficientModel.REAL_GAUSSIAN:
        return scale * rng.standard_normal(len(scale)).astype(complex)
    raise ConfigurationError(f"unknown coefficient model {model!r}")


def empirical_risks(
    spectrum: Spectrum, n: int, q: float, p_values: Sequence[int], mc: McConfig
) -> list[McRiskEstimate]:
    """Mean squared recovery error at every truncation in p_values.

    p <= n fits least squares (q has no effect there, sample by sample);
    p > n fits the min-norm estimator with exponent q.  Every trial is drawn
    once and shared by all p (see the module docstring); the returned
    ``samples`` arrays are read-only.
    """
    check_finite_nonnegative(q, "weighting exponent q")
    p_list = check_truncations(spectrum.D, n, p_values).tolist()
    kernels = {p: _class_weights(spectrum.t[:p], n, q) for p in p_list if p > n}
    need_ls = any(p <= n for p in p_list)
    scale = _theta_scale(spectrum)
    step = max(1, _BLOCK_ELEMENTS // spectrum.D)
    samples = np.empty((len(p_list), mc.trials))
    # One set of block arrays serves every block: arrays this large, allocated
    # afresh per block, can be handed back to the system on each free and
    # page-faulted in again.
    shape = (min(step, mc.trials), spectrum.D)
    theta_buffer, diff_buffer = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    err_buffer, imag_buffer = np.empty(shape), np.empty(shape)
    for first in range(0, mc.trials, step):
        block = range(first, min(first + step, mc.trials))
        theta, diff = theta_buffer[: len(block)], diff_buffer[: len(block)]
        for theta_i, trial in zip(theta, block):
            theta_i[:] = _draw_theta(scale, mc.coefficient_model, trial_generator(mc.seed, trial))
        y = equispaced_predict(theta, n)
        y_fft = np.fft.fft(y) if kernels else None
        y_ifft = np.fft.ifft(y) if need_ls else None
        for row, p in zip(samples, p_list):
            fit = y_ifft[:, :p] if p <= n else _circulant_minnorm(y_fft, *kernels[p], p)
            np.subtract(theta[:, :p], fit, out=diff[:, :p])
            diff[:, p:] = theta[:, p:]
            err = np.square(diff.real, out=err_buffer[: len(block)])
            err += np.square(diff.imag, out=imag_buffer[: len(block)])
            row[block.start : block.stop] = np.sum(err, axis=1)
    samples.setflags(write=False)
    alpha = 100.0 * (1.0 - mc.confidence) / 2.0
    estimates = []
    for row in samples:
        ci_low, ci_high = np.percentile(row, [alpha, 100.0 - alpha])
        mean = float(row.mean())
        estimates.append(McRiskEstimate(mean=mean, ci_low=float(ci_low), ci_high=float(ci_high), samples=row))
    return estimates


def empirical_risk(spectrum: Spectrum, grid: GridConfig, q: float, mc: McConfig) -> McRiskEstimate:
    """Mean squared recovery error with percentile confidence interval.

    One point of ``empirical_risks``.
    """
    return empirical_risks(spectrum, grid.n, q, [grid.p], mc)[0]


def concentration_check(
    spectrum: Spectrum,
    grid: GridConfig,
    q: float,
    t_grid: Sequence[float],
    mc: McConfig,
) -> list[TailRow]:
    """Empirical deviation frequencies against the theoretical tail bound.

    For each t, reports the frequency of |sample - mean| > t next to
    min(1, bound); the bound is loose, only one-sided domination holds.
    """
    T_q, _ = concentration_bound(spectrum.decay_r, q, 0.0)  # validates the (r, q) domain
    estimate = empirical_risk(spectrum, grid, q, mc)
    deviations = np.abs(estimate.samples - estimate.mean)
    rows = []
    for t in t_grid:
        if t < 0:
            raise ConfigurationError(f"deviation level t must be >= 0, got {t}")
        empirical = float(np.mean(deviations > t))
        tail = 2.0 * math.exp(-min(t * t / (T_q * T_q), t / T_q))
        std_err = math.sqrt(empirical * (1.0 - empirical) / mc.trials)
        rows.append(TailRow(t=float(t), empirical_tail=empirical, bound_tail=min(1.0, tail), std_err=std_err))
    return rows
