"""Monte Carlo validation of the risk theory.

Coefficients are sampled with the modelled covariance c_r diag(t^(2r)),
observations are full-model (all D features), and each trial records the
squared recovery error of the regime-appropriate estimator.

``empirical_risks`` is the Monte Carlo twin of ``risktheory.theory_risks``:
it estimates a whole p sweep in one pass.  Trials are taken in blocks of a
fixed number of coefficients (16 trials at D = 1024).  Each trial's theta is
drawn once per sweep, the block is folded to its samples y once, and the
class sums c = ifft(y) are taken once; c is shared by every p (the aliasing
fact, see ``circulant``).  Each p then costs only elementwise work: p <= n
reads c[:, :p] (least squares), every p > n broadcasts c against the
min-norm kernel s_k / Lambda[k mod n] of ``estimators``, built once per p.
``empirical_risk`` is the one-point call.

Reproducibility: trial i draws from a Philox stream keyed by
(seed, spawn_key=(i,)), so the sample stream is bit-identical for a given
(seed, trials) regardless of execution order, blocking or worker count, and
every estimate equals, bit for bit, the one-trial-at-a-time loop
trial_generator -> sample_theta -> equispaced_predict -> least_squares or
weighted_minnorm.  Philox is counter-based: a stream is fixed by its 128-bit
key alone.  ``empirical_risks`` therefore derives every trial's key up front
in a few uint32 array passes that replay SeedSequence's hash (``_trial_keys``),
re-keys one generator per call for each trial, draws the trial's normals
straight into its row of a block buffer, and scales the whole block with
``_scale_block``, the arithmetic ``sample_theta`` applies to one row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .circulant import equispaced_predict
from .errors import ConfigurationError
from .estimators import _minnorm_fit, _minnorm_kernel
from .model import GridConfig, Spectrum, _check_integer, check_finite_nonnegative, check_truncations
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
        for name in ("trials", "seed"):
            _check_integer(getattr(self, name), name)
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
    scale = _theta_scale(spectrum)
    g = rng.standard_normal(_draw_width(model, spectrum.D))
    theta = np.empty(spectrum.D, dtype=complex)
    _scale_block(scale, model, g[None], theta[None])
    return theta


def _theta_scale(spectrum: Spectrum) -> np.ndarray:
    return math.sqrt(spectrum.c_r) * spectrum.t_pow(spectrum.decay_r)


def _draw_width(model: CoefficientModel, D: int) -> int:
    """Standard normals one coefficient vector takes from its stream."""
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        return 2 * D
    if model is CoefficientModel.REAL_GAUSSIAN:
        return D
    raise ConfigurationError(f"unknown coefficient model {model!r}")


# Complex division by sqrt(2) + 0j multiplies each part by this reciprocal.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _scale_block(scale: np.ndarray, model: CoefficientModel, g: np.ndarray, theta: np.ndarray) -> None:
    """Write coefficient vectors into the rows of ``theta`` from standard normals.

    Row i of ``g`` holds one vector's draws in stream order: D real parts
    then D imaginary parts (complex model), or D values (real model).  The
    result equals, bit for bit, scale * (re + 1j * im) / sqrt(2) and
    scale * re.astype(complex).  ``g`` is overwritten.
    """
    D = len(scale)
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        halves = g.reshape(len(g), 2, D)
        np.multiply(halves, scale, out=halves)
        np.multiply(halves[:, 0], _INV_SQRT2, out=theta.real)
        np.multiply(halves[:, 1], _INV_SQRT2, out=theta.imag)
    else:
        np.multiply(g, scale, out=theta.real)
        theta.imag = 0.0


# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, with its running constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; [0] for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _trial_keys(seed: int, trials: np.ndarray) -> np.ndarray:
    """The Philox key of ``trial_generator(seed, trial)`` for every trial.

    Row i is SeedSequence(entropy=seed, spawn_key=(trials[i],))
    .generate_state(2, np.uint64): the same hashmix/mix pool, computed on
    uint32 arrays over all trials at once.  The seed's words, zero-padded to
    the pool size, are common to every trial and mixed once; each trial's
    spawn-key words (one below 2^32, two from there on) follow.  Integer
    arrays wrap silently, so no step warns on overflow.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    hashmix = _hasher(_INIT_A, _MULT_A)
    entropy = _uint32_words(int(seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    words = np.array(entropy, dtype=np.uint32)[:, None]  # (words, 1): arrays, never scalars
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # the seed's words past the pool, then each trial's low spawn-key word
    for word in [*words[_POOL_SIZE:], (trials & _MASK32).astype(np.uint32)]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    wide = np.flatnonzero(trials >> 32)
    if len(wide):
        high = (trials[wide] >> 32).astype(np.uint32)
        for dst in range(_POOL_SIZE):
            pool[dst][wide] = _mix(pool[dst][wide], hashmix(high))
    generate = _hasher(_INIT_B, _MULT_B)
    state = [generate(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


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
    kernels = {p: _minnorm_kernel(spectrum.t[:p], n, q) for p in p_list if p > n}
    keys = _trial_keys(mc.seed, np.arange(mc.trials))
    scale = _theta_scale(spectrum)
    width = _draw_width(mc.coefficient_model, spectrum.D)
    step = max(1, _BLOCK_ELEMENTS // spectrum.D)
    samples = np.empty((len(p_list), mc.trials))
    # One set of block arrays serves every block: arrays this large, allocated
    # afresh per block, can be handed back to the system on each free and
    # page-faulted in again.  The draws are spent once theta is scaled, so
    # the two halves of their memory serve as the (contiguous) squared-error
    # buffers.
    rows, D = min(step, mc.trials), spectrum.D
    theta_buffer, diff_buffer = np.empty((rows, D), dtype=complex), np.empty((rows, D), dtype=complex)
    draw_buffer = np.empty((rows, 2 * D))
    err_buffer, imag_buffer = draw_buffer.reshape(2, rows, D)
    # One generator per call, re-keyed for each trial: counter 0 and an empty
    # buffer make it the stream of trial_generator(seed, trial).
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for first in range(0, mc.trials, step):
        block = range(first, min(first + step, mc.trials))
        theta, diff = theta_buffer[: len(block)], diff_buffer[: len(block)]
        draws = draw_buffer[: len(block), :width]
        for g, key in zip(draws, keys[block.start : block.stop]):
            state["state"]["key"] = key
            bit_generator.state = state
            rng.standard_normal(out=g)
        _scale_block(scale, mc.coefficient_model, draws, theta)
        c = np.fft.ifft(equispaced_predict(theta, n))
        for row, p in zip(samples, p_list):
            # the min-norm fit is written into diff, then diff = theta - fit in place
            fit = c[:, :p] if p <= n else _minnorm_fit(c, kernels[p], p, out=diff[:, :p])
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
    for t in t_grid:
        check_finite_nonnegative(t, "deviation level t")
    estimate = empirical_risk(spectrum, grid, q, mc)
    deviations = np.abs(estimate.samples - estimate.mean)
    rows = []
    for t in t_grid:
        empirical = float(np.mean(deviations > t))
        tail = 2.0 * math.exp(-min(t * t / (T_q * T_q), t / T_q))
        std_err = math.sqrt(empirical * (1.0 - empirical) / mc.trials)
        rows.append(TailRow(t=float(t), empirical_tail=empirical, bound_tail=min(1.0, tail), std_err=std_err))
    return rows
