"""Monte Carlo validation of the risk theory.

Coefficients are sampled with the modelled covariance c_r diag(t^(2r)),
observations are full-model (all D features), and each trial records the
squared recovery error of the one min-norm fit of ``estimators``, any p.

``empirical_risks`` is the Monte Carlo twin of ``risktheory.sweep_risks``:
it estimates every (spectrum, q) group of one D over a whole p sweep in one
pass, so an mc-risk command draws its normals once.  Trials are taken in
blocks of a fixed number of coefficients (16 trials at D = 1024).  Each
block's normals are drawn once for every group; each distinct spectrum scales
them to its theta, folds the block to its samples y and takes the class sums
c = ifft(y) once; c is shared by every p and every q of that spectrum (the
aliasing fact, see ``circulant``): the min-norm fit of ``estimators`` is
c[:, :p] at p <= n (least squares, whatever q), and every p > n broadcasts c
against its kernel s_k / Lambda[k mod n], built once per p and q.
``empirical_risk`` is the one-point call.

The same fact splits each trial's error sum_k |theta_k - theta_hat_k|^2 into
a head over the fitted features and |theta_k|^2 summed over fixed blocks of
n.  Per block of trials, P_k = |theta_k|^2 is squared once, B_j sums P over
block j of n columns (zero-padded past D), and S_j = sum_{i >= j} B_i is one
reversed cumulative sum.  Every p <= n then reads H[p - 1] + R[p] + S_1 from
one prefix sum H of the fit's squared errors and one reversed prefix sum R of
P over the first n columns; a p > n sums the fit's squared errors over its
ceil(p/n) blocks (P past p fills the last one) and adds S_ceil(p/n).  So only
a min-norm p costs work in proportion to p, and each part is summed in an
order fixed by (D, n, p) alone.  All of this up to the p > n fits depends on
the spectrum and not on q, so groups that share a spectrum share it.

Reproducibility: trial i draws from a Philox stream keyed by
(seed, spawn_key=(i,)), and the coefficient vectors are, bit for bit, those
of the one-trial-at-a-time loop ``oracles.trial_generator`` ->
``oracles.sample_theta``, the reference definition of the stream.  Philox
is counter-based: a stream is fixed by its 128-bit key alone.
``empirical_risks`` therefore derives every trial's key up front in a few
uint32 array passes that replay SeedSequence's hash (``_trial_keys``), and
``_block_sampler`` re-keys one generator for each trial, through a state of
Python ints, and draws the trial's normals straight into its row of a block
buffer.  ``_scale_block`` scales the whole block for each spectrum and gives
every row, bit for bit, the plain numpy arithmetic of ``oracles.sample_theta``.
How a trial's normals become its theta depends on D (the complex model
splits them into real and imaginary parts at D), so the groups of one pass
share D.  Since every sum's order is fixed by (D, n, p), each sample is
bit-identical across block sizes, worker counts, reruns, the other p of the
sweep and the other groups of the pass (a point call equals its entry in any
stack).  Each error sums the same nonnegative terms as the loop's
theta - weighted_minnorm fit, with no term passing through more than
n + ceil(D/n) additions, so it lies within
gamma_d = d u / (1 - d u) of their math.fsum, relative, for
d = n + ceil(D/n) + 2 and u = 2^-53.
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


def _theta_scale(spectrum: Spectrum) -> np.ndarray:
    return math.sqrt(spectrum.c_r) * spectrum.t ** spectrum.decay_r


def _draw_width(model: CoefficientModel, D: int) -> int:
    """Standard normals one coefficient vector takes from its stream."""
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        return 2 * D
    if model is CoefficientModel.REAL_GAUSSIAN:
        return D
    raise ConfigurationError(f"unknown coefficient model {model!r}")


# Complex division by sqrt(2) + 0j multiplies each part by this reciprocal.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _scale_block(
    scale: np.ndarray, model: CoefficientModel, g: np.ndarray, theta: np.ndarray, out: np.ndarray
) -> None:
    """Write coefficient vectors into the rows of ``theta`` from standard normals.

    Row i of ``g`` holds one vector's draws in stream order: D real parts
    then D imaginary parts (complex model), or D values (real model).  The
    result equals, bit for bit, scale * (re + 1j * im) / sqrt(2) and
    scale * re.astype(complex).  ``out``, scratch of g's shape that may be g
    itself, may be overwritten; g is left alone unless it is ``out``.
    """
    D = len(scale)
    if model is CoefficientModel.COMPLEX_GAUSSIAN:
        halves = np.multiply(g.reshape(len(g), 2, D), scale, out=out.reshape(len(g), 2, D))
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
    """The Philox key of ``oracles.trial_generator(seed, trial)`` for every trial.

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


def _block_sampler():
    """``draw(keys, out)``: the standard normals of keyed trials, one trial per row of ``out``.

    Row i of ``out`` ((len(keys), _draw_width) scratch) becomes, bit for bit,
    the normals oracles.sample_theta draws from oracles.trial_generator(seed,
    trial_i), for keys = _trial_keys(seed, trials): one generator, re-keyed
    for each trial (counter 0 and an empty buffer make it that trial's
    stream).  The state holds Python ints, which the generator reads faster
    than numpy scalars; ``_scale_block`` turns the rows into coefficients.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # an empty buffer (buffer_pos 4), as after seeding
    state["state"]["counter"] = state["buffer"] = [0, 0, 0, 0]

    def draw(keys: np.ndarray, out: np.ndarray) -> None:
        for row, key in zip(out, keys.tolist()):
            state["state"]["key"] = key
            bit_generator.state = state
            rng.standard_normal(out=row)

    return draw


def _squared_modulus(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = z.real**2 + z.imag**2, bit for bit; ``z`` is overwritten."""
    parts = z.view(float)
    np.square(parts, out=parts)
    return np.add(parts[..., 0::2], parts[..., 1::2], out=out)


def empirical_risks(
    spectra: Sequence[Spectrum], n: int, q_values: Sequence[float], p_values: Sequence[int], mc: McConfig
) -> list[list[McRiskEstimate]]:
    """Mean squared recovery error of group g, (spectra[g], q_values[g]), at truncation p_values[j]: entry [g][j].

    Every p fits the min-norm estimator with exponent q: least squares at
    p <= n, where q has no effect, sample by sample.  One draw pass serves
    the whole stack: every trial's normals are drawn once for all groups,
    each spectrum (by identity) scales them once for all its q, and each
    error is a head over the fitted features plus block tails (see the
    module docstring).  The spectra must share one D.  Every entry is, bit
    for bit, what its group gives alone; the returned ``samples`` arrays are
    read-only.
    """
    spectra, q_values = list(spectra), list(q_values)
    if not spectra or len(q_values) != len(spectra):
        raise ConfigurationError(f"need one q per spectrum, got q {q_values} for {len(spectra)} spectra")
    for q in q_values:
        check_finite_nonnegative(q, "weighting exponent q")
    D_values = sorted({spectrum.D for spectrum in spectra})
    if len(D_values) > 1:
        raise ConfigurationError(f"the spectra of one Monte Carlo pass must share D, got D {D_values}")
    # every distinct p once, ascending: the least-squares p <= n come first
    p_sorted, where = np.unique(check_truncations(D_values[0], n, p_values), return_inverse=True)
    samples = _squared_errors(spectra, n, q_values, p_sorted, mc)
    if not np.array_equal(where, np.arange(len(where))):
        samples = samples[:, where]  # the caller's order, repeats included
    samples.setflags(write=False)
    alpha = 100.0 * (1.0 - mc.confidence) / 2.0
    estimates = []
    for rows in samples:
        ci_low, ci_high = np.percentile(rows, [alpha, 100.0 - alpha], axis=1)
        estimates.append([
            McRiskEstimate(mean=float(mean), ci_low=float(low), ci_high=float(high), samples=row)
            for row, mean, low, high in zip(rows, rows.mean(axis=1), ci_low, ci_high)
        ])
    return estimates


def _squared_errors(
    spectra: list[Spectrum], n: int, q_values: list[float], p_sorted: np.ndarray, mc: McConfig
) -> np.ndarray:
    """(groups, len(p_sorted), trials) squared recovery errors for ascending, distinct p.

    The block buffers die on return, before the statistics copy the samples.
    """
    D = spectra[0].D
    lows = int(np.searchsorted(p_sorted, n, side="right"))
    p_low, p_high = p_sorted[:lows], p_sorted[lows:].tolist()
    # the groups of each distinct spectrum, which share everything but their p > n fits
    sharing: dict[int, list[int]] = {}
    for g, spectrum in enumerate(spectra):
        sharing.setdefault(id(spectrum), []).append(g)
    scales = [_theta_scale(spectra[groups[0]]) for groups in sharing.values()]
    # the p > n kernels depend on q and on t, which the shared D fixes: one set per distinct q
    kernels = {q: [_minnorm_kernel(spectra[0].t[:p], n, q) for p in p_high] for q in set(q_values)}
    keys = _trial_keys(mc.seed, np.arange(mc.trials))
    draw = _block_sampler()
    width = _draw_width(mc.coefficient_model, D)
    blocks = -(-D // n)
    W = blocks * n
    step = max(1, _BLOCK_ELEMENTS // D)
    samples = np.empty((len(spectra), len(p_sorted), mc.trials))
    # One set of block arrays serves every block: arrays this large, allocated
    # afresh per block (or per p), can be handed back to the system on each
    # free and page-faulted in again.  Scaled draws are spent once theta is
    # written, so the two halves of their memory hold |theta_k|^2 (zero-padded
    # to whole blocks of n) and the squared errors of a fit.  One spectrum
    # scales its draws in place; more than one keep the normals apart.
    rows = min(step, mc.trials)
    theta_buffer = np.empty((rows, D), dtype=complex)
    diff_buffer = np.empty((rows, D), dtype=complex)
    draw_buffer = np.empty((rows, 2 * W))
    normal_buffer = draw_buffer if len(scales) == 1 else np.empty((rows, width))
    power_buffer, err_buffer = draw_buffer.reshape(2, rows, W)
    head_buffer, block_buffer = np.empty((rows, n)), np.empty((rows, blocks))
    low_buffer = np.empty((rows, lows))
    # R[:, p] = sum_{p <= k < n} |theta_k|^2 and S[:, j] = sum_{i >= j} B[:, i]
    # sum from the far end, so their last columns stay 0
    tail_buffer, suffix_buffer = np.zeros((rows, n + 1)), np.zeros((rows, blocks + 1))
    for first in range(0, mc.trials, step):
        block = slice(first, min(first + step, mc.trials))
        m = block.stop - first
        theta, diff, err, power = theta_buffer[:m], diff_buffer[:m], err_buffer[:m], power_buffer[:m]
        normals = normal_buffer[:m, :width]
        draw(keys[block], normals)
        for scale, groups in zip(scales, sharing.values()):
            _scale_block(scale, mc.coefficient_model, normals, theta, out=draw_buffer[:m, :width])
            c = np.fft.ifft(equispaced_predict(theta, n))
            np.square(theta.real, out=power[:, :D])
            power[:, :D] += np.square(theta.imag, out=err[:, :D])
            power[:, D:] = 0.0
            B = np.add.reduce(power.reshape(m, blocks, n), axis=2, out=block_buffer[:m])
            S = suffix_buffer[:m]
            np.cumsum(B[:, ::-1], axis=1, out=S[:, blocks - 1 :: -1])
            if lows:
                # p <= n: H[p - 1] + R[p] + S[1], one prefix sum for every p and every q
                np.subtract(theta[:, :n], c, out=diff[:, :n])
                H = np.cumsum(_squared_modulus(diff[:, :n], err[:, :n]), axis=1, out=head_buffer[:m])
                R = tail_buffer[:m]
                np.cumsum(power[:, n - 1 :: -1], axis=1, out=R[:, n - 1 :: -1])
                # the indices are in range; mode="raise" would copy through a buffer
                low = np.take(H, p_low - 1, axis=1, out=samples[groups[0], :lows, block].T, mode="clip")
                low += np.take(R, p_low, axis=1, out=low_buffer[:m], mode="clip")
                low += S[:, 1:2]
                for g in groups[1:]:
                    samples[g, :lows, block] = low.T
            for g in groups:
                for col, (p, kernel) in enumerate(zip(p_high, kernels[q_values[g]]), start=lows):
                    # p > n: the fit's error over whole blocks of n, then the tail past them
                    fitted = -(-p // n)  # ceil(p / n) blocks
                    fit = _minnorm_fit(c, kernel, out=diff[:, :p])
                    np.subtract(theta[:, :p], fit, out=fit)
                    _squared_modulus(fit, err[:, :p])
                    err[:, p : fitted * n] = power[:, p : fitted * n]
                    heads = err[:, : fitted * n].reshape(m, fitted, n)
                    heads = np.add.reduce(heads, axis=2, out=block_buffer[:m, :fitted])
                    out = samples[g, col, block]
                    np.add(np.add.reduce(heads, axis=1, out=out), S[:, fitted], out=out)
    return samples


def empirical_risk(spectrum: Spectrum, grid: GridConfig, q: float, mc: McConfig) -> McRiskEstimate:
    """Mean squared recovery error, with the central percentile band of the per-trial errors.

    One point of ``empirical_risks``.  ``ci_low`` and ``ci_high`` are the
    ``(1 - confidence) / 2`` and ``(1 + confidence) / 2`` percentiles of the
    per-trial errors: they show the spread of the errors, not a confidence
    interval for the mean.
    """
    return empirical_risks([spectrum], grid.n, [q], [grid.p], mc)[0][0]


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
    concentration_bound(spectrum.decay_r, q, 0.0)  # validates the (r, q) domain
    for t in t_grid:
        check_finite_nonnegative(t, "deviation level t")
    estimate = empirical_risk(spectrum, grid, q, mc)
    deviations = np.abs(estimate.samples - estimate.mean)
    rows = []
    for t in t_grid:
        empirical = float(np.mean(deviations > t))
        tail = concentration_bound(spectrum.decay_r, q, t).tail
        std_err = math.sqrt(empirical * (1.0 - empirical) / mc.trials)
        rows.append(TailRow(t=float(t), empirical_tail=empirical, bound_tail=min(1.0, tail), std_err=std_err))
    return rows
