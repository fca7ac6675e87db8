"""Spectral model: decaying weights, covariance normaliser, grid structure.

Conventions fixed for the whole package:

* indexing is 0-based; feature j in {0, ..., D-1} carries the weight
  t_j = (j+1)^(-1), so t_0 = 1 and t_{D-1} = 1/D;
* the decay exponent r enters only through even powers t_j^(2r);
* c_r = 1 / sum_j t_j^(2r) normalises the coefficient covariance
  K = c_r * diag(t^(2r)) to unit trace.

All types here are frozen and their arrays are marked read-only, so values can
be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, RegimeError

# Above this ambient dimension the per-residue aliased sums switch to Kahan
# compensation; below it plain vectorised summation is accurate enough.
COMPENSATED_SUM_MIN_D = 1 << 16


class Regime(enum.Enum):
    UNDER = "under"
    OVER_ALIGNED = "over_aligned"
    OVER_GENERAL = "over_general"


@dataclass(frozen=True)
class Spectrum:
    """Decay sequence t_j = (j+1)^(-1) with its covariance normaliser c_r."""

    D: int
    decay_r: float
    t: np.ndarray = field(repr=False)
    c_r: float

    def t_pow(self, u: float) -> np.ndarray:
        """Entrywise power t_j^u (returns a fresh writable array)."""
        return self.t ** u

    def tail_sum(self, u: float, start: int = 0, stop: int | None = None) -> float:
        """Exactly rounded sum of t_j^u over j in [start, stop)."""
        stop = self.D if stop is None else stop
        if not 0 <= start <= stop <= self.D:
            raise ConfigurationError(f"index window [{start}, {stop}) outside [0, {self.D})")
        return math.fsum(self.t_pow(u)[start:stop])


def check_finite_nonnegative(value: float, name: str) -> None:
    """Raise ConfigurationError unless ``value`` is a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


def _check_integer(value, name: str) -> None:
    """Raise ConfigurationError unless ``value`` is an int or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def build_spectrum(D: int, r: float) -> Spectrum:
    """Construct the D-term decay sequence and its normaliser for exponent r."""
    _check_integer(D, "feature count D")
    if D < 1:
        raise ConfigurationError(f"feature count D must be >= 1, got {D}")
    check_finite_nonnegative(r, "decay exponent r")
    t = 1.0 / np.arange(1, D + 1, dtype=float)
    # Direct summation, smallest terms first; fsum compensates exactly.
    c_r = 1.0 / math.fsum((t ** (2.0 * r))[::-1])
    t.setflags(write=False)
    return Spectrum(D=D, decay_r=float(r), t=t, c_r=c_r)


def cr_bounds(D: int, r: float) -> tuple[float, float]:
    """Closed-form sandwich for c_r, valid for r > 1/2."""
    if D < 1:
        raise ConfigurationError(f"feature count D must be >= 1, got {D}")
    if r <= 0.5:
        raise RegimeError(f"c_r bounds require r > 1/2, got r={r}")
    lower = (2.0 * r - 1.0) / (2.0 * r - float(D) ** (-2.0 * r + 1.0))
    upper = (2.0 * r - 1.0) / (1.0 - float(D + 1) ** (-2.0 * r + 1.0))
    return lower, upper


@dataclass(frozen=True)
class GridConfig:
    """A (D, n, p) triple with its divisibility structure and regime tag.

    tau is present iff n divides D, l iff n divides p.  The boundary p = n is
    tagged OVER_ALIGNED (l = 1); operations that need p <= n validate against
    n and p directly, so both closed forms stay callable at the boundary.
    """

    D: int
    n: int
    p: int
    tau: int | None
    l: int | None
    regime: Regime


def classify_grid(D: int, n: int, p: int) -> GridConfig:
    """Tag a (D, n, p) configuration; deterministic in its inputs."""
    _check_integer(D, "feature count D")
    _check_integer(n, "sample count n")
    if not 1 <= n <= D:
        raise ConfigurationError(f"sample count n={n} outside [1, D={D}]")
    _check_integer(p, "truncation p")
    if not 1 <= p <= D:
        raise ConfigurationError(f"truncation p={p} outside [1, D={D}]")
    tau = D // n if D % n == 0 else None
    l = p // n if p % n == 0 else None
    if p < n:
        regime = Regime.UNDER
    elif l is not None:
        regime = Regime.OVER_ALIGNED
    else:
        regime = Regime.OVER_GENERAL
    return GridConfig(D=D, n=n, p=p, tau=tau, l=l, regime=regime)


def check_truncations(D: int, n: int, p_values: Sequence[int]) -> np.ndarray:
    """``p_values`` as an int array, checked in one pass as ``classify_grid`` checks each.

    Raises ``classify_grid``'s error for a bad D or n, else for the first p
    that is not an integer in [1, D].  An integer array is checked in one
    array pass; any other sequence value by value.
    """
    classify_grid(D, n, 1)
    p = np.asarray(p_values)
    if not (isinstance(p_values, np.ndarray) and p.dtype.kind in "iu"):
        for value in p_values:
            _check_integer(value, "truncation p")
            if not 1 <= value <= D:
                raise ConfigurationError(f"truncation p={value} outside [1, D={D}]")
        return p.astype(int)
    outside = (p < 1) | (p > D)
    if outside.any():
        raise ConfigurationError(f"truncation p={p[outside.argmax()]} outside [1, D={D}]")
    return p.astype(int, copy=False)


def regime_tags(n: int, p: np.ndarray) -> np.ndarray:
    """``classify_grid(D, n, p).regime.value`` for every p of an int array."""
    aligned = np.where(p % n == 0, Regime.OVER_ALIGNED.value, Regime.OVER_GENERAL.value)
    return np.where(p < n, Regime.UNDER.value, aligned)


def folded_sums(
    values: np.ndarray, n: int, compensated: bool = False, *, start: int = 0, axis: int = -1,
    reduce: np.ufunc = np.add,
) -> np.ndarray:
    """Fold ``values`` along ``axis`` modulo n: entry m holds ``reduce`` over residue class m.

    Entry i along ``axis`` is frequency start + i, in class (start + i) mod n.
    Classes no entry reaches hold 0, so ``reduce`` must treat 0 as neutral
    (sums, or maxima of values >= 0).  Other axes are a batch, each row folded
    exactly as on its own.  The fold adds blocks of n from entry 0 in order
    (zero-padded at the end), then rolls by start mod n.  With ``compensated``
    sums take a Kahan loop instead of the vectorised sum (engaged for very
    large D); maxima are exact either way.
    """
    if n < 1:
        raise ConfigurationError(f"fold length must be >= 1, got {n}")
    values = np.asarray(values)
    shape = values.shape
    axis %= len(shape)
    blocks = -(-shape[axis] // n) or 1  # one block at least: an empty fold is all zeros, maxima too
    pad = blocks * n - shape[axis]
    if pad:
        values = np.concatenate([values, np.zeros(shape[:axis] + (pad,) + shape[axis + 1 :], values.dtype)], axis)
    block = values.reshape(shape[:axis] + (blocks, n) + shape[axis + 1 :])
    if compensated and reduce is np.add:
        folded = accumulate_blocks(np.moveaxis(block, axis, 0).copy(), compensated=True)[-1]
    else:
        folded = reduce.reduce(block, axis=axis)
    shift = start % n
    return np.roll(folded, shift, axis=axis) if shift else folded


def accumulate_blocks(blocks: np.ndarray, compensated: bool = False) -> np.ndarray:
    """Running sums over the leading axis, in place; returns ``blocks``.

    Row l becomes the sum of rows 0..l.  Rows are added in order, so a
    reversed view yields suffix sums.  With ``compensated`` the running sum
    carries a Kahan correction from block to block, so every row is as
    accurate as a compensated sum of its own.
    """
    if not compensated:
        return blocks.cumsum(axis=0, out=blocks)
    carry = np.zeros(blocks.shape[1:], dtype=blocks.dtype)
    for i in range(1, len(blocks)):
        y = blocks[i] - carry
        total = blocks[i - 1] + y
        carry = (total - blocks[i - 1]) - y
        blocks[i] = total
    return blocks
