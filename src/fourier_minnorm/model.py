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
        if u == 0.0:
            return np.ones(self.D)
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


def build_spectrum(D: int, r: float) -> Spectrum:
    """Construct the D-term decay sequence and its normaliser for exponent r."""
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
    if not 1 <= n <= D:
        raise ConfigurationError(f"sample count n={n} outside [1, D={D}]")
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

    Raises ``classify_grid``'s error for an n outside [1, D], else for the
    first p outside [1, D].
    """
    if not 1 <= n <= D:
        raise ConfigurationError(f"sample count n={n} outside [1, D={D}]")
    try:
        p = np.asarray(p_values, dtype=int)
    except OverflowError:  # beyond int64, so outside [1, D] too
        p = None
    if p is None or ((p < 1) | (p > D)).any():
        first = next(int(v) for v in p_values if not 1 <= int(v) <= D)
        raise ConfigurationError(f"truncation p={first} outside [1, D={D}]")
    return p


def regime_tags(n: int, p: np.ndarray) -> np.ndarray:
    """``classify_grid(D, n, p).regime.value`` for every p of an int array."""
    aligned = np.where(p % n == 0, Regime.OVER_ALIGNED.value, Regime.OVER_GENERAL.value)
    return np.where(p < n, Regime.UNDER.value, aligned)


def folded_sums(values: np.ndarray, n: int, compensated: bool = False) -> np.ndarray:
    """Per-residue sums s_m = sum of values[..., k] over k = m (mod n), m in [0, n).

    Folds the last axis; leading axes are a batch, and each row is summed
    exactly as it would be on its own.  Accumulation runs in ascending block
    order; with ``compensated`` a Kahan loop replaces the vectorised sum
    (engaged for very large D).
    """
    if n < 1:
        raise ConfigurationError(f"fold length must be >= 1, got {n}")
    values = np.asarray(values)
    pad = (-values.shape[-1]) % n
    if pad:
        values = np.concatenate([values, np.zeros(values.shape[:-1] + (pad,), dtype=values.dtype)], axis=-1)
    block = values.reshape(*values.shape[:-1], -1, n)
    if not compensated:
        return block.sum(axis=-2)
    stacked = np.concatenate([np.zeros(block.shape[:-2] + (1, n), dtype=block.dtype), block], axis=-2)
    return accumulate_blocks(np.moveaxis(stacked, -2, 0), compensated=True)[-1]


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
