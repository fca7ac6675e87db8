"""Exact ``"%.17g"`` text of float64 arrays, as rows of a NUL-padded byte matrix.

A cell is one row of ``CELL_WIDTH`` bytes, read as six little-endian int64
words: sign, ``0.000`` prefix, first digit, point | 16 x (digit, point) |
``e-XX`` and padding.  NUL fills every unused byte, so deleting the NULs of
a row leaves the cell's text.

For ``1e-11 <= |v| < 1e17`` the 17 significant digits come from exact
integer arithmetic: ``v * 10**(16 - E)`` for the decimal exponent ``E`` of
``v``, rounded half to even on the exact remainder, as ``%`` rounds.  Every
other value (0, -0, nan, inf, subnormals, far exponents, and the double
nearest a power of ten below 1 where it lies under that power) is
formatted by ``%`` one at a time.  The arithmetic keeps to int64 and to few distinct
numpy kernels: each kernel a process first runs adds its code pages to the
resident set.  The CSV writer in ``cli`` imports this module on its first
float column, so the CLI's start-up never compiles it.
"""

from __future__ import annotations

import numpy as np

CELL_WIDTH = 48


def _words(texts) -> np.ndarray:
    """Each text, NUL-padded to 8 bytes, as one little-endian int64."""
    return np.frombuffer("".join(text.ljust(8, "\0") for text in texts).encode(), dtype="<i8")


_FIXED = range(-4, 17)  # the exponents %.17g writes without "e"
_EXPONENTS = range(-11, 18)  # E + 11 indexes the tables below
_HEAD = _words("\0" + ("0.000"[: 1 - E] if E < 0 and E in _FIXED else "") for E in _EXPONENTS)  # sign slot, prefix
_TAIL = _words("" if E in _FIXED else f"e{E:+03d}" for E in _EXPONENTS)
_POINT = np.array([E if E in _FIXED else 0 for E in _EXPONENTS])  # the digit the point follows
_POW10 = np.array([10.0**j for j in range(-12, 19)])
_POW5 = np.array([5**k for k in range(28)])
_MASKS = np.array([(1 << s) - 1 for s in range(63)])
_KEEP_DIGITS = np.array([0, 0xFF, 0xFF00FF, 0xFF00FF00FF, 0xFF00FF00FF00FF])  # the first 0..4 digits of a group


def _group_table() -> np.ndarray:
    """Four-digit group abcd -> bytes a0b0c0d, then how many digits end at its last nonzero one."""
    groups = np.zeros((10,) * 4 + (8,), dtype=np.uint8)
    for i in range(4):  # axis i is digit i
        np.moveaxis(groups, i, -2)[..., 2 * i] = np.arange(ord("0"), ord("9") + 1)
        np.moveaxis(groups, i, 0)[1:, ..., 7] = i + 1
    return groups.view("<i8").ravel()


_GROUPS = _group_table()


def _scaled(m: np.ndarray, e: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 2**e * 10**(16 - E)) for m < 2**53, 0 <= 16 - E <= 27, and whether it rounds up, half to even.

    m * 5**(16 - E) is held in two words of 62 bits and shifted by
    E - 16 - e, which lies in [-4, 62] over the formatter's range.
    Every intermediate fits an int64.
    """
    low31 = (1 << 31) - 1
    p = _POW5[16 - E]
    m0, m1, p0, p1 = m & low31, m >> 31, p & low31, p >> 31
    mid = m0 * p1 + m1 * p0
    lo = ((mid & low31) << 31) + m0 * p0
    hi = m1 * p1 + (mid >> 31) + (lo >> 62)
    lo &= (1 << 62) - 1
    shift = E - 16 - e
    right = np.minimum(np.maximum(shift, 0), 62)
    N = ((hi << (62 - right)) | (lo >> right)) << np.maximum(-shift, 0)
    mask = _MASKS[right]
    half = mask - (mask >> 1)
    lo &= mask
    return N, (lo > half) | ((lo == half) & (half > 0) & (N & 1 == 1))


def float_cells(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float, as a ``(len(values), CELL_WIDTH)`` uint8 matrix."""
    x = np.asarray(values, dtype=np.float64)
    bits = x.view(np.int64)
    biased = (bits >> 52) & 0x7FF
    fast = (biased >= 1023 - 37) & (biased <= 1023 + 56)  # 2**-37 <= |v| < 2**57, a decade either side
    sel = np.flatnonzero(fast)
    b, biased = bits[sel], biased[sel] - 1023
    m = (b & ((1 << 52) - 1)) | (1 << 52)
    E = (biased * 78913) >> 18  # floor(log10(2**biased)); |v| may reach the next power of ten
    E = np.minimum(np.maximum(E + (np.abs(x[sel]) >= _POW10[E + 13]), -11), 16)
    N, up = _scaled(m, biased - 52, E)
    # 17 digits, or E was clipped, or |v| lies between 10**j and the double nearest it (j < 0)
    exact = (N >= 10**16) & (N < 10**17)
    if not exact.all():
        fast[sel[~exact]] = False
        sel, b, N, up, E = sel[exact], b[exact], N[exact], up[exact], E[exact]
    N += up
    carry = N == 10**17
    N[carry] = 10**16
    E += carry
    E += 11  # from here a row of the exponent tables
    words = np.empty((len(sel), CELL_WIDTH // 8), dtype="<i8")
    lead = N // 10**16
    words[:, 0] = _HEAD[E] | (-(b >> 63) * ord("-")) | ((lead + ord("0")) << 48)
    words[:, -1] = _TAIL[E]
    N -= lead * 10**16
    digits = np.ones(len(N), dtype=np.int64)  # significant digits, trailing zeros dropped
    for j in range(4, 0, -1):
        rest = N // 10**4
        group = _GROUPS[N - rest * 10**4]
        words[:, j] = group & ((1 << 56) - 1)
        significant = group >> 56
        digits = np.maximum(digits, (significant + (4 * j - 3)) * (significant > 0))
        N = rest
    point = _POINT[E]
    keep = np.maximum(digits, point + 1)  # integer digits stay
    for j in range(1, 5):
        words[:, j] &= _KEEP_DIGITS[np.minimum(np.maximum(keep - (4 * j - 3), 0), 4)]
    dot = np.flatnonzero((digits - 1 > point) & (point >= 0))
    cells = words.view(np.uint8)
    cells[dot, 7 + 2 * point[dot]] = ord(".")
    if len(sel) == len(x):
        return cells
    cells, fast_cells = np.zeros((len(x), CELL_WIDTH), dtype=np.uint8), cells
    cells[sel] = fast_cells
    slow = np.flatnonzero(~fast)
    text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{CELL_WIDTH}")
    cells[slow] = text.view(np.uint8).reshape(len(slow), CELL_WIDTH)
    return cells
