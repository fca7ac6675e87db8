"""Exact ``"%.17g"`` text of float64 arrays, as rows of a NUL-padded byte matrix.

A cell is one row of ``CELL_WIDTH = 24`` bytes, read as three little-endian
int64 words.  NUL fills every unused byte, so deleting the NULs of a row
leaves the cell's text.  Byte 0 holds the sign (``-``, or NUL for a
positive value); the text follows: ``d.ddd``, ``0.000ddd`` or
``d.ddde-XX``.  The exponent always sits in bytes 19 to 22, so a cell of
this path uses at most bytes 0 to 22 and its row's last byte stays NUL.
Only a ``%``-formatted cell can fill all 24 bytes
(``-4.9406564584124654e-324``).

For ``1e-11 <= |v| < 1e17`` the 17 significant digits come from exact
integer arithmetic: ``v * 10**(16 - E)`` for the decimal exponent ``E`` of
``v``, rounded half to even on the exact remainder, as ``%`` rounds.  The
digits are written one byte each after the sign slot.  Then one per-row
byte shift opens the gap for the point (or, for ``E < 0``, the ``0.000``
prefix): the digits past the split move right by the gap's width.  Tables
indexed by ``E`` give the split mask, the gap, and the point, prefix and
exponent bytes.  A mask indexed by the text's length cuts the trailing
zeros, and the point too when no digit follows it.  Every other value (0,
-0, nan, inf, subnormals, far exponents, and the double nearest a power of
ten below 1 where it lies under that power) is formatted by ``%`` one at a
time.  The arithmetic keeps to int64 and to few distinct numpy kernels:
each kernel a process first runs adds its code pages to the resident set.
The CSV writer in ``cli`` imports this module on its first float column, so
the CLI's start-up never compiles it.
"""

from __future__ import annotations

import numpy as np

CELL_WIDTH = 24


def _row(*parts: tuple[int, bytes]) -> list[int]:
    """A 24-byte row holding each ``(offset, text)`` part, as three little-endian words."""
    row = bytearray(CELL_WIDTH)
    for offset, text in parts:
        row[offset : offset + len(text)] = text
    return np.frombuffer(bytes(row), dtype="<i8").tolist()


_FIXED = range(-4, 17)  # the exponents %.17g writes without "e"
_EXPONENTS = range(-11, 18)  # E + 11 indexes the layout table


def _layout_table() -> np.ndarray:
    """Per exponent E: split mask and fill (3 words each), exponent word, last digit kept, split, gap.

    The last digit kept is the last integer digit (or the first digit) even
    when it is a zero.  The digits start at byte 1.  Those before the split
    stay; the rest move right by the gap, whose bytes the fill takes: the
    point after digit E (d.ddd), the point after the first digit
    (d.ddde-XX), or ``0.`` and -1 - E zeros before every digit (0.000ddd).
    """
    table = []
    for E in _EXPONENTS:
        if E in _FIXED and E < 0:
            split, gap, fill = 0, 1 - E, (1, b"0.000"[: 1 - E])
        else:
            split = E + 1 if E in _FIXED else 1
            gap, fill = 1, (1 + split, b".")
        exponent = b"" if E in _FIXED else f"e{E:+03d}".encode()
        masks = _row((0, b"\xff" * (1 + split))) + _row(fill) + _row((19, exponent))[2:]
        table.append(masks + [max(split - 1, 0), split, gap])
    return np.array(table, dtype=np.int64).T.copy()


_LAYOUT = _layout_table()
# the first n bytes of a row, as three words: column n of each row of the table
_LENGTH_MASKS = np.array([_row((0, b"\xff" * n)) for n in range(CELL_WIDTH + 1)], dtype=np.int64).T.copy()
_POW10 = np.array([10.0**j for j in range(-12, 19)])
_POW5 = np.array([5**k for k in range(28)])
_MASKS = np.array([(1 << s) - 1 for s in range(63)])


def _quad_table() -> np.ndarray:
    """Four digits abcd -> the bytes "abcd" in the low half, the index of the last nonzero digit in the high half.

    The index counts from 1 (4 for abc1); it is -64 for 0000, so it never
    wins a maximum.
    """
    value = np.arange(10**4)
    text = sum((value // 10**k % 10 + ord("0")) << (8 * (3 - k)) for k in range(4))
    significant = np.select([value % 10**k > 0 for k in range(1, 5)], [4, 3, 2, 1], -64)
    return text | (significant << 32)


_QUAD_TEXT = _quad_table()


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


def _digit_words(N: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits of each 10**16 <= N < 10**17 as three words, digit i in byte 1 + i, and its last nonzero digit.

    Overwrites N.
    """
    lead = N // 10**16
    N -= lead * 10**16
    hi = N // 10**8
    N -= hi * 10**8
    quads = []
    for half in (hi, N):
        quad = half // 10**4
        half -= quad * 10**4
        quads += [np.take(_QUAD_TEXT, quad), np.take(_QUAD_TEXT, half)]
    last = np.zeros_like(lead)
    for quad, first in zip(quads, (1, 5, 9, 13)):
        np.maximum(last, (quad >> 32) + (first - 1), out=last)
    y = (quads[0] & 0xFFFFFFFF) | (quads[1] << 32)  # digits 1-8
    z = (quads[2] & 0xFFFFFFFF) | (quads[3] << 32)  # digits 9-16
    return ((lead + ord("0")) << 8) | (y << 16), (y >> 48) | (z << 16), z >> 48, last


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
    E += 11
    low0, low1, low2, fill0, fill1, fill2, exponent, last, split, gap = np.take(_LAYOUT, E, axis=1)
    w0, w1, w2, last_digit = _digit_words(N)
    np.maximum(last, last_digit, out=last)  # the last digit kept: the last nonzero or integer one
    length = 2 + last + (last >= split) * gap  # of the text before the exponent
    low0 &= w0  # the digits before the split stay
    low1 &= w1
    low2 &= w2
    w0 ^= low0  # the rest move right by the gap, across word boundaries
    w1 ^= low1
    w2 ^= low2
    gap <<= 3
    back = 64 - gap
    mask0, mask1, mask2 = np.take(_LENGTH_MASKS, length, axis=1)
    words = np.empty((len(sel), CELL_WIDTH // 8), dtype="<i8")
    np.bitwise_and(low0 | (w0 << gap) | fill0 | ((b >> 63) & ord("-")), mask0, out=words[:, 0])  # and the sign
    np.bitwise_and(low1 | (w1 << gap) | (w0 >> back) | fill1, mask1, out=words[:, 1])
    np.bitwise_or((low2 | (w2 << gap) | (w1 >> back) | fill2) & mask2, exponent, out=words[:, 2])
    cells = words.view(np.uint8)
    if len(sel) == len(x):
        return cells
    cells, fast_cells = np.zeros((len(x), CELL_WIDTH), dtype=np.uint8), cells
    cells[sel] = fast_cells
    slow = np.flatnonzero(~fast)
    text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{CELL_WIDTH}")
    cells[slow] = text.view(np.uint8).reshape(len(slow), CELL_WIDTH)
    return cells
