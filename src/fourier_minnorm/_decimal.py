"""Exact ``"%.17g"`` text of float64 arrays, as rows of a NUL-padded byte matrix.

A cell is one row of ``CELL_WIDTH = 24`` bytes, read as three little-endian
int64 words.  NUL fills every unused byte, so deleting the NULs of a row
leaves the cell's text.  Byte 0 holds the sign (``-``, or NUL for a
positive value); the text follows: ``d.ddd``, ``0.000ddd`` or
``d.ddde-XX``.  The exponent always sits in bytes 19 to 22.  Only a
``%``-formatted cell can fill all 24 bytes (``-4.9406564584124654e-324``).

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
time, and so is every value of an array shorter than ``_VECTOR_MIN``: the
vectorised path costs a fixed 60-80 us a call in numpy dispatch, more than
``%`` takes for that many values.  The arithmetic keeps to int64 and to few
distinct numpy kernels: each kernel a process first runs adds its code
pages to the resident set.  To keep the dispatch short, the path looks up
the four digit quads of every value in one ``take``, gathers only when a
value lies outside its range, and takes its int64 constants as 0-d arrays
(``_I64``).  The CSV writer in ``cli`` imports this module on its first
float column, so the CLI's start-up never compiles it.
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
_QUAD_FIRST = np.array([[0], [4], [8], [12]])  # digits before each quad


class _Int64Constants(dict):
    """Read-only 0-d int64 arrays by value, each made on its first use.

    numpy pairs an int64 array with one of these as it is; a Python int it
    converts again on every operation (NEP 50), about 0.3 us each time.
    """

    def __missing__(self, value: int) -> np.ndarray:
        self[value] = constant = np.array(value, dtype=np.int64)
        constant.flags.writeable = False
        return constant


_I64 = _Int64Constants()
# Below this many values, Python's % formats an array faster than the vectorised path (BENCH_25.json)
_VECTOR_MIN = 144


def _scaled(m: np.ndarray, e: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 2**e * 10**(16 - E)) for m < 2**53, 0 <= 16 - E <= 27, and whether it rounds up, half to even.

    m * 5**(16 - E) is held in two words of 62 bits and shifted by
    E - 16 - e, which lies in [-4, 62] over the formatter's range.
    Every intermediate fits an int64.
    """
    low31, k31, k62 = _I64[(1 << 31) - 1], _I64[31], _I64[62]
    p = _POW5.take(_I64[16] - E)
    m0, m1, p0, p1 = m & low31, m >> k31, p & low31, p >> k31
    mid = m0 * p1 + m1 * p0
    lo = ((mid & low31) << k31) + m0 * p0
    hi = m1 * p1 + (mid >> k31) + (lo >> k62)
    lo &= _I64[(1 << 62) - 1]
    shift = E - _I64[16] - e
    right = np.minimum(np.maximum(shift, _I64[0]), k62)
    N = ((hi << (k62 - right)) | (lo >> right)) << np.maximum(-shift, _I64[0])
    mask = _MASKS.take(right)
    half = mask - (mask >> _I64[1])
    lo &= mask
    return N, (lo > half) | ((lo == half) & (half > _I64[0]) & (N & _I64[1] == _I64[1]))


def _digit_words(N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each 10**16 <= N < 10**17 as three rows of words, and the index of its last nonzero digit.

    Digit i sits in byte 1 + i of a cell.  Overwrites N.
    """
    lead = N // _I64[10**16]
    N -= lead * _I64[10**16]
    quads = np.empty((2, 2, len(N)), dtype=np.int64)  # digits 1-4, 5-8, 9-12 and 13-16 as numbers
    np.floor_divide(N, _I64[10**8], out=quads[0, 1])
    np.subtract(N, quads[0, 1] * _I64[10**8], out=quads[1, 1])
    np.floor_divide(quads[:, 1], _I64[10**4], out=quads[:, 0])
    quads[:, 1] -= quads[:, 0] * _I64[10**4]
    text = _QUAD_TEXT.take(quads)  # one lookup for the four
    last = ((text >> _I64[32]).reshape(4, -1) + _QUAD_FIRST).max(axis=0)
    yz = (text[:, 0] & _I64[0xFFFFFFFF]) | (text[:, 1] << _I64[32])  # digits 1-8, then 9-16
    words = np.empty((3, len(N)), dtype=np.int64)
    np.bitwise_or((lead + _I64[ord("0")]) << _I64[8], yz[0] << _I64[16], out=words[0])
    np.bitwise_or(yz[0] >> _I64[48], yz[1] << _I64[16], out=words[1])
    np.right_shift(yz[1], _I64[48], out=words[2])
    return words, last


def _percent_cells(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each float through Python's ``%``, one at a time, as rows of ``CELL_WIDTH`` bytes."""
    text = np.array([b"%.17g" % v for v in values.tolist()], dtype=f"S{CELL_WIDTH}")
    return text.view(np.uint8).reshape(len(values), CELL_WIDTH)


def float_cells(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float, as a ``(len(values), CELL_WIDTH)`` uint8 matrix."""
    x = np.asarray(values, dtype=np.float64)
    if len(x) < _VECTOR_MIN:
        return _percent_cells(x)
    bits = x.view(np.int64)
    biased = (bits >> _I64[52]) & _I64[0x7FF]
    fast = (biased >= _I64[1023 - 37]) & (biased <= _I64[1023 + 56])  # 2**-37 <= |v| < 2**57, a decade either side
    b, magnitude = bits, x
    if not fast.all():
        b, biased, magnitude = bits[fast], biased[fast], x[fast]
    biased -= _I64[1023]
    m = (b & _I64[(1 << 52) - 1]) | _I64[1 << 52]
    E = (biased * _I64[78913]) >> _I64[18]  # floor(log10(2**biased)); |v| may reach the next power of ten
    E = np.minimum(np.maximum(E + (np.abs(magnitude) >= _POW10.take(E + _I64[13])), _I64[-11]), _I64[16])
    N, up = _scaled(m, biased - _I64[52], E)
    # 17 digits, or E was clipped, or |v| lies between 10**j and the double nearest it (j < 0)
    exact = (N >= _I64[10**16]) & (N < _I64[10**17])
    if not exact.all():
        fast[fast] = exact
        b, N, up, E = b[exact], N[exact], up[exact], E[exact]
    N += up
    carry = N == _I64[10**17]
    N[carry] = _I64[10**16]
    E += carry
    E += _I64[11]
    layout = _LAYOUT.take(E, axis=1)
    low, fill, exponent, last, split, gap = layout[:3], layout[3:6], layout[6], layout[7], layout[8], layout[9]
    w, last_digit = _digit_words(N)
    np.maximum(last, last_digit, out=last)  # the last digit kept: the last nonzero or integer one
    length = _I64[2] + last + (last >= split) * gap  # of the text before the exponent
    low &= w  # the digits before the split stay
    w ^= low  # the rest move right by the gap, across word boundaries
    gap <<= _I64[3]
    back = _I64[64] - gap
    mask = _LENGTH_MASKS.take(length, axis=1)
    words = np.empty((len(N), CELL_WIDTH // 8), dtype="<i8")
    sign = (b >> _I64[63]) & _I64[ord("-")]
    np.bitwise_and(low[0] | (w[0] << gap) | fill[0] | sign, mask[0], out=words[:, 0])
    np.bitwise_and(low[1] | (w[1] << gap) | (w[0] >> back) | fill[1], mask[1], out=words[:, 1])
    np.bitwise_or((low[2] | (w[2] << gap) | (w[1] >> back) | fill[2]) & mask[2], exponent, out=words[:, 2])
    cells = words.view(np.uint8)
    if len(cells) == len(x):
        return cells
    cells, fast_cells = np.empty((len(x), CELL_WIDTH), dtype=np.uint8), cells
    cells[fast] = fast_cells
    slow = ~fast
    cells[slow] = _percent_cells(x[slow])
    return cells
