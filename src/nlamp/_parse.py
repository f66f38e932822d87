"""Exact reading of the W column of a Wigner CSV, a chunk of whole lines at a time.

`read_w` decodes the third field of every "x,p,w" line in numpy and returns
exactly what `np.loadtxt(..., delimiter=",", usecols=2)` would.  That
reader sends each 17-digit field through CPython's correctly rounded,
bignum-backed conversion, about 0.45 µs per value on a 2-core Xeon; this
one reads a 321² grid in about half its time.  It reads only files in
export layout (see `_decode`); for any other file it returns None, so that
the caller can hand the file to `np.loadtxt` unchanged.

A field's bytes are read eight at a time as little-endian 64-bit words
(SWAR, "SIMD within a register"), which give an integer N < 10^18 and an
exponent q with the field's value N 10^q exactly.  N 10^q is then rounded
to float64 in double-double arithmetic against `format_17g`'s table of
powers of ten, so reading inverts that formatter.  `float()` decodes only
NaN and ±inf, exponents outside the table, and values within 2^-20 of a
tie between two floats, where the double-double result cannot decide the
rounding.
"""

from __future__ import annotations

import numpy as np

from ._format import _SPLIT, _X_MAX, _tables

_CHUNK = 1 << 18  # bytes read at once, then completed to a whole line
_LINE = 256  # a longer line is not in export layout: its chunk ends mid-line
_MAX_VALUES = 1 << 24  # larger grids go to np.loadtxt, which grows as it reads
# the words read for a field start up to 29 bytes before its line's end and
# end up to 8 bytes after it
_PAD = 32
# the first power of ten q that `_tables` holds, and the largest used: N is
# below 10^18, so N 10^q stays below 10^290, where the formatter's range ends
_Q_MIN, _Q_TOP = 16 - _X_MAX, 272
_NEAR_TIE = 2.0**-20
_ONES = 0x0101010101010101  # 1 in each byte of a word
_SPECIAL = {b"nan", b"inf", b"-inf"}
_LINE_MARKS = np.array([44, 44, 10], np.uint8)  # ",", ",", newline


def _masks() -> np.ndarray:
    """Bytes kept of the four words read per field, by mantissa length m and exponent kind.

    The words are the 32 bytes from 24 before the mantissa's end.  Of words
    0-2 the last m bytes (the mantissa, m = -6 ... 24) are kept, of word 3
    the exponent's digits: none for kind 0, "e±dd" for kind 1, "e±ddd" for
    kind 2.  Kind 3 has an 'e' at both places and reads as kind 1.  The row
    for (m, kind) is 4 m + 24 + kind.
    """
    lane = np.arange(32)
    m = np.arange(-6, 25)[:, None, None]
    digits = np.array([0, 2, 3, 2])[:, None]
    keep = ((lane >= 24 - m) & (lane < 24)) | ((lane >= 26) & (lane < 26 + digits))
    return (keep * np.uint8(0xFF)).view("<u8").reshape(-1, 4)


_MASKS = _masks()
# bytes from the mantissa's end to the field's end, by exponent kind
_EXPONENT_BYTES = np.array([0, 4, 5, 4])
# the exponent's digits, read as an eight-digit word, are it times 10^4 or 10^3
_EXPONENT_SCALE = np.array([1, 10**4, 10**3, 10**4], np.uint64)
# 10^f for the f digits after a point, capped above every mantissa; f = 0
# means no point, and its 10^19 leaves the mantissa as it is
_POW10 = np.array([10**19] + [10 ** min(f, 19) for f in range(1, 25)], np.uint64)
# the point's byte after '0' is taken from every byte; in word 3, which
# holds no point, no ASCII byte matches
_POINTS = np.array([0x1E * _ONES] * 3 + [0x80 * _ONES], np.uint64)


def _round(n: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """n 10^q correctly rounded into out, and where that was not decided.

    p + t is n 10^q within about 2^-100 of it: n = nh + nl exactly, and
    10^q = (hh + hl) + lo as in `_format._scaled`, with Dekker's exact
    product nh (hh + hl).  r = fl(p + t) is then the correctly rounded
    value unless the exact rest p + t - r lies within 2^-20 of half the gap
    to r's neighbour on the rest's side.
    """
    hi_hi, hi_lo, lo = _tables()[:3]
    i = q - _Q_MIN
    hh, hl = hi_hi.take(i), hi_lo.take(i)
    hi = hh + hl
    nh = n.astype(np.float64)
    nl = (n - nh.astype(np.uint64)).view(np.int64).astype(np.float64)
    p = nh * hi
    ah = nh * _SPLIT
    al = ah - nh
    ah -= al
    np.subtract(nh, ah, out=al)
    t = ah * hh
    t -= p
    for a, b in ((ah, hl), (al, hh), (al, hl), (nh, lo.take(i)), (nl, hi)):
        t += a * b
    np.add(p, t, out=out)
    np.subtract(out, p, out=p)
    t -= p
    # the gap above r is 2^(e - 52) for r's biased exponent e, which is
    # above 52 here; below a power of two it is half that
    bits = out.view(np.uint64)
    gap = ((bits & (0x7FF << 52)) - (52 << 52)).view(np.float64)
    gap[(bits << 12 == 0) & (t < 0)] *= 0.5
    undecided = np.abs(t) >= (0.5 - _NEAR_TIE) * gap
    undecided &= n != 0
    return undecided


def _line_marks(body: np.ndarray, below: np.ndarray) -> np.ndarray | None:
    """The two commas and the newline of every line, as rows, or None if a line has others.

    The bytes below '-' are the marks, '+' and the bytes not in export
    layout ('\\r', '#', space, tab and below).  '+' appears only in
    exponents of 10^17 and above.
    """
    marks = np.flatnonzero(np.less(body, 0x2D, out=below))
    kinds = body[marks]
    plus = kinds == ord("+")
    if plus.any():
        marks, kinds = marks[~plus], kinds[~plus]
    if marks.size % 3 or not (kinds.reshape(-1, 3) == _LINE_MARKS).all():
        return None
    return marks.reshape(-1, 3)


def _decode(data: np.ndarray, below: np.ndarray, size: int, out: np.ndarray) -> int | None:
    """Decode the block data[_PAD : _PAD + size] into the front of out.

    Returns the number of values, or None if the block is not in export
    layout or out cannot take them all.  Export layout: every line is
    "x,p,w\\n" with exactly two commas, every byte is ASCII, no byte below
    '+' but the newline (so no '\\r', '#', space or tab), and every w is
    "nan", "inf", "-inf" or [-]D[.D]e±DD[D] or [-]D[.D], D a run of digits,
    with a mantissa of at most 22 bytes worth less than 10^18 as an integer.
    np.loadtxt ignores x and p, and '%.17g' writes w in this layout.
    """
    body = data[_PAD : _PAD + size]
    if size == 0 or body[-1] != 10 or body.max() >= 0x80:
        return None
    marks = _line_marks(body, below[:size])
    if marks is None or len(marks) > out.size:
        return None
    marks += _PAD
    comma, end = marks[:, 1], marks[:, 2]
    length = end - comma
    if length.min() < 2 or length.max() > 25:
        return None
    out = out[: len(marks)]

    # kind 1: "e±dd" ends the field, kind 2: "e±ddd"
    kind = (data[end - 4] == ord("e")) | ((data[end - 5] == ord("e")) << 1)
    mantissa_end = end - _EXPONENT_BYTES[kind]
    sign = data[mantissa_end + 1]
    negative = data[comma + 1] == ord("-")
    m = mantissa_end - comma - 1 - negative
    # 32 bytes from 24 before the mantissa's end: the mantissa in words 0-2,
    # the exponent's digits in word 3, every other byte made a '0'
    words = np.ndarray((data.size - 31,), "V32", data, 0, (1,))
    d = words[mantissa_end - 24].view("<u8").reshape(-1, 4)
    d ^= 0x30 * _ONES
    d &= _MASKS.take(4 * m + 24 + kind, axis=0)
    # digits are now 0-9 and a point 0x1e: flag the point's byte, then clear it
    x = d ^ _POINTS
    flags = ~((x + 0x7F * _ONES) | x) >> 7 & _ONES
    d -= flags * 0x1E
    np.add(d, 0x76 * _ONES, out=x)
    x &= 0x80 * _ONES  # bytes above 9
    # the point's byte in the 24-byte window as one bit of 24, and the
    # number f of mantissa bytes after it
    lanes = (flags * 0x0102040810204080 >> 56).astype(np.uint8).view("<u4")[:, 0]
    after = np.bitwise_count(((1 << 24) - (lanes << 1)) & 0xFFFFFF)
    # each word's eight digit values (the first in the lowest byte) as one integer
    for factor, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF)):
        d *= factor
        d >>= shift
        d &= keep
    d *= 42949672960001
    d >>= 32
    # with the point read as a 0 the mantissa reads n = I 10^(f + 1) + F,
    # and its digits I 10^f + F are n - 9 (n - F) / 10
    n = d[:, 0] * 10**16 + d[:, 1] * 10**8 + d[:, 2]
    n -= (n - n % _POW10.take(after)) // 10 * 9
    q = (d[:, 3] // _EXPONENT_SCALE.take(kind)).view(np.int64)
    np.negative(q, out=q, where=sign == ord("-"))
    q -= after
    valid = (
        (d[:, 0] < 100) & (m >= 1) & (m <= 22)
        & ((kind == 0) | (sign == ord("-")) | (sign == ord("+")))
        & ((lanes & (lanes - 1)) == 0)
        & ((lanes == 0) | ((after >= 1) & (after <= m - 2)))
    )
    if x.any():
        valid &= ~x.any(axis=1)
    inside = (q >= _Q_MIN) & (q <= _Q_TOP)
    q[~inside] = 0
    fast = valid & inside & ~_round(n, q, out)
    np.negative(out, out=out, where=negative)
    for k in np.flatnonzero(~fast).tolist():
        field = data[comma[k] + 1 : end[k]].tobytes()
        if not valid[k] and field not in _SPECIAL:
            return None
        if not valid[k] or n[k]:
            out[k] = float(field)
    return out.size


def read_w(source, count: int) -> np.ndarray | None:
    """The count W values after the header of a CSV open in binary mode, or None.

    None means the rest is not `count` lines in export layout.
    """
    if count > _MAX_VALUES:
        return None
    buffer = bytearray(b"\n" * _PAD + bytes(_CHUNK + _LINE + 8))
    view = memoryview(buffer)[_PAD:]
    data = np.frombuffer(buffer, np.uint8)
    below = np.empty(_CHUNK + _LINE, bool)
    out = np.empty(count)
    filled = 0
    # each block is a chunk completed to a whole line; a line too long to
    # complete is not in export layout and fails `_decode`
    while size := source.readinto(view[:_CHUNK]):
        tail = source.readline(_LINE)
        view[size : size + len(tail)] = tail
        lines = _decode(data, below, size + len(tail), out[filled:])
        if lines is None:
            return None
        filled += lines
    return out if filled == count else None
