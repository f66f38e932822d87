"""Exact '%.17g' formatting of float64 values, a block at a time in numpy.

`write_records` writes each value as a record of four little-endian 64-bit
words, NULs marking unused bytes, so that dropping the NULs gives the bytes
of '%.17g' % v and a newline; `format_17g` returns the records as bytes.
`export_grid` has every W value written straight into its line buffer.
Formatting one value at a time costs 0.6 µs at |v| = 0.1 and 1.2 µs at
1e-60 on a 2-core Xeon, because 17 digits take CPython's dtoa past its
14-digit fast path into bignum arithmetic.  In blocks of 8 192 values a
value costs about 0.07 µs, half of it for its digits (`_decimal`) and half
for its record: a lookup for word 0 (sign, "0." and zeros, first digit and
point), two four-digit-group lookups each for words 1 and 2 (digits 1-16,
up to the last non-zero one) and a lookup for word 3 (exponent, newline).
"""

from __future__ import annotations

import functools

import numpy as np

# `format_17g` scales |v| by 10^(16 - X) in double-double arithmetic against
# 10^q = hi + lo (hi split into 26-bit halves for Dekker's exact product).
# Within these bounds every part stays a normal float; values outside them
# go to '%.17g' itself.
FAST_MIN, FAST_MAX = 1e-290, 1e290
_X_MIN, _X_MAX = -292, 291  # decimal exponents of those |v|, log10's ±1 included
_SPLIT = 134217729.0  # 2**27 + 1
# the scaled value, below 1e17, is off by at most about 3 2^-106 1e17 = 4e-15;
# a fraction this close to one half may be a tie, which '%.17g' rounds to even
_TIE = 1e-9
@functools.cache
def _tables():
    """10^q for q = 16 - X as (hi_hi, hi_lo, lo), and the four-digit group tables."""
    hi, lo = [], []
    for q in range(16 - _X_MAX, 17 - _X_MIN):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = num / den  # correctly rounded, as is every int / int
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    # Veltkamp's split of hi, scaled into [0.5, 1) so that 1e308 cannot overflow
    f, e = np.frexp(np.array(hi))
    c = f * _SPLIT
    f_hi = c - (c - f)
    # each four-digit group as four characters, and how many zeros end it
    groups = np.arange(10_000, dtype=np.int16)
    quads = np.empty((10_000, 4), np.uint8)
    trailing = np.zeros(10_000, np.int8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        quads[:, k] = groups // unit % 10 + ord("0")
        trailing += groups % (10 * unit) == 0
    quads = quads.view(np.uint32).ravel()
    return np.ldexp(f_hi, e), np.ldexp(f - f_hi, e), np.array(lo), quads, trailing


def _scaled(a: np.ndarray, x: np.ndarray):
    """a 10^(16 - x) as p + s: p = fl(a hi), s the exact rest plus a lo."""
    hi_hi, hi_lo, lo = _tables()[:3]
    i = _X_MAX - x
    hh, hl = hi_hi[i], hi_lo[i]
    p = a * (hh + hl)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    return p, (((ah * hh - p) + ah * hl) + al * hh) + al * hl + a * lo[i]


def _exponent_error(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """+1 where p + s >= 1e17, -1 where p + s < 1e16, else 0."""
    above = (p > 1e17) | ((p == 1e17) & (s >= 0))
    below = (p < 1e16) | ((p == 1e16) & (s < 0))
    return above.astype(np.int64) - below


def _decimal(values: np.ndarray):
    """(r, x, fast): |v| rounded to r 10^(x - 16), 1e16 <= r < 1e17, where fast.

    r is correctly rounded where `fast`; zeros give r = 0 and x = 0.
    """
    a = np.abs(values)
    zero = a == 0
    fast = (a >= FAST_MIN) & (a < FAST_MAX)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, x)
    error = _exponent_error(p, s)
    fix = np.flatnonzero(error)
    if fix.size:
        x[fix] += error[fix]
        p[fix], s[fix] = _scaled(a[fix], x[fix])
        fast[fix] &= _exponent_error(p[fix], s[fix]) == 0
    # 1e16 <= p + s < 1e17, so p is an integer and s holds the fraction
    whole = np.floor(s)
    s -= whole
    r = p.astype(np.int64) + whole.astype(np.int64) + (s > 0.5)
    fast &= np.abs(s - 0.5) > _TIE
    carry = r == 10**17
    x += carry
    r[carry | ~fast] = 10**16
    r[zero] = 0
    x[zero] = 0
    return r, x, fast | zero


# one formatted value: four little-endian 64-bit words, NUL marking unused bytes
RECORD = 32
# word 0 by layout: d0 alone, d0 and a point, and "0." and up to three zeros ahead of d0
_LEADS = (b"%d", b"%d.", b"0.%d", b"0.0%d", b"0.00%d", b"0.000%d")
# the low k bytes of a word, k = 0 ... 8
_FIRST = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_HALF = np.uint64(32)  # bits in half a word


def _word(text: bytes) -> int:
    """Up to eight bytes as a little-endian word, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _words():
    """The lookup tables of a record's four words.

    lead[20 layout + 10 sign + d0] is word 0, the sign 1 for a minus and
    the layout one of `_LEADS`.  quads[g] holds the four-digit group g in
    the low half of a word: the first 10 000 entries stop at its last
    non-zero digit, NULs in place of the zeros after it, and the next
    10 000 hold all four digits, for a group that digits follow.  Indexed
    by X - _X_MIN, layout is 20 times word 0's layout where digits follow
    d0, and tail is word 3: "e±XX" and a newline for X < -4 or X > 16,
    else the newline alone.
    """
    lead = [_word(sign + form % d) for form in _LEADS for sign in (b"", b"-") for d in range(10)]
    groups, trailing = _tables()[3:]
    full = groups.astype(np.uint64)
    exponents = range(_X_MIN, _X_MAX + 1)
    layout = [1 if x < -4 or x > 16 else 1 - x if x < 0 else int(x == 0) for x in exponents]
    tail = [_word(b"e%+03d\n" % x if x < -4 or x > 16 else b"\n") for x in exponents]
    return (np.array(lead, np.uint64), np.concatenate([full & _FIRST[4 - trailing], full]),
            20 * np.array(layout, np.intp), np.array(tail, np.uint64))


def _insert_point(w: np.ndarray, at: np.ndarray) -> np.ndarray:
    """w with a point before its byte `at`, the bytes from there on one byte higher."""
    below = w & _FIRST.take(at)
    return below | np.uint64(ord(".")) << 8 * at.astype(np.uint64) | (w ^ below) << np.uint64(8)


def write_records(values: np.ndarray, out: np.ndarray) -> None:
    """Write the record of each value into the rows of out, an (n, 4) uint64 array.

    out may be a strided view, such as the last four words of each line of
    a buffer.  Word 0 holds the sign, the "0." and zeros ahead of X < 0, d0
    and the point after it; words 1 and 2 hold digits 1-8 and 9-16 through
    the last non-zero one; word 3 holds the exponent and the newline, or the
    newline alone.  Each word is one or two lookups in `_words`' tables
    and is written as one column.  For 1 <= |v| < 1e17 the point follows
    digit X >= 1 instead: every digit through X shows, and a shift of
    words 1-2 by one byte, into word 3, makes room for a point.
    """
    lead, quads, layout, tail = _words()
    r, x, fast = _decimal(values)
    # r is the digit d0 and the four-digit groups g0 ... g3; g1 and g3 start
    # as d0 g0 g1 and g2 g3, and each split leaves the remainder in place
    g1 = r // 10**8
    g3 = r - g1 * 10**8
    del r
    g0 = g1 // 10**4
    g1 -= g0 * 10**4
    d0 = g0 // 10**4
    g0 -= d0 * 10**4
    g2 = g3 // 10**4
    g3 -= g2 * 10**4
    # a group shows all four digits where a later one shows any, so the
    # words end at the last non-zero digit
    w2 = quads.take(g2 + (g3 != 0) * 10**4) | quads.take(g3) << _HALF
    more = w2 != 0
    w1 = quads.take(g0 + ((g1 != 0) | more) * 10**4) | quads.take(g1 + more * 10**4) << _HALF
    x -= _X_MIN
    form = layout.take(x)
    form -= ((form == 20) & (w1 == 0)) * 20  # no point after d0 that no digit follows
    form += np.signbit(values) * 10
    form += d0
    out[:, 0] = lead.take(form)
    out[:, 1] = w1
    out[:, 2] = w2
    out[:, 3] = tail.take(x)
    x += _X_MIN
    whole = np.flatnonzero((x > 0) & (x < 17))
    if whole.size:
        at = x[whole]
        m1, m2 = _FIRST.take(np.minimum(at, 8)), _FIRST.take(np.maximum(at - 8, 0))
        w1, w2 = w1[whole], w2[whole]
        point = ((w1 & ~m1) | (w2 & ~m2)) != 0
        w1 |= (quads.take(g0[whole] + 10**4) | quads.take(g1[whole] + 10**4) << _HALF) & m1
        w2 |= (quads.take(g2[whole] + 10**4) | quads.take(g3[whole] + 10**4) << _HALF) & m2
        first, at = point & (at < 8), at % 8
        out[whole, 1] = np.where(first, _insert_point(w1, at), w1)
        out[whole, 2] = np.where(first, w2 << np.uint64(8) | w1 >> np.uint64(56),
                                 np.where(point, _insert_point(w2, at), w2))
        newline = np.uint64(ord("\n"))
        out[whole, 3] = np.where(point, w2 >> np.uint64(56) | newline << np.uint64(8), newline)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _fallback(values[slow])


def _fallback(values: np.ndarray) -> np.ndarray:
    """The records of values that '%.17g' itself formats, as an (n, 4) uint64 array."""
    texts = [b"%.17g" % v for v in values.tolist()]
    text = b"".join(t.ljust(RECORD - 1, b"\0") + b"\n" for t in texts)
    return np.frombuffer(text, "<u8").reshape(-1, 4)


def format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v and a newline for each v, as an (n, RECORD) uint8 array.

    Dropping the NUL bytes of a row gives exactly the bytes of '%.17g' % v.
    The 17 correctly rounded digits come from the scaled |v| 10^(16 - X) in
    double-double arithmetic (`_scaled`), with X = floor(log10 |v|)
    corrected by one where log10 rounded across a power of ten.  Their layout
    follows %g: X < -4 or X > 16 gives d.ddd e±XX, otherwise positional
    notation with "0." and up to three zeros ahead of X < 0, trailing
    fraction zeros dropped; `write_records` lays it out.  '%.17g' % v itself
    formats only the values this cannot decide: NaN, ±inf, 0 < |v| < 1e-290,
    |v| >= 1e290, and values whose digits beyond the 17th lie within _TIE of
    one half.
    """
    out = np.empty((values.size, 4), "<u8")
    write_records(values, out)
    return out.view(np.uint8)
