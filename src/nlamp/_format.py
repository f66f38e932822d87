"""Exact '%.17g' formatting of float64 values, a block at a time in numpy.

`format_17g` lays out each value as a fixed-width record of bytes, NULs
marking unused slots, so that dropping the NULs gives the bytes of
'%.17g' % v.  `export_grid` writes every W value through it.  Formatting
one value at a time costs 0.6 µs at |v| = 0.1 and 1.2 µs at 1e-60 on a
2-core Xeon, because 17 digits take CPython's dtoa past its 14-digit fast
path into bignum arithmetic; a block of 4 096 values costs about 0.18 µs
per value.
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
# one formatted value: sign, "0.000", d0 . d1 . ... . d16, "e", exponent sign,
# three exponent digits, newline; NUL marks an unused slot
RECORD = 45


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


def format_17g(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v and a newline for each v, as an (n, RECORD) uint8 array.

    Dropping the NUL bytes of a row gives exactly the bytes of '%.17g' % v.
    The 17 correctly rounded digits come from the scaled |v| 10^(16 - X) in
    double-double arithmetic (`_scaled`), with X = floor(log10 |v|)
    corrected by one where log10 rounded across a power of ten.  Their layout
    follows %g: X < -4 or X > 16 gives d.ddd e±XX, otherwise positional
    notation with "0." and up to three zeros ahead of X < 0, trailing
    fraction zeros dropped.  '%.17g' % v itself formats only the values this
    cannot decide: NaN, ±inf, 0 < |v| < 1e-290, |v| >= 1e290, and values whose
    digits beyond the 17th lie within _TIE of one half.
    """
    n = values.size
    quads, trailing = _tables()[3:]
    r, x, fast = _decimal(values)
    # r is the digit d0 and the four-digit groups g[0..3], each exact in float64
    top = r // 10**8
    upper, lower = top.astype(float), (r - top * 10**8).astype(float)
    d0 = np.floor(upper / 1e8)
    upper -= 1e8 * d0
    g = np.empty((4, n))
    g[0] = np.floor(upper / 1e4)
    g[1] = upper - 1e4 * g[0]
    g[2] = np.floor(lower / 1e4)
    g[3] = lower - 1e4 * g[2]
    g = g.astype(np.intp)
    # zeros that end r: past an all-zero group, count on into the one before it
    zeros = trailing[g[3]]
    for k in (2, 1, 0):
        zeros = np.where(zeros == 12 - 4 * k, zeros + trailing[g[k]], zeros)

    expo = (x < -4) | (x > 16)
    small = (x < 0) & ~expo
    # the point follows digit `point`; for 1e-4 <= |v| < 1 it is in the "0." ahead
    point = np.where(expo, 0, np.where(small, -1, x)).astype(np.int8)
    # every digit before the point shows, and the rest through the last non-zero one
    shown = np.maximum(17 - zeros, point + 1)
    out = np.zeros((RECORD, n), np.uint8)
    out[0] = np.signbit(values) * np.uint8(ord("-"))
    out[1] = small * np.uint8(ord("0"))
    out[2] = small * np.uint8(ord("."))
    for k in (1, 2, 3):
        out[2 + k] = (small & (x < -k)) * np.uint8(ord("0"))
    digits = out[6:39:2]
    digits[0] = d0 + ord("0")
    for k in range(4):
        digits[1 + 4 * k : 5 + 4 * k] = quads[g[k]].view(np.uint8).reshape(n, 4).T
    rank = np.arange(17, dtype=np.int8)[:, None]
    digits *= rank < shown
    out[7:39:2] = ((rank[:16] == point) & (shown > point + 1)) * np.uint8(ord("."))
    ax = np.abs(x)
    out[39] = expo * np.uint8(ord("e"))
    out[40] = np.where(expo, np.where(x < 0, ord("-"), ord("+")), 0)
    out[41] = np.where(expo & (ax >= 100), ord("0") + ax // 100, 0)
    out[42] = np.where(expo, ord("0") + ax // 10 % 10, 0)
    out[43] = np.where(expo, ord("0") + ax % 10, 0)
    out[44] = ord("\n")
    out = out.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [b"%.17g" % v for v in values[slow].tolist()]
        text = b"".join(t.ljust(RECORD - 1, b"\0") + b"\n" for t in texts)
        out[slow] = np.frombuffer(text, np.uint8).reshape(-1, RECORD)
    return out
