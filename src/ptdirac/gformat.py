"""Byte-exact, vectorized `%g` text of arrays of floats.

`format_block` writes a 2-D block of finite floats >= 0 (no -0.0) as text, row
by row, each field followed by its separator, with the bytes of a row-by-row
f"{x:.{precision}g}".  The digits come from a double-double pass that proves
its rounding (`_decimal`), and `%` (`_fmt`) prints each value that pass
cannot decide.  The dispersion command imports this module only when it
writes a table, so no other command loads it.
"""
from __future__ import annotations

import functools

import numpy as np

# Dekker's constant 2**27 + 1: with c = x * _SPLIT, xh = c - (c - x) and
# x - xh are halves of x of at most 26 significant bits, so the products of
# halves are exact.
_SPLIT = 134217729.0
# Decimal exponents beyond this are printed by `%`: within it no split
# overflows and no partial product of the scaling underflows.
_EXP_RANGE = 270


def _fmt(x: float, p: int) -> str:
    """`%` text of one finite x >= 0 (no -0.0), the fallback of `_decimal`."""
    return f"{x:.{p}g}"


@functools.cache
def _pow10(s: int) -> tuple[float, float, float, float]:
    """10**s as hi + lo, hi the double nearest to it and lo the double
    nearest to the rest, followed by the two Dekker halves of hi."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


def _scaled(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**s as a double-double ph + pl: Dekker's exact product of x and
    hi, plus x * lo."""
    s0 = int(s.min())
    hi, lo, hh, hl = np.array([_pow10(t) for t in range(s0, int(s.max()) + 1)]).T
    i = s - s0
    xh = _SPLIT * x
    xh -= xh - x
    xl = x - xh
    ph = x * hi.take(i)
    # ((xh hh - ph) + xh hl + xl hh) + xl hl, then + x lo
    hh, hl = hh.take(i), hl.take(i)
    pl = xh * hh
    pl -= ph
    pl += xh * hl
    pl += xl * hh
    pl += xl * hl
    pl += x * lo.take(i)
    return ph, pl


def _decimal(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, slow): x rounded half-to-even to d 10**(e-p+1), d an integer in
    [10**(p-1), 10**p) (d = e = 0 at x = 0), and where `%` must decide.

    Scale: e = floor(log10 x), fixed up once each way, makes y = x 10**(p-1-e)
    about [10**(p-1), 10**p), formed as a double-double ph + pl.  Its error is
    below 2**-104 y: hi + lo is 10**s to 2**-106, Dekker's x hi = ph + err is
    exact, and x lo and err + x lo round once each (Dekker, Numer. Math. 18,
    1971).  A y that the fix-up leaves just outside the range still rounds to
    10**(p-1) or carries, as `%` would print it.
    Round: with d1 = rint(ph) and a = ph - d1, both exact, f = floor(a + pl)
    leaves y - d1 - f in [0, 1] up to 1e-14, so y rounds to d1 + f or
    d1 + f + 1, split by the half-integer h = f + 1/2.  g = (a - h) + pl,
    with a - h exact, is y's signed distance from d1 + h to a relative
    2**-53.  Where |g| > 2**-98 d1, over 2**5 times the scaling error since
    d1 >= 100 (or y = 0), g has the sign of the exact distance, so
    d = d1 + f + (g > 0) is x correctly rounded, as `%` rounds it (Gay,
    1990).  The rest are `slow`, and so is every x with |e| > _EXP_RANGE,
    except exact ties: where 0 <= s = p-1-e <= 22, 10**s is a double, so
    ph + pl is y exactly and g = 0 certifies that y = d1 + h, which rounds
    half to even (1.125 at p = 3 gives 112).  Other ties, such as 1235 at
    p = 3, and values within the bound of a tie stay `slow`.
    """
    e = np.log10(x, out=np.zeros(x.size), where=x > 0)
    e = np.floor(e, out=e).astype(np.int64)
    slow = np.abs(e) > _EXP_RANGE
    if slow.any():
        x = x * ~slow
        e[slow] = 0
    ph, pl = _scaled(x, (p - 1) - e)
    for step, bound in ((-1, 10.0 ** (p - 1)), (1, 10.0 ** p)):
        below = (ph < bound) | ((ph == bound) & (pl < 0))
        i = np.flatnonzero(below & (x > 0) if step < 0 else ~below)
        if i.size:
            e[i] += step
            ph[i], pl[i] = _scaled(x[i], (p - 1) - e[i])
    d1 = np.rint(ph)
    a = ph - d1
    f = a + pl
    np.floor(f, out=f)
    g = a - f
    g -= 0.5
    g += pl
    slow |= np.abs(g) <= 2.0 ** -98 * d1
    d = d1.astype(np.int64)
    d += f.astype(np.int64)
    d += g > 0
    i = np.flatnonzero(slow)
    if i.size:
        s = (p - 1) - e[i]
        i = i[(g[i] == 0.0) & (s >= 0) & (s <= 22)]
        d[i] += d[i] & 1     # an exact tie: round half to even
        slow[i] = False
    carry = d == 10 ** p
    d[carry] = 10 ** (p - 1)
    e += carry
    return d, e, slow


def _spans(x: np.ndarray, p: int,
           seps: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(text, start, end): row i of `text` holds x[i]'s characters and its
    separator in columns start[i] to end[i].

    Digits come from `_decimal`, or from `%` (`_fmt`) where it cannot decide.
    The p digits are p - 1 passes of `// 10`, one row per place.  The buffer
    is built a column (character position) at a time for all values: four
    leading zeros and the digits, with the point after the units digit
    (fixed, -4 <= e < p) or after the first digit (scientific, followed by
    "e", the sign and two or three exponent digits).  A span starts at the
    units digit or the first digit and ends at the last nonzero digit, or at
    the units digit if that is later, so `%g`'s trailing zeros and bare
    point fall outside it.
    """
    n = x.size
    d, e, slow = _decimal(x, p)
    size = p + 4                             # digit slots: 4 leading zeros, then d
    buf = np.empty((size + 8, n), np.uint8)  # buf[c]: column c of every value
    buf[1:5] = 0                             # slot j in row j + 1 for now
    v = d.astype(np.int32) if p <= 9 else d
    for j in range(size - 1, 4, -1):
        quot = v // 10
        buf[j + 1] = v - 10 * quot
        v = quot
    buf[5] = v
    sci = (e < -4) | (e >= p)
    q = (4 + e * ~sci).astype(np.uint8)      # the point follows slot q
    last = np.maximum(q, 4)                  # the last slot printed
    for j in range(5, size):
        np.maximum(last, (buf[j + 1] != 0) * np.uint8(j), out=last)
    buf[1:size + 1] += ord("0")
    # slots up to the point move up a row; the point takes the row after them
    for c in range(int(q.max()) + 1):
        buf[c] += (q >= c) * (buf[c + 1] - buf[c])
    flat = buf.reshape(-1)
    cols = np.arange(n)
    flat[(q + 1).astype(np.int64) * n + cols] = ord(".")
    start = np.minimum(q, 4).astype(np.int64)
    end = last + (last > q).astype(np.int64)
    i = np.flatnonzero(sci)
    if i.size:
        k = np.abs(e[i])
        at = (end[i] + 1) * n + i
        flat[at] = ord("e")
        flat[at + n] = np.where(e[i] < 0, ord("-"), ord("+"))
        wide = k >= 100
        flat[at[wide] + 2 * n] = k[wide] // 100 + ord("0")
        at += (2 + wide) * n
        flat[at] = k // 10 % 10 + ord("0")
        flat[at + n] = k % 10 + ord("0")
        end[i] += 4 + wide
    for i in np.flatnonzero(slow):
        text = _fmt(float(x[i]), p)
        buf[:len(text), i] = np.frombuffer(text.encode(), np.uint8)
        start[i], end[i] = 0, len(text) - 1
    ends = end.reshape(-1, len(seps))
    for j, sep in enumerate(seps):
        for char in sep:
            ends[:, j] += 1
            flat[ends[:, j] * n + cols[j::len(seps)]] = ord(char)
    lo = int(start.min())
    return buf[lo:int(end.max()) + 1].T.copy(), start - lo, end - lo


def format_block(block: np.ndarray, precision: int, seps: tuple[str, ...]) -> str:
    """The rows of `block` as text, each field f"{x:.{precision}g}" followed
    by its separator in `seps`, for finite x >= 0 (no -0.0): `_spans`, then
    one boolean compress that keeps every span, in row order."""
    text, start, end = _spans(block.ravel(), precision, seps)
    width = text.shape[1]
    pos = np.arange(width)
    spans = (pos >= np.arange(5)[:, None, None]) & (pos <= pos[:, None])
    keep = spans.reshape(-1, width).take(start * width + end, axis=0)
    return str(text[keep], "ascii")
