"""Exact vectorized %.17g: the text "%.17g" % x for every x of a float64
array, written with numpy a chunk at a time.

canonical.render_json imports this module for float lists of at least
canonical.VECTOR_MIN items; shorter lists, and every other import of moa,
never load it.  Each chunk of _CHUNK elements goes through three steps.

- Certify.  For 1e-270 <= |x| <= 1e270, with k an estimate of
  floor(log10|x|), y = |x| * 10**(16 - k) is computed as p + e: p is the
  rounded product of |x| and hi, e is that product's exact error (Dekker's
  split) plus |x| * lo, where hi + lo is 10**(16 - k) as a correctly rounded
  double-double.  The computed y is within 1e-14 of the true one, so round(y)
  is exact unless y's fractional part lies within 1e-9 of 1/2.  If floor(y)
  falls outside [1e16, 1e17), k was one off, and the element is tried once
  more with k - 1 or k + 1.  A certified round(y) is the 17 significant
  digits that %.17g prints, correctly rounded: only an exact tie would need
  round-half-even, and an inexact y never certifies one.  A round(y) of 1e17 is 1e16
  with the exponent k + 1.  When 10**(16 - k) is itself a double
  (0 <= 16 - k <= 22), lo is 0 and Dekker's product is exact, so y = p + e
  holds exactly: every element is certified, and an exact tie rounds half
  to even as %.17g does.
- Lay out.  The text of an element follows from its digits and exponent by
  the %g rules: fixed notation when -4 <= exponent < 17, trailing zeros and
  a bare point dropped, the exponent written e+XX or e+XXX.  The chunk is
  built column-major, one uint8 row per character position, so every step
  is a 1-D numpy operation with a long inner loop; unused positions hold a
  zero byte, which bytes.translate deletes after the transpose.
- Fall back.  Zeros print directly as 0 or -0.  An element that is not
  certified (a near tie, |x| outside [1e-270, 1e270], a subnormal, inf or
  nan) is written as the conversion "%.17g" itself, and one % over the
  chunk's text supplies its digits from CPython, which prints it as the %
  path does.  A chunk with fewer than _MIN_SHARE of its elements certified
  goes to one format string whole, since laying it out would cost more than
  it saves.

The tables (powers of ten, digit groups, the text around the digits) are
built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

# Elements per chunk: keeps each temporary under 256 KiB.
_CHUNK = 4096
# Below this share of certified elements a chunk renders through % whole:
# laying out an element costs a fifth to a third of what % spends on it, so the
# layout pays only for the share it saves.
_MIN_SHARE = 0.25

_E16 = 10**16
_E17 = 10**17
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: splits a double into two 26-bit halves
# 10**s for s in [_S_MIN, _S_MAX], enough for |x| in [1e-270, 1e270] and a retry
_S_MIN, _S_MAX = -260, 292
# Exponents X in [-_X_OFF, _X_OFF] index the tables of text around the digits.
_X_OFF = 300
# Rows of a chunk's text: sign, "0.000" prefix, 17 digits and a point,
# "e+123" exponent, then the separator that follows every element.
_SIGN, _PREFIX, _DIGITS, _EXPONENT, _SEP = 0, 1, 6, 24, 29


def format_floats(values: np.ndarray, sep: str) -> str:
    """"%.17g" % x for each x of a non-empty 1-D float64 array, joined by
    sep, which holds no "%"."""
    chunks = [_chunk(values[i : i + _CHUNK], sep) for i in range(0, values.size, _CHUNK)]
    chunks[-1] = chunks[-1][: len(chunks[-1]) - len(sep)]
    return "".join(chunks)


def _chunk(x: np.ndarray, sep: str) -> str:
    """The chunk's elements, each followed by sep."""
    a = np.abs(x)
    in_range = (a >= 1e-270) & (a <= 1e270)
    if np.count_nonzero(in_range) >= _MIN_SHARE * x.size:
        n, exponent, ok = _digits(np.where(in_range, a, 1.0))
        ok &= in_range
        zero = a == 0
        ok |= zero
        fallback = np.flatnonzero(~ok)
        if fallback.size <= (1 - _MIN_SHARE) * x.size:
            n[zero] = 0
            exponent[zero] = 0
            rows = _text_rows(x, n, exponent, sep)
            if fallback.size:
                rows[:_SEP, fallback] = 0
                rows[_SIGN : _SIGN + 5, fallback] = np.frombuffer(b"%.17g", np.uint8)[:, None]
            text = rows.T.tobytes().translate(None, b"\0").decode("ascii")
            return text % tuple(x[fallback].tolist()) if fallback.size else text
    return (("%.17g" + sep) * x.size) % tuple(x.tolist())


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each a in [1e-270, 1e270] as an integer
    in [1e16, 1e17), its decimal exponent, and whether both are certified."""
    k = np.floor(np.log10(a)).astype(np.int64)
    floor, up, ok = _scaled(a, k)
    off = ok & ((floor < _E16) | (floor >= _E17))
    if off.any():
        i = np.flatnonzero(off)
        k[i] += np.where(floor[i] < _E16, -1, 1)
        floor[i], up[i], ok[i] = _scaled(a[i], k[i])
    ok &= (floor >= _E16) & (floor < _E17)
    n = floor + up
    carry = n == _E17
    n[carry] = _E16
    k[carry] += 1
    return n, k, ok


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """floor(y) and whether y rounds up, for y = a * 10**(16 - k), and
    whether both are certain."""
    hi, high, low, lo = _powers().take(16 - _S_MIN - k, axis=1)
    p = a * hi
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    e = (((a_high * high - p) + a_high * low + a_low * high) + a_low * low) + a * lo
    whole = np.floor(e)
    e -= whole  # the fraction of y, exact
    floor = p.astype(np.int64)  # p > 2**53 whenever y is in range, so an integer
    floor += whole.astype(np.int64)
    e -= 0.5
    # lo == 0: 10**(16 - k) is a double, so y == p + e exactly and a tie is real
    exact = lo == 0
    up = (e > 0) | ((e == 0) & exact & (floor % 2 == 1))
    return floor, up, exact | (np.abs(e) > 1e-9)


def _text_rows(x: np.ndarray, n: np.ndarray, exponent: np.ndarray, sep: str) -> np.ndarray:
    """The text of each element of x, from its digits n and exponent: one
    column per element, one uint8 row per character position, zero bytes
    where a position is unused."""
    quads, point_row, frame = _text_tables()
    size = x.size
    # digit rows 1..17, with a zero row on either side for the shift below
    digits = np.zeros((19, size), np.uint8)
    groups = np.empty((4, size), np.int64)
    np.floor_divide(n, _E16, out=groups[0])
    np.add(groups[0], 48, out=digits[1], casting="unsafe")
    n = n - groups[0] * _E16
    for j, scale in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(n, scale, out=groups[j])
        n -= groups[j] * scale
    groups[3] = n
    # four ASCII digits per 4-byte entry, spread over the rows of group j
    quad = quads.take(groups, mode="clip").view(np.uint8).reshape(4, size, 4)
    for t in range(4):
        digits[2 + t : 18 : 4] = quad[:, :, t]
    iota = np.arange(18, dtype=np.int8)[:, None]
    last = ((digits[1:18] != 48) * iota[:17]).max(axis=0)  # the last nonzero digit

    rows = np.empty((_SEP + len(sep), size), np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=rows[_SIGN])
    x_index = exponent + _X_OFF
    for r in range(5):
        frame[r].take(x_index, out=rows[_PREFIX + r], mode="clip")
        frame[5 + r].take(x_index, out=rows[_EXPONENT + r], mode="clip")
    rows[_SEP:] = np.frombuffer(sep.encode("ascii"), np.uint8)[:, None]
    # Row i holds digit i before the point row p and digit i - 1 after it;
    # rows past the last digit to print are zero, and so is the point when
    # no digit follows it.
    point = point_row.take(x_index, mode="clip")
    keep = np.where(last >= point, last + 1, point - 1)
    text = rows[_DIGITS:_EXPONENT]
    np.multiply(digits[1:19], iota < point, out=text)
    text += digits[0:18] * (iota > point)
    text += np.uint8(46) * (iota == point)
    text *= iota <= keep
    return rows


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, hi's Dekker halves and lo, with hi + lo = 10**s for each s in
    [_S_MIN, _S_MAX]: hi is 10**s correctly rounded, lo the rest rounded."""
    table = np.empty((4, _S_MAX - _S_MIN + 1))
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            # int true division rounds correctly: 10**s - hi = (b - a*d) / (b*d)
            d = 10**-s
            hi = 1 / d
            a, b = hi.as_integer_ratio()
            lo = (b - a * d) / (b * d)
        c = hi * _SPLIT
        high = c - (c - hi)
        table[:, i] = hi, high, hi - high, lo
    table.setflags(write=False)  # cached: every call shares it
    return table


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ASCII digits of 0000 to 9999 as one 4-byte entry each, and for each
    exponent X: the row of the point among the digits (-1 if the prefix holds
    it), and the five prefix and five exponent characters (0 where there are
    none)."""
    groups = np.arange(10000)
    quads = np.stack([groups // 1000, groups // 100 % 10, groups // 10 % 10, groups % 10], 1)
    point = np.ones(2 * _X_OFF + 1, np.int8)
    frame = np.zeros((10, 2 * _X_OFF + 1), np.uint8)
    for exponent in range(-_X_OFF, _X_OFF + 1):
        j = exponent + _X_OFF
        if 0 <= exponent < 17:
            point[j] = exponent + 1
        elif -4 <= exponent < 0:
            point[j] = -1
            prefix = b"0." + b"0" * (-exponent - 1)
            frame[: len(prefix), j] = list(prefix)
        else:
            text = b"e%+03d" % exponent
            frame[5:7, j] = list(text[:2])
            frame[12 - len(text) :, j] = list(text[2:])  # 2 or 3 digits, right-aligned
    tables = (quads + 48).astype(np.uint8).view(np.uint32).reshape(-1), point, frame
    for table in tables:
        table.setflags(write=False)  # cached: every call shares them
    return tables
