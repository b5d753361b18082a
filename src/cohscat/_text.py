"""Number text for the CSV and SVG writers, a column at a time.

Every number the package writes to a data file goes through this module.
The text contract is Python's own formatting, byte for byte:

- floats as ``format(v, ".12g")`` (CSV cells),
- pixel coordinates as ``format(v, ".1f")`` (SVG points),
- integers and booleans as ``str(int(v))``, strings as given.

A column becomes a ``uint8`` matrix of ASCII codes, one row per value, in
which 0 means "no character"; `rows` lays matrices and separators side by
side and drops the 0s, so no Python string is made per value.

Floats take integer arithmetic on the mantissa. A value is scaled by an
exact power of ten to m in [1e11, 1e12) (one rounding, at most about 1.2e-4
off) and rounded to the 12-digit integer D. The digits of D come from a
table of all 4-digit groups; the exponent picks where the point and the
leading "0.000" go, and trailing zeros are cut. Python's formatter writes
every value this path cannot decide exactly:

- ``.12g``: non-finite values, +-0, values whose rounded exponent lies
  outside [-4, 11] (scientific notation), and m within 1e-3 of a rounding tie;
- ``.1f``: non-finite values, |v| >= 1e5, and ten times |v| within 1e-9 of
  a rounding tie, except the exact ties (|v| an odd multiple of 1/4), which
  round half to even as Python's do.
"""

from __future__ import annotations

import numpy as np

_ZERO, _DOT, _MINUS = 48, 46, 45
_BLOCK = 4096  # CSV lines formatted at a time
# _DIGITS[i, k]: digit i of k = 1000 d0 + 100 d1 + 10 d2 + d3 < 10**4.
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + np.uint8(_ZERO)
_ZEROS = _DIGITS == _ZERO


def _packed(blank, stride: int = 1) -> np.ndarray:
    """The ASCII digits of each k packed into one word, digit i at byte
    stride * i, with 0 wherever blank holds."""
    text = np.zeros((10**4, 4 * stride), np.uint8)
    text[:, ::stride] = np.where(blank, np.uint8(0), _DIGITS).T
    return text.view(np.uint32 if stride == 1 else np.uint64).ravel()


_QUADS = _packed(False)
# Leading zeros blank; 0 itself keeps its last digit.
_LEADING = _packed(np.logical_and.accumulate(_ZEROS, axis=0) & (np.arange(4) < 3)[:, None])
# For .12g cells the digits sit at every other byte, between point slots;
# the second table blanks trailing zeros (and all of 0).
_PAIRS = _packed(False, 2)
_PAIRS_TRAILING = _packed(np.logical_and.accumulate(_ZEROS[::-1], axis=0)[::-1], 2)
# 10**k for 0 <= k <= 16; exact in float64 (10**22 is the last exact power).
_TENS = 10 ** np.arange(17, dtype=np.int64)
_POW10 = _TENS.astype(float)
# A fixed-notation .12g cell is 32 bytes, as four uint64 words: the sign at
# byte 0; "0.000" at 1..5 in front of the digits of a negative exponent X
# (its first 1 - X characters); digit j of the 12-digit mantissa at 8 + 2j,
# and the point at 9 + 2j after digit j = X when a digit follows it.
# _LAYOUT[2 * (X + 4) + point] holds all but the sign and the digits, with
# a '0' under each integer digit: ORed with a digit it gives the digit, and
# it puts back a zero that the cut of trailing zeros took.
_LAYOUT = np.zeros((16, 2, 32), np.uint8)
for _x in range(-4, 0):
    _LAYOUT[_x + 4, :, 1 : 2 - _x] = np.frombuffer(b"0.000"[: 1 - _x], np.uint8)
for _x in range(12):
    _LAYOUT[_x + 4, :, 8 : 9 + 2 * _x : 2] = _ZERO
for _x in range(11):
    _LAYOUT[_x + 4, 1, 9 + 2 * _x] = _DOT
_LAYOUT = _LAYOUT.reshape(32, 32).view(np.uint64)
_MINUS_WORD = np.frombuffer(bytes([_MINUS]) + bytes(7), np.uint64)[0]
del _x


def _python(values, spec: str) -> np.ndarray:
    """Left-aligned ASCII matrix of format(v, spec) for each value."""
    text = [format(v, spec).encode() for v in values]
    if not text:
        return np.zeros((0, 1), np.uint8)
    return np.array(text).view(np.uint8).reshape(len(text), -1)


def _overlay(mat: np.ndarray, rows: np.ndarray, text: np.ndarray) -> np.ndarray:
    """mat with the given rows replaced by left-aligned text, widened to fit."""
    if not len(rows):
        return mat
    if text.shape[1] > mat.shape[1]:
        mat = np.pad(mat, ((0, 0), (0, text.shape[1] - mat.shape[1])))
    mat[rows] = 0
    mat[rows, : text.shape[1]] = text
    return mat


def _unsigned(mag: np.ndarray) -> np.ndarray:
    """Digits of the non-negative integers mag without leading zeros."""
    top = int(mag.max()) if len(mag) else 0
    groups = -(-len(str(top)) // 4)
    packed = np.empty((len(mag), groups), np.uint32)
    for g in range(groups):
        quad = (mag // 10 ** (4 * g) % 10**4).astype(np.intp)
        text = np.where(mag >= 10 ** (4 * g + 4), _QUADS[quad], _LEADING[quad])
        if g:
            text[mag < 10 ** (4 * g)] = 0
        packed[:, groups - 1 - g] = text
    return packed.view(np.uint8)


def integers(values) -> np.ndarray:
    """``str(int(v))`` of an integer or boolean column."""
    col = np.asarray(values)
    u = col.astype(np.uint64)
    if col.dtype.kind in "bu":
        return _unsigned(u)
    negative = col < 0
    digits = _unsigned(np.where(negative, ~u + 1, u))
    out = np.empty((len(col), digits.shape[1] + 1), np.uint8)
    out[:, 0] = np.where(negative, _MINUS, 0)
    out[:, 1:] = digits
    return out


def floats(values) -> np.ndarray:
    """``format(v, ".12g")`` of a float column (float32 is written as the
    float64 of the same value)."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    # Rounded exponents -4..11 come from |v| in [9.99999999999995e-5, 999999999999.5).
    fast = (a >= 5e-5) & (a < 1e12)
    a = np.where(fast, a, 1.0)
    # log10 may miss a power of ten by one; the corrected scaling is exact again.
    e = np.minimum(np.floor(np.log10(a)).astype(np.int64), 11)
    m = a * _POW10[11 - e]
    e += (m >= 1e12).astype(np.int64) - (m < 1e11)
    m = a * _POW10[np.minimum(11 - e, 16)]
    fast &= np.abs(m - np.floor(m) - 0.5) >= 1e-3
    d = np.floor(m + 0.5).astype(np.int64)
    carry = d == 10**12
    d[carry] = 10**11
    e += carry
    fast &= (e >= -4) & (e <= 11)
    e[~fast] = 0

    # The mantissa's digits with its trailing zeros cut, 4 at a time.
    high, low = divmod(d, 10**4)
    high, mid = divmod(high, 10**4)
    point = d % _TENS[11 - e] != 0
    words = np.take(_LAYOUT, 2 * (e + 4) + point, axis=0)
    words[:, 0] |= np.where(x < 0, _MINUS_WORD, 0)
    words[:, 1] |= np.where((low == 0) & (mid == 0), _PAIRS_TRAILING[high], _PAIRS[high])
    words[:, 2] |= np.where(low == 0, _PAIRS_TRAILING[mid], _PAIRS[mid])
    words[:, 3] |= _PAIRS_TRAILING[low]
    slow = np.flatnonzero(~fast)
    return _overlay(words.view(np.uint8), slow, _python(x[slow].tolist(), ".12g"))


def pixels(values) -> np.ndarray:
    """``format(v, ".1f")`` of a float column."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    fast = a < 1e5
    a = np.where(fast, a, 0.0)
    t = a * 10.0
    # |v| = odd / 4 makes 10|v| an exact tie (and t exact): half to even.
    half_odd = a * 2.0 - 0.5
    tie = half_odd == np.floor(half_odd)
    fast &= tie | (np.abs(t - np.floor(t) - 0.5) >= 1e-9)
    tenths = np.where(tie, np.rint(t), np.floor(t + 0.5)).astype(np.int64)
    whole = _unsigned(tenths // 10)
    out = np.empty((len(x), whole.shape[1] + 3), np.uint8)
    out[:, 0] = np.where(np.signbit(x), _MINUS, 0)
    out[:, 1:-2] = whole
    out[:, -2] = _DOT
    out[:, -1] = tenths % 10 + _ZERO
    slow = np.flatnonzero(~fast)
    return _overlay(out, slow, _python(x[slow].tolist(), ".1f"))


def cells(values) -> np.ndarray:
    """One CSV column: integers and booleans as integers, strings as given
    (UTF-8), floats up to 64 bits as ``.12g``, anything else through
    ``format(v, ".12g")`` value by value."""
    col = np.asarray(values)
    kind = col.dtype.kind
    if kind in "biu":
        return integers(col)
    if kind == "U":
        return _python(col.tolist(), "")
    if kind == "f" and col.dtype.itemsize <= 8:
        return floats(col)
    return _python(col.tolist(), ".12g")


def rows(pieces) -> str:
    """Row-wise text of matrices laid side by side.

    pieces are ``uint8`` matrices with one row per line, all of one length,
    or bytes written on every line; each line is the concatenation of its
    pieces with the 0s dropped.
    """
    n = min(len(p) for p in pieces if isinstance(p, np.ndarray))
    widths = [p.shape[1] if isinstance(p, np.ndarray) else len(p) for p in pieces]
    table = np.empty((n, sum(widths)), np.uint8)
    col = 0
    for piece, width in zip(pieces, widths):
        table[:, col : col + width] = np.frombuffer(piece, np.uint8) if isinstance(piece, bytes) else piece
        col += width
    return table.tobytes().translate(None, b"\0").decode()


def csv_lines(columns):
    """CSV lines of the cells of the columns, each ending in a newline,
    yielded as text blocks of `_BLOCK` lines; the lines stop at the shortest
    column. The blocks bound the memory a table of any length takes."""
    columns = [np.asarray(c) for c in columns]
    n = min(map(len, columns), default=0)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        pieces = []
        for column in columns:
            pieces += [cells(column[start:stop]), b","]
        pieces[-1] = b"\n"
        yield rows(pieces)
