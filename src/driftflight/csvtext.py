"""CSV text of float rows: byte for byte what ``"%.17g"`` gives, made in numpy.

``write_rows(fh, rows)`` writes a 2-D array to a binary file, one line
per row, the values joined by commas.  The bytes are those of
``"".join(",".join("%.17g" % v for v in row) + "\\n" for row in rows)``
for every double.  ``%.17g`` is the correctly rounded 17-digit decimal
(Steele & White 1990; Clinger 1990), so an exactly computed 17-digit
significand gives the same text.

For |v| in [1e-4, 1e17), where ``%.17g`` uses fixed notation, the text
is computed for a whole block at once.  With X = floor(log10|v|), the
significand D = round(|v| 10^(16-X)) is exact: 10^k is a double for
k <= 22, Dekker's (1971) two-product gives |v| 10^k as p + err with no
rounding, and p is a whole number from 2^53 up, so D is an int64 sum.
D becomes text four digits at a time through a 10 000-entry table, in
three 64-bit words per value; word masks chosen by (X, trailing zeros,
sign, column) put in the decimal point and the separator, and zero every
byte outside the value's text, so one compress of the nonzero bytes
gives the block.

Everything else is formatted by ``%`` itself, in one call per block:
such a lane's slot holds ``%.17g`` and its separator, so the block's
text is the format string.  These are non-finite values, magnitudes
outside the range, exact rounding ties (where the rounding rule would
matter) and lanes where log10 misjudged X.  Exact zeros stay on the
array path.  A block too small to pay back numpy's per-call cost is
formatted by ``%`` whole.

``open_output(path, mode)`` opens every file the package writes: it
rewrites the file in place and then cuts it to the written length.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Values per block, measured on ``driftflight simulate``: the array path
# makes about 100 numpy calls a block, and its temporaries (about 200
# bytes a value) grow with the block.  4096 was as fast as 8192 with
# 1.3 MB less peak memory; 2048 and 16384 were slower.
BLOCK_VALUES = 4096
# Below this many values one ``%`` call over the block is faster than
# the array path, whose per-call cost is about 0.2 ms (measured crossover
# 224-256 values at 2, 4 and 9 columns).
MIN_ARRAY_VALUES = 256

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles
_LOW, _HIGH = 1e-4, 1e17  # |v| where %.17g uses fixed notation: X in -4..16
_D_MIN, _D_MAX = 10**16, 10**17  # the 17-digit significands
# the two-product makes the fraction of |v| 10^(16-X) exact, so only an
# exact tie (fraction 0.5, which % rounds half to even) needs %; the
# margin is a conservative guard around the ties
_TIE_MARGIN = 1e-9
_ROWS = 23  # exponent rows r = X + 5 for X in -5..17
_TZ = 17  # trailing zero counts 0..16 of a significand
_SLOT = 24  # bytes per value: three little-endian uint64 words


class _Tables(NamedTuple):
    digits: np.ndarray  # [g]: the 4 ASCII digits of g in 0..9999, one word
    zeros: np.ndarray  # [g]: trailing '0' count of those digits (4 for 0)
    powers: np.ndarray  # [r]: 10^(16-X) and its Veltkamp split hi, lo
    keep_int: np.ndarray  # [key]: word mask of the integer digits
    keep_frac: np.ndarray  # [key]: word mask of the fraction digits, moved up a byte
    fixed: np.ndarray  # [key]: '-', '.' (or '%.17g') and the separator as words


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    """The tables of the array path, built on first use.

    A layout key is ((r * 17 + trailing zeros) * 2 + sign) * 2 + last
    column.  Slot bytes: 0-1 "00", 2-21 the 20-digit zero-padded D (its
    first digit at 5), the decimal point inserted at 6 + X.  Row r = 0
    holds the lanes that ``%`` formats: their slot is "%.17g" and the
    separator.
    """
    g = np.arange(10_000)
    digits = np.zeros(10_000, np.uint64)
    for i, div in enumerate((1000, 100, 10, 1)):
        digits |= (48 + g // div % 10).astype(np.uint64) << np.uint64(8 * i)
    zeros = (g % 10 == 0).astype(np.int64) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)

    # rows X = -5 and 17, where log10 misjudged X at the ends of the range,
    # are zero: p = 0 fails the digit count, and % formats those lanes
    b = np.zeros(_ROWS)
    b[1:-1] = 10.0 ** np.arange(20, -1, -1)
    t = b * _SPLIT
    b_hi = t - (t - b)
    powers = np.column_stack([b, b_hi, b - b_hi])

    shape = (_ROWS, _TZ, 2, 2, 1)
    X = np.arange(-5, 18).reshape(-1, 1, 1, 1, 1)
    tz = np.arange(_TZ).reshape(1, -1, 1, 1, 1)
    neg = np.arange(2).reshape(1, 1, -1, 1, 1)
    last = np.arange(2).reshape(1, 1, 1, -1, 1)
    j = np.arange(_SLOT)
    text = X > -5
    nfrac = np.maximum(16 - X - tz, 0)
    c = 6 + X  # the decimal point
    s0 = 5 + np.minimum(X, 0)  # the first integer digit: "0" when X < 0
    e = np.where(text, np.where(nfrac > 0, c + 1 + nfrac, c), 5)  # the separator
    spec = np.zeros(_SLOT, np.int64)
    spec[:5] = np.frombuffer(b"%.17g", np.uint8)
    fixed = (
        np.where(text, 0, spec)
        | np.where(text & neg & (j == s0 - 1), ord("-"), 0)
        | np.where(text & (nfrac > 0) & (j == c), ord("."), 0)
        | np.where(j == e, np.where(last, ord("\n"), ord(",")), 0)
    )

    def words(byte_table) -> np.ndarray:
        rows = np.broadcast_to(byte_table, shape[:-1] + (_SLOT,)).reshape(-1, _SLOT)
        return rows.astype(np.uint8).view("<u8")

    return _Tables(
        digits, zeros, powers,
        keep_int=words((text & (j >= s0) & (j < c)) * 0xFF),
        keep_frac=words((text & (j > c) & (j < e)) * 0xFF),
        fixed=words(fixed),
    )


def _percent(v: np.ndarray, nrows: int, ncols: int) -> bytes:
    """The text of the rows by one ``%`` call."""
    fmt = ("%.17g," * (ncols - 1) + "%.17g\n") * nrows
    return (fmt % tuple(v.tolist())).encode()


def format_rows(rows: np.ndarray) -> bytes:
    """The CSV text of a 2-D array: ``%.17g`` values, commas, newlines."""
    rows = np.asarray(rows, dtype=float)
    nrows, ncols = rows.shape
    v = rows.ravel()
    n = v.size
    if n < MIN_ARRAY_VALUES:
        return _percent(v, nrows, ncols)
    a = np.abs(v)
    fast = a >= _LOW
    fast &= a < _HIGH
    zero = v == 0
    tab = _tables()

    # X as the row r = X + 5; lanes outside the range compute on |v| = 1
    np.copyto(a, 1.0, where=~fast)
    lg = np.log10(a)
    np.floor(lg, out=lg)
    lg += 5
    r = lg.astype(np.intp)

    # |v| 10^(16-X) = p + err exactly, then floor and round in int64
    b = tab.powers.take(r, axis=0)
    p = a * b[:, 0]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi  # now the low half of |v|
    err = a_hi * b[:, 1]
    err -= p
    term = a_hi * b[:, 2]
    err += term
    np.multiply(a, b[:, 1], out=term)
    err += term
    np.multiply(a, b[:, 2], out=term)
    err += term
    whole = np.floor(err)
    err -= whole  # the fraction: p is whole wherever the lane stays fast
    D = p.astype(np.int64)
    D += whole.astype(np.int64)
    # floor below 10^16: X was too large; 10^17 or more: X was too small
    # (no double rounds up to an 18th digit: the gap below 10^(X+1) is at
    # least 2^-53 of it, more than half a unit of the 17th digit)
    fast &= D >= _D_MIN
    D += err > 0.5
    fast &= D < _D_MAX
    err -= 0.5
    np.abs(err, out=err)
    fast &= err >= _TIE_MARGIN
    ok = fast | zero
    D *= fast
    r *= fast  # row 0 for the lanes % formats
    np.copyto(r, 5, where=zero)  # D = 0 at X = 0 is the text "0"

    # four digits at a time; the first group holds one
    hi = D // 10**8
    D -= hi * 10**8
    g0 = hi // 10**8
    hi -= g0 * 10**8
    g1 = hi // 10**4
    hi -= g1 * 10**4
    g3 = D // 10**4
    D -= g3 * 10**4
    g2, g4 = hi, D
    tz = tab.zeros.take(g1)
    for g in (g2, g3, g4):
        tz *= g == 0
        tz += tab.zeros.take(g)

    key = r * (_TZ * 4)
    tz *= 4
    key += tz
    key += np.signbit(v) * 2
    key.reshape(nrows, ncols)[:, -1] += 1

    d1, d2, d3, d4 = (tab.digits.take(g) for g in (g1, g2, g3, g4))
    words = np.empty((n, 3), "<u8")  # little-endian: bytes in text order
    words[:, 0] = 0x303030303030 | g0.view(np.uint64) << np.uint64(40) | d1 << np.uint64(48)
    words[:, 1] = d1 >> np.uint64(16) | d2 << np.uint64(16) | d3 << np.uint64(48)
    words[:, 2] = d3 >> np.uint64(16) | d4 << np.uint64(16)
    flat = words.ravel()
    moved = flat << np.uint64(8)
    moved[1:] |= flat[:-1] >> np.uint64(56)
    moved = moved.reshape(n, 3)
    words &= tab.keep_int.take(key, axis=0)
    moved &= tab.keep_frac.take(key, axis=0)
    words |= moved
    words |= tab.fixed.take(key, axis=0)

    text = words.view(np.uint8).ravel()
    text = text[text != 0].tobytes()
    if ok.all():
        return text
    # the other lanes hold "%.17g": the text is their format string
    return text % tuple(v[~ok].tolist())


def write_rows(fh, rows: np.ndarray) -> None:
    """Write ``format_rows`` of a 2-D array to a binary file, block by block."""
    step = max(1, BLOCK_VALUES // rows.shape[1])
    for i in range(0, len(rows), step):
        fh.write(format_rows(rows[i : i + step]))


def _open_untruncated(path, flags: int) -> int:
    # open() asks for O_WRONLY | O_CREAT | O_TRUNC and creates with 0o666
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def open_output(path, mode: str):
    """``open(path, mode)`` for writing (``mode`` "w" or "wb"), without
    truncating an existing file first.

    The file is rewritten from its start, and on the way out, also when
    the body raises, a regular file is cut at the written position, so it
    holds exactly the bytes written: no tail of an older, longer file
    survives.  A new file gets the mode bits ``open`` gives it.  Cutting
    last is cheaper than truncating first: ext4 (with its default
    ``auto_da_alloc``) flushes a file to disk on close when it was
    truncated to 0 and then rewritten.  Rewriting a 900-byte file took
    0.18 ms that way and 0.016 ms in place, a 1.2 MB file 1.8 and 0.17 ms
    (2-vCPU VM, ext4 on a virtio disk).  Renaming a temporary file over
    the old one pays the same flush.
    """
    with open(path, mode, opener=_open_untruncated) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
