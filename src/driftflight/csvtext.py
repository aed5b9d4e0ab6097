"""CSV text of numeric columns: byte for byte what ``"%.17g"`` gives, made in numpy.

``write_rows(fh, *columns)`` writes columns side by side to a binary
file, each 1-D (one value a row) or 2-D (one row of values a row), one
line per row, the values joined by commas.  The bytes are those of
``"".join(",".join("%.17g" % float(v) for v in row) + "\\n" for row in rows)``
for every double and every integer: an integer's text is that of its
nearest double.  ``%.17g`` is the correctly rounded 17-digit decimal
(Steele & White 1990; Clinger 1990), so an exactly computed 17-digit
significand gives the same text.

Every value's slot starts with the separator that precedes it ("\\n"
at the start of a row), so that the digits fill whole words; the
block's leading "\\n" is dropped and a closing one added.

A column of integers in [0, 10^7), such as a replicate or segment
number, takes one 64-bit word a value: the separator, then the seven
zero-padded digits from a 10 000-entry table of 4-digit groups, their
leading '0' bytes zeroed.  An integer column with a value outside that
range in a block (a negative one, 10^7 or more) is formatted there as
``float(k)``, as every other column is: from 2^53 on the double rounds
(2^53 + 1 reads 9007199254740992).

For |v| in [1e-4, 1e17), where ``%.17g`` uses fixed notation, the text
is computed for a whole block at once.  With X = floor(log10|v|), the
significand D = round(|v| 10^(16-X)) is exact: 10^k is a double for
k <= 22, Dekker's (1971) two-product gives |v| 10^k as p + err with no
rounding, and p is a whole number from 2^53 up, so D is an int64 sum.
D becomes text four digits at a time through the same table, in three
64-bit words per value; word masks chosen by (X, trailing zeros, column,
sign) put in the separator, the sign and the decimal point, and zero
every byte outside the value's text, so one compress of the nonzero
bytes gives the block.

Everything else is formatted by ``%`` itself, in one call per block:
such a lane's slot holds its separator and ``%.17g``, so the block's
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
# makes about 90 numpy calls a block, and its temporaries (about 200
# bytes a value) grow with the block.  4096 was as fast as 8192 with
# 1.3 MB less peak memory; 2048 and 16384 were slower.  With the integer
# slot, 8192 formats 7-14% faster in a loop of formatting alone, but in
# ``driftflight simulate`` its word arrays pass glibc's mmap threshold
# and fault in every block: 2 600 minor faults a ``cli_export`` round
# against 5, and a 13% slower round.
BLOCK_VALUES = 4096
# Below this many values one ``%`` call over the block is faster than
# the array path, whose per-call cost is about 0.2 ms (measured crossover
# 224-256 values at 2, 4 and 9 columns).
MIN_ARRAY_VALUES = 256

_INT_END = 10**7  # integers in [0, 10^7) fit a word: a separator and 7 digits
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles
_LOW, _HIGH = 1e-4, 1e17  # |v| where %.17g uses fixed notation: X in -4..16
_D_MIN, _D_MAX = 10**16, 10**17  # the 17-digit significands
# the two-product makes the fraction of |v| 10^(16-X) exact, so only an
# exact tie (fraction 0.5, which % rounds half to even) needs %; the
# margin is a conservative guard around the ties
_TIE_MARGIN = 1e-9
_ROWS = 23  # exponent rows r = X + 5 for X in -5..17
_TZ = 17  # trailing zero counts 0..16 of a significand
_SLOT = 24  # bytes per float value: three little-endian uint64 words
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_PADS = np.uint64(0x3030303030000000)  # '0' in bytes 3-7 of a float slot
_ZEROS = np.uint64(0x3030303030303030)  # '0' in every byte
_LAST_DIGIT = np.uint64(1 << 56)  # a bit of byte 7, the last digit of an integer slot
_SEPARATOR = (np.uint64(ord(",")), np.uint64(ord("\n")))  # byte 0 of an integer slot


class _Tables(NamedTuple):
    digits: np.ndarray  # [g]: the 4 ASCII digits of g in 0..9999, one word
    zeros: np.ndarray  # [g]: trailing '0' count of those digits (4 for 0)
    power: np.ndarray  # [r]: 10^(16-X)
    power_hi: np.ndarray  # [r]: its Veltkamp split, high half
    power_lo: np.ndarray  # [r]: and low half
    keep_int: np.ndarray  # [key]: word mask of the integer digits, moved down a byte
    keep_frac: np.ndarray  # [key]: word mask of the fraction digits
    fixed: np.ndarray  # [key]: the separator, '-' and '.' (or '%.17g') as words


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    """The tables of the array path, built on first use.

    A layout key is ((r * 17 + trailing zeros) * 2 + first column) * 2 +
    sign.  Slot bytes: 0-2 zero, 3-6 "0000", 7-23 the 17 digits of D, so
    that the digit groups fill whole words; the integer digits (or the
    "0" in byte 7 + X before a fraction below 1) move down a byte to make
    room for the point at 7 + X.  The separator that precedes the value
    comes before its sign.  Row r = 0 holds the lanes that ``%`` formats:
    their slot is the separator and "%.17g".
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

    shape = (_ROWS, _TZ, 2, 2, 1)
    X = np.arange(-5, 18).reshape(-1, 1, 1, 1, 1)
    tz = np.arange(_TZ).reshape(1, -1, 1, 1, 1)
    first = np.arange(2).reshape(1, 1, -1, 1, 1)
    neg = np.arange(2).reshape(1, 1, 1, -1, 1)
    j = np.arange(_SLOT)
    text = X > -5
    nfrac = np.maximum(16 - X - tz, 0)
    c = 7 + X  # the decimal point
    s0 = 6 + np.minimum(X, 0)  # the first integer digit: "0" when X < 0
    sep = np.where(first, ord("\n"), ord(","))
    spec = np.zeros(_SLOT, np.int64)
    spec[1:6] = np.frombuffer(b"%.17g", np.uint8)
    fixed = (
        np.where(text, 0, spec)
        | np.where(j == np.where(text, s0 - 2, 0), sep, 0)
        | np.where(text & neg & (j == s0 - 1), ord("-"), 0)
        | np.where(text & (nfrac > 0) & (j == c), ord("."), 0)
    )

    def words(byte_table) -> np.ndarray:
        rows = np.broadcast_to(byte_table, shape[:-1] + (_SLOT,)).reshape(-1, _SLOT)
        return rows.astype(np.uint8).view("<u8")

    return _Tables(
        digits, zeros, b, b_hi, b - b_hi,
        keep_int=words((text & (j >= s0) & (j < c)) * 0xFF),
        keep_frac=words((text & (j > c) & (j <= c + nfrac)) * 0xFF),
        fixed=words(fixed),
    )


def _percent(v: np.ndarray, nrows: int, ncols: int) -> bytes:
    """The text of the rows by one ``%`` call."""
    fmt = ("%.17g," * (ncols - 1) + "%.17g\n") * nrows
    return (fmt % tuple(v.tolist())).encode()


def _int_words(k: np.ndarray, first: bool) -> np.ndarray:
    """The slots of a 2-D array of integers in [0, 10^7), one word a
    value: the separator that precedes it, then 7 digits with the
    leading '0' bytes zeroed; ``first``: its first column starts a row."""
    tab = _tables()
    k = k.astype(np.int64, copy=False)
    hi = k // 10_000
    lo = k - hi * 10_000
    w = tab.digits.take(lo) << _U32
    w |= tab.digits.take(hi)  # its first digit is '0': hi < 1000
    # keep the bytes from the lowest one that is no '0' (or the last digit)
    low = w ^ _ZEROS
    low |= _LAST_DIGIT
    np.bitwise_and(low, -low, out=low)
    w &= -low
    sep = np.full(k.shape[1], _SEPARATOR[0])
    sep[0] = _SEPARATOR[first]
    w |= sep
    return w


def _float_words(rows: np.ndarray, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """The slots of a 2-D float array, (rows, columns, 3) words, each after
    its separator (``first``: its first column starts a row), and the
    values that ``%`` formats, in row order."""
    nrows, ncols = rows.shape
    v = rows.ravel()
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
    b_hi = tab.power_hi.take(r)
    b_lo = tab.power_lo.take(r)
    p = tab.power.take(r)
    p *= a
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a -= a_hi  # now the low half of |v|
    err = a_hi * b_hi
    err -= p
    a_hi *= b_lo
    err += a_hi
    b_hi *= a
    err += b_hi
    b_lo *= a
    err += b_lo
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
    # the trailing zeros lie in the last group but where it is 0 (rare
    # but for zeros and short decimals): count those lanes again in full
    tz = tab.zeros.take(g4)
    redo = np.flatnonzero(g4 == 0)
    if redo.size:
        full = tab.zeros.take(g1.take(redo))
        for g in (g2.take(redo), g3.take(redo)):
            full *= g == 0
            full += tab.zeros.take(g)
        tz[redo] += full

    key = r * (_TZ * 4)
    tz *= 4
    key += tz
    key += np.signbit(v)
    if first:
        key.reshape(nrows, ncols)[:, 0] += 2

    words = np.empty((nrows, ncols, 3), "<u8")  # little-endian: bytes in text order
    w = words.reshape(-1, 3)
    w[:, 0] = g0.view(np.uint64) << _U56 | _PADS
    w[:, 1] = tab.digits.take(g2) << _U32 | tab.digits.take(g1)
    w[:, 2] = tab.digits.take(g4) << _U32 | tab.digits.take(g3)
    flat = w.ravel()
    moved = flat >> _U8  # every byte a byte down
    moved[:-1] |= flat[1:] << _U56
    moved = moved.reshape(-1, 3)
    moved &= tab.keep_int.take(key, axis=0)
    w &= tab.keep_frac.take(key, axis=0)
    w |= moved
    w |= tab.fixed.take(key, axis=0)
    return words, v[~ok]


def _columns(columns) -> list[np.ndarray]:
    """The columns as 2-D arrays of one row a CSV row, those of no width
    left out: integer arrays as they are, anything else as float64."""
    cols = []
    for column in columns:
        c = np.asarray(column)
        if c.dtype.kind not in "iu":
            c = c.astype(np.float64, copy=False)
        if c.ndim not in (1, 2):
            raise ValueError(f"a column must be 1-D or 2-D, got shape {c.shape}")
        cols.append(c if c.ndim == 2 else c[:, None])
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"the columns differ in length: {[len(c) for c in cols]}")
    cols = [c for c in cols if c.shape[1]]
    if not cols:
        raise ValueError("no columns to write")
    return cols


def _format(cols: list[np.ndarray]) -> bytes:
    """The CSV text of the rows of 2-D columns (``_columns``)."""
    nrows = len(cols[0])
    ncols = sum(c.shape[1] for c in cols)
    if nrows * ncols < MIN_ARRAY_VALUES:
        rows = np.column_stack(cols).astype(np.float64, copy=False)
        return _percent(rows.ravel(), nrows, ncols)
    slots = [c.dtype.kind in "iu" and c.min() >= 0 and c.max() < _INT_END for c in cols]
    floats = [c.astype(np.float64, copy=False) for c, s in zip(cols, slots) if not s]
    rest = ()
    if floats:
        rows = floats[0] if len(floats) == 1 else np.column_stack(floats)
        fwords, rest = _float_words(rows, not slots[0])
        words = fwords.reshape(nrows, -1)
    if any(slots):  # each column's words in turn: integer slots or its float slots
        pieces, f = [], 0
        for j, (c, s) in enumerate(zip(cols, slots)):
            if s:
                pieces.append(_int_words(c, j == 0))
            else:
                pieces.append(words[:, f : f + 3 * c.shape[1]])
                f += 3 * c.shape[1]
        words = np.concatenate(pieces, axis=1)
    # one compress of the nonzero bytes; the block's first byte is a "\n"
    text = words.tobytes().translate(None, b"\0")[1:] + b"\n"
    if len(rest) == 0:
        return text
    # the other lanes hold "%.17g": the text is their format string
    return text % tuple(rest.tolist())


def format_rows(*columns) -> bytes:
    """The CSV text of the columns side by side: ``%.17g`` values, commas,
    newlines, in one block."""
    return _format(_columns(columns))


def write_rows(fh, *columns) -> None:
    """Write ``format_rows`` of the columns to a binary file, block by block."""
    cols = _columns(columns)
    step = max(1, BLOCK_VALUES // sum(c.shape[1] for c in cols))
    for i in range(0, len(cols[0]), step):
        fh.write(_format([c[i : i + step] for c in cols]))


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
