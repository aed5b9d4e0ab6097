import os
import types

import numpy as np
import pytest

from driftflight import csvtext
from driftflight.csvtext import BLOCK_VALUES, format_rows, row_blocks


def _percent(rows) -> bytes:
    """The reference: Python's own %.17g, value by value."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist()).encode()


def _blocks(values, ncols=4):
    """The values (padded with zeros) as rows of ``ncols``."""
    values = np.asarray(values, dtype=float)
    pad = -len(values) % ncols
    return np.concatenate([values, np.zeros(pad)]).reshape(-1, ncols)


def _check(values, ncols=4):
    rows = _blocks(values, ncols)
    step = BLOCK_VALUES // ncols
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        assert format_rows(block) == _percent(block)


def test_random_bit_patterns():
    # every double is equally likely to be any 64-bit pattern here: NaNs
    # and infinities of both signs, subnormals, all exponents; most are
    # outside the fixed range and go through the per-block % call
    rng = np.random.default_rng(20260101)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    special = [np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    _check(np.concatenate([special, values]))


def test_random_values_over_22_decades():
    rng = np.random.default_rng(20260102)
    values = rng.uniform(-1.0, 1.0, 400_000) * 10.0 ** rng.integers(-6, 17, 400_000)
    _check(values, ncols=5)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    down = np.nextafter(powers, -np.inf)
    up = np.nextafter(powers, np.inf)
    values = np.concatenate([powers, down, up])
    _check(np.concatenate([values, -values]), ncols=3)


def test_ties_at_the_seventeenth_digit():
    # v = m / 2^(17 - X) with m odd near 10^X 2^(17 - X): v 10^(16 - X) is
    # m 5^(16 - X) / 2, exactly halfway between two 17-digit significands
    # (odd/8 near 1e14, odd/4 near 1e15, and so on down to X = -4)
    values = []
    for X in range(-4, 16):
        scale = 2.0 ** (17 - X)
        m0 = int(10.0**X * scale) | 1
        m = m0 + 2 * np.arange(-200, 400)
        values.append(m / scale)
    values.append(np.array([123456789012345.625, 123456789012345.375, 1234567890123456.25]))
    values = np.concatenate(values)
    _check(np.concatenate([values, -values]))


def test_zeros_integers_and_the_range_ends():
    ends = np.array([1e-4, 1e17])
    around = np.concatenate([ends, np.nextafter(ends, 0), np.nextafter(ends, np.inf)])
    for k in range(1, 4):  # a few ulps further
        around = np.concatenate([around, np.nextafter(around, 0), np.nextafter(around, np.inf)])
    values = np.concatenate([[0.0, -0.0], np.arange(100_001.0), around, 9.999999999999999e16 - 16 * np.arange(50)])
    _check(np.concatenate([values, -values]))


@pytest.mark.parametrize("bias", [-0.5, 0.5])
def test_a_misjudged_exponent_falls_back(monkeypatch, bias):
    # log10 off by half a decade misjudges X for about half of the values,
    # too small or too large, and at both ends of the fixed range
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(-5, 18, 20_000)
    _check(np.concatenate([values, [1e-4, 2e-4, 9.9e16, 5e16, 1.0, 10.0]]))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (3, 2)])
@pytest.mark.parametrize("min_array", [csvtext.MIN_ARRAY_VALUES, 0])
def test_small_blocks_on_both_paths(monkeypatch, shape, min_array):
    # the array path must also hold below the size where it is chosen
    monkeypatch.setattr(csvtext, "MIN_ARRAY_VALUES", min_array)
    rows = np.array([[0.1, -0.0, 12345.0, 1e-5, np.nan, 2.5e17, -1.5, 0.0, 7.0]]).ravel()
    rows = np.resize(rows, shape[0] * shape[1]).reshape(shape)
    assert format_rows(rows) == _percent(rows)


@pytest.mark.parametrize("ncols", [1, 4, 9])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_row_blocks_across_block_seams(ncols, extra):
    rng = np.random.default_rng(ncols)
    nrows = BLOCK_VALUES // ncols + extra
    rows = rng.uniform(-1.0, 1.0, (nrows, ncols)) * 10.0 ** rng.integers(-5, 18, (nrows, ncols))
    rows[::3, 0] = np.arange(len(rows[::3]))
    rows[1::5, -1] = 0.0
    assert b"".join(row_blocks(rows)) == _percent(rows)


# integers inside the integer slot [0, 10^7), and outside it: there the
# double rounds from 2^53 on (2^53 + 1 reads 9007199254740992)
_SLOT_INTS = [0, 9, 10, 99, 100, 9999, 10_000, 10**6, 10**7 - 1]
_WIDE_INTS = [10**7, 10**15, 2**53 - 1, 2**53, 2**53 + 1, -1, -(2**63), 2**63 - 1]


def _percent_columns(*columns) -> bytes:
    """The reference for columns side by side: %.17g of each value as a double."""
    lists = [np.asarray(c).reshape(len(c), -1).tolist() for c in columns]
    return "".join(
        ",".join("%.17g" % float(v) for part in row for v in part) + "\n" for row in zip(*lists)
    ).encode()


def _int_column(kind, nrows: int):
    """Integers of ``kind`` (a list: Python ints): the first and last block
    (of 4-value rows) inside the integer slot, the middle one also outside
    it, with the extremes of the type."""
    info = np.iinfo(np.int64 if kind is list else kind)
    rng = np.random.default_rng(info.bits)
    values = rng.integers(0, min(10**7, int(info.max) + 1), nrows).tolist()
    inside = [k for k in _SLOT_INTS if k <= info.max]
    values[: len(inside)] = values[-len(inside) :] = inside
    wide = [k for k in _WIDE_INTS if info.min <= k <= info.max] + [int(info.min), int(info.max)]
    mid = nrows // 2
    values[mid : mid + len(wide)] = wide
    return values if kind is list else np.array(values, dtype=kind)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.uint64, list])
@pytest.mark.parametrize("place", ["first", "between", "last"])
@pytest.mark.parametrize("min_array", [csvtext.MIN_ARRAY_VALUES, 0, 10**9])
def test_integer_columns_read_as_their_doubles(monkeypatch, kind, place, min_array):
    # three blocks of 4-value rows, the last one short; min_array 10**9
    # sends every block through %, 0 even the short one through the array path
    monkeypatch.setattr(csvtext, "MIN_ARRAY_VALUES", min_array)
    nrows = 3 * (BLOCK_VALUES // 4) - 5
    ints = _int_column(kind, nrows)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (nrows, 3)) * 10.0 ** rng.integers(-5, 18, (nrows, 3))
    columns = {
        "first": (ints, x[:, 0], x[:, 1:]),
        "between": (x[:, 0], ints, x[:, 1:]),
        "last": (x[:, 0], x[:, 1:], ints),
    }[place]
    assert b"".join(row_blocks(*columns)) == _percent_columns(*columns)


@pytest.mark.parametrize("min_array", [csvtext.MIN_ARRAY_VALUES, 0])
def test_integer_only_rows_and_two_dimensional_integers(monkeypatch, min_array):
    monkeypatch.setattr(csvtext, "MIN_ARRAY_VALUES", min_array)
    ints = _int_column(np.int64, 2 * BLOCK_VALUES + 7)
    pairs = np.column_stack([ints[::-1], ints])
    end = np.arange(10**7 - 5000, 10**7 + 1)  # the last block ends at 10^7, past the slot
    for columns in [(ints,), (pairs,), (ints, pairs), (pairs[:, :1], np.arange(len(ints))), (end,)]:
        assert format_rows(*columns) == _percent_columns(*columns)
        assert b"".join(row_blocks(*columns)) == _percent_columns(*columns)


def test_integer_slot_takes_the_columns_in_its_range(monkeypatch):
    # the replicate and segment columns of simulate never reach the float path
    widths = []
    float_words = csvtext._float_words
    monkeypatch.setattr(
        csvtext, "_float_words", lambda rows, first: widths.append(rows.shape[1]) or float_words(rows, first)
    )
    nrows = 3000
    ints = np.arange(10**7 - nrows, 10**7)  # up to the last integer of the slot
    columns = (ints, ints % 4, np.linspace(0.0, 1.0, nrows), np.ones((nrows, 2)))
    assert b"".join(row_blocks(*columns)) == _percent_columns(*columns)
    assert widths and set(widths) == {3}


@pytest.mark.parametrize(
    "columns", [(), (np.zeros((3, 0)),), (np.zeros((0, 0)),), (np.arange(3), np.arange(4))]
)
def test_row_blocks_refuse_no_columns_and_ragged_ones(columns):
    with pytest.raises(ValueError):
        b"".join(row_blocks(*columns))


def test_write_output_finishes_short_writes_and_cuts_the_old_tail(tmp_path, monkeypatch):
    # a write may take fewer bytes than it is given (a pipe, a signal):
    # here every one takes at most 3, over an older, longer file
    path = tmp_path / "out"
    path.write_bytes(b"\xff" * 100)
    short = types.SimpleNamespace(**{**vars(os), "write": lambda fd, data: os.write(fd, data[:3])})
    monkeypatch.setattr(csvtext, "os", short)
    csvtext.write_output(path, (chunk for chunk in [b"abcdefg", b"", b"hij"]))
    assert path.read_bytes() == b"abcdefghij"
