import io

import numpy as np
import pytest

from driftflight import csvtext
from driftflight.csvtext import BLOCK_VALUES, format_rows, write_rows


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
def test_write_rows_across_block_seams(ncols, extra):
    rng = np.random.default_rng(ncols)
    nrows = BLOCK_VALUES // ncols + extra
    rows = rng.uniform(-1.0, 1.0, (nrows, ncols)) * 10.0 ** rng.integers(-5, 18, (nrows, ncols))
    rows[::3, 0] = np.arange(len(rows[::3]))
    rows[1::5, -1] = 0.0
    sink = io.BytesIO()
    write_rows(sink, rows)
    assert sink.getvalue() == _percent(rows)
