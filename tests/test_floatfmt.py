"""``floatfmt.format_floats`` and the CSV writer ``floatfmt.CsvWriter``
built on it, against Python's own ``'%.17g' % x`` as the oracle."""

import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscbath import floatfmt

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def formatted(x):
    return [row[row != 0].tobytes().decode() for row in floatfmt.format_floats(x)]


def csv_text(add, *arrays, pieces=(slice(None),)):
    """The lines ``CsvWriter.<add>`` writes of ``arrays``, handed to it one
    slice of ``pieces`` at a time, as one string."""
    fh = io.BytesIO()
    csv = floatfmt.CsvWriter(fh, "")
    for s in pieces:
        getattr(csv, add)(*(a[s] for a in arrays))
    csv.flush()
    return fh.getvalue().decode().removeprefix("\n")


def oracle(x):
    return ["%.17g" % v for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


def with_neighbours(x):
    """``x``, the doubles on either side of each value, and their negatives."""
    x = np.asarray(x, dtype=np.float64)
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def eighteen_digit_ties():
    """Doubles k 2^-m whose decimal expansion has exactly 18 significant
    digits, the last a 5: each lies exactly halfway between two 17-digit
    decimals."""
    ties = []
    for m in range(1, 26):  # k 5^m has more than 18 digits beyond m = 25
        five = 5 ** m  # k 2^-m = k 5^m 10^-m
        first = -(-10 ** 17 // five) | 1  # odd, so the last digit is 5
        for k in range(first, min(10 ** 18 // five, 2 ** 53, first + 60), 2):
            if len(str(k * five)) == 18:
                ties.append(k / 2 ** m)
    return np.array(ties)


@PROPERTY
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_double(values):
    # nan, +-inf, +-0, subnormals and the largest double all come up
    assert formatted(values) == oracle(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(0).integers(-2 ** 63, 2 ** 63, 20_000, dtype=np.int64)
    x = bits.view(np.float64)
    assert formatted(x) == oracle(x)


def test_powers_of_ten_and_neighbours():
    x = with_neighbours([float(f"1e{k}") for k in range(-330, 309)])
    assert formatted(x) == oracle(x)


def test_exact_ties():
    ties = eighteen_digit_ties()
    assert 2.0 ** -25 in ties  # 2.98023223876953125e-08
    assert len(ties) > 500
    x = with_neighbours(ties)
    assert formatted(x) == oracle(x)


def test_large_integers():
    x = with_neighbours([float(2 ** k) for k in range(53, 64)])
    assert formatted(x) == oracle(x)


def test_form_boundaries():
    # fixed notation from 1e-4 up to below 1e17, exponent form outside
    x = with_neighbours([1e-4, 1e16, 1e17, 9.999999999999999e16, 99999999999999999.0])
    assert formatted(x) == oracle(x)
    assert formatted([1e-4, 1e16, 1e17, 5e-5]) == ["0.0001", "10000000000000000",
                                                   "1e+17", "5.0000000000000002e-05"]


def test_misjudged_exponent_falls_back():
    # a log10 one too low or one too high puts the scaled integer outside
    # [10^16, 10^17), and the value goes to Python's formatting
    a = np.abs(with_neighbours([1e5, 123.456, 9.5e-3, 1e-14, 1e23]))
    e = np.array([Decimal(v).adjusted() for v in a.tolist()])  # exact
    for wrong in (e - 1, e + 1):
        assert floatfmt._scaled(a, wrong)[1].all()


def test_special_values():
    x = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.5, 1.0, 100.0]
    assert formatted(x) == oracle(x)
    assert formatted([0.0, -0.0, np.inf, -np.inf])[:4] == ["0", "-0", "inf", "-inf"]
    # zeros and non-finite values go to Python's own formatting with every
    # other value the fast path leaves, here at varied places among
    # ordinary values, runs of them included
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1_500) * 10.0 ** rng.integers(-30, 30, 1_500)
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    places = rng.choice(len(x), 300, replace=False)
    x[places] = special[np.arange(300) % 6]
    x[700:712] = np.tile(special, 2)
    assert formatted(x) == oracle(x)


def test_last_column_is_free():
    x = with_neighbours(np.geomspace(1e-300, 1e300, 2_000))
    rows = floatfmt.format_floats(np.concatenate([x, [np.nan, -np.inf, -0.0]]))
    assert rows.shape[1] == floatfmt.WIDTH and not rows[:, -1].any()


def test_argument_is_never_written():
    # the formatter reuses its own arrays in place, never its argument's
    # memory: a contiguous and a strided array, with values for the fast
    # path and for every reason to fall back, are bit for bit unchanged
    rng = np.random.default_rng(4)
    ties = eighteen_digit_ties()
    values = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.225073858507201e-308,
         1e-271, -1e-270, 1e270, -1e271, 1.7976931348623157e308],
        ties, -ties,
        rng.standard_normal(3_000) * 10.0 ** rng.integers(-320, 307, 3_000)])
    rng.shuffle(values)
    strided = np.empty((len(values), 3))
    strided[:, 0] = values
    strided[:, 1:] = rng.standard_normal((len(values), 2))
    for owner, x in ((values, values), (strided, strided[:, 0])):
        before = owner.tobytes()
        assert formatted(x) == oracle(x)
        assert owner.tobytes() == before


@PROPERTY
@given(st.lists(st.complex_numbers(), min_size=6, max_size=6),
       st.lists(st.floats(width=64), min_size=3, max_size=3))
# time texts of five different lengths in one call
@example(values=[0.5 - 2j, -0.0, 1e300j, 3.0, -1e-300, 7 + 7j, 0j, 2.5, -1j, 1e17],
         times=[0.0, 1e-05, 0.5, 123.25, 1e+17])
def test_complex_grid(values, times):
    # the lines of a (times, 2) complex grid, "t,n,re,im", as Python writes them
    grid = np.array(values, dtype=np.complex128).reshape(len(times), 2)
    lines = csv_text("grid", np.array(times), grid)
    expected = "".join("%.17g,%d,%.17g,%.17g\n" % (t, n, v.real, v.imag)
                       for t, row in zip(times, grid.tolist()) for n, v in enumerate(row))
    assert lines == expected


@PROPERTY
@given(st.lists(st.tuples(st.floats(width=64), st.floats(width=64), st.booleans()),
                min_size=1, max_size=20))
def test_columns_and_flags(rows):
    t, x, flag = (np.array(c) for c in zip(*rows))
    lines = csv_text("rows", t, x, flag)
    assert lines == "".join("%.17g,%.17g,%d\n" % row for row in rows)


@pytest.mark.parametrize("call_numbers", [1, 7, 60, 4096])
def test_grid_in_pieces(monkeypatch, call_numbers):
    # a call cuts the lines of one time apart and spans the pieces a grid
    # arrives in; the index field has one- and two-digit indices
    monkeypatch.setattr(floatfmt, "CALL_NUMBERS", call_numbers)
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.random(9)) * 10.0 ** rng.integers(-6, 18, 9)
    values = rng.standard_normal((9, 11, 2)) + 1j * rng.standard_normal((9, 11, 2))
    values[3] = 0.0
    lines = csv_text("grid", times, values, pieces=(slice(0, 1), slice(1, 4), slice(4, 9)))
    assert lines == "".join(
        "%.17g,%d,%d,%.17g,%.17g\n" % (t, n, m, v.real, v.imag)
        for t, v_t in zip(times.tolist(), values.tolist())
        for n, row in enumerate(v_t) for m, v in enumerate(row))


@pytest.mark.parametrize("call_numbers", [1, 7, 4096])
def test_rows_in_pieces(monkeypatch, call_numbers):
    monkeypatch.setattr(floatfmt, "CALL_NUMBERS", call_numbers)
    rng = np.random.default_rng(3)
    t, x = np.arange(10) * 0.1, rng.standard_normal(10)
    flag = x > 0
    lines = csv_text("rows", t, x, flag, pieces=(slice(0, 1), slice(1, 5), slice(5, 10)))
    assert lines == "".join(
        "%.17g,%.17g,%d\n" % row for row in zip(t.tolist(), x.tolist(), flag.tolist()))
