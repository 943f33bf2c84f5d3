import csv
import io

import numpy as np
import pytest
from helpers import traced_peak
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antires.output import _BLOCK_BYTES, _CELL_BYTES, write_csv, write_json


def test_csv_formats_floats_exactly_and_other_columns_as_text(tmp_path):
    path = tmp_path / "t.csv"
    x = np.array([0.1, -0.0, 1.0 / 3.0])
    write_csv(path, ["x", "n", "ok", 'a"b'], [x, [1, 2, 3], [True, False, True], x])
    assert path.read_bytes().split(b"\r\n") == [
        b'x,n,ok,"a""b"',
        b"0.10000000000000001,1,True,0.10000000000000001",
        b"-0,2,False,-0",
        b"0.33333333333333331,3,True,0.33333333333333331",
        b"",
    ]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    back = np.array([float(r[0]) for r in rows[1:]])
    assert np.array_equal(back.view(np.uint64), x.view(np.uint64))


def test_csv_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


def test_json_is_sorted_and_indented(tmp_path):
    path = tmp_path / "r.json"
    write_json({"b": [1.5], "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'


# ------------------------------------------------------- the float kernel


def _reference(header, columns):
    """The bytes of the table formatted one row at a time: ``'%.17g'`` for a
    float column, ``'%s'`` for any other."""
    columns = [np.asarray(c) for c in columns]
    head = io.StringIO()
    csv.writer(head).writerow(header)
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\r\n"
    return (head.getvalue() + "".join(row % values for values in zip(*columns))).encode()


def _assert_written_as_reference(path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    write_csv(path, header, columns)
    # as lists of rows, so that a failure names the first row that differs
    assert path.read_bytes().split(b"\r\n") == _reference(header, columns).split(b"\r\n")


def _from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


_FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda b: float(_from_bits([b])[0])),  # any bit pattern
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_FLOAT64, min_size=n, max_size=n), min_size=1, max_size=4),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
)))
def test_csv_of_any_floats_ints_and_bools_is_the_row_by_row_reference(tmp_path, table):
    floats, ints, bools = table
    columns = [np.array(floats[0]), np.array(ints, dtype=np.int64),
               *map(np.array, floats[1:]), np.array(bools, dtype=bool)]
    _assert_written_as_reference(tmp_path / "t.csv", columns)


def _neighbours(values, steps=3):
    """Each value and its ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


@pytest.mark.parametrize("values", [
    pytest.param(_neighbours(10.0 ** np.arange(-8, 19)), id="powers-of-ten"),
    pytest.param(_neighbours([float(f"1e{k}") for k in range(-8, 19)]), id="decimal-powers"),
    pytest.param(_neighbours([1e-8, 1e-7, 1e-6, 1e17, 99999999999999999.0,
                              9.9999999999999999e-6]), id="window-edges"),
    # 10**23 and 10**24 are not doubles: a 17th digit that is a tie (2**-25) and
    # ones within 2**-53 of a tie, where the two-sum's rounding error decides
    pytest.param(_neighbours([2.0**-25, 4.9102966142601843e-08, 1.0288839443954903e-08,
                              1.0076000255121024e-08, 1.1637465766696436e-07]),
                 id="near-ties-past-1e22"),
    # 16 integer digits and a quarter: the 17th digit is a tie, rounded to even
    pytest.param(np.arange(1e14, 4e15, 3.3e12)[:, None] + [0.25, 0.75, 0.5],
                 id="quarter-ties"),
    pytest.param(np.array([1234567890123456.25, 1234567890123457.25, 0.5, 2.5, 1.0 / 3.0]),
                 id="named-ties"),
    pytest.param(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                           2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
                 id="outside-the-window"),
])
def test_csv_of_edge_floats_is_the_row_by_row_reference(tmp_path, values):
    values = np.ravel(values)
    _assert_written_as_reference(tmp_path / "t.csv", [values, -values, values[::-1]])


def test_csv_of_a_million_seeded_floats_is_the_row_by_row_reference(tmp_path):
    rng = np.random.default_rng(20131127)
    n = 36_000
    columns = [
        _from_bits(rng.integers(0, 2**64, n, dtype=np.uint64)),
        rng.integers(-10**17, 10**17, n).astype(float),
        np.linspace(-25.0, 25.0, n),
    ] + [rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 19, n) for _ in range(25)]
    assert sum(map(len, columns)) >= 10**6
    _assert_written_as_reference(tmp_path / "t.csv", columns)


def _block_rows(n_columns):
    return max(1, _BLOCK_BYTES // (_CELL_BYTES * n_columns))


@pytest.mark.parametrize("rows", [0, 1, _block_rows(3) - 1, _block_rows(3),
                                  _block_rows(3) + 1, 2 * _block_rows(3) + 1])
def test_csv_tables_around_the_block_size_are_the_row_by_row_reference(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.uniform(-8, 18, rows)
    _assert_written_as_reference(tmp_path / "t.csv", [x, np.arange(rows), x * 1e-3])


def test_csv_scratch_is_bounded_by_the_block_not_the_table(tmp_path):
    rng = np.random.default_rng(7)
    columns = [rng.standard_normal(20_001) * 10.0 ** rng.uniform(-4, 2, 20_001)
               for _ in range(36)]
    write_csv(tmp_path / "warm.csv", [f"c{j}" for j in range(36)], columns)
    _, peak = traced_peak(
        lambda: write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(36)], columns)
    )
    assert peak <= 1.5 * 2**20
