import csv

import numpy as np
import pytest

from antires.output import write_csv, write_json


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
