"""The one writer of every output file.

CSV files hold a header row, quoted by :mod:`csv` where a label needs it,
then one row per entry of the columns.  Floats are written with ``%.17g``,
so re-reading a file reproduces the in-memory arrays bit for bit; every
other value is written with ``str``.  Rows end in ``\\r\\n``.  JSON reports
are written with sorted keys, a 2-space indent and a trailing newline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` under ``header``, one row per entry.

    Rows are formatted one at a time from the columns, so no table of
    Python values is built in memory.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for values in zip(*columns):
            fh.write(row % values)


def write_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as sorted, 2-space-indented JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
