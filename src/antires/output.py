"""The one writer of every output file.

CSV files hold a header row, quoted by :mod:`csv` where a label needs it,
then one row per entry of the columns.  Floats are written as ``%.17g``
would write them, so re-reading a file reproduces the in-memory arrays bit
for bit; every other value is written with ``str``.  Rows end in ``\\r\\n``.
Every file is UTF-8, whatever the locale.  JSON reports are written with
sorted keys, a 2-space indent and a trailing newline.

The float cells are formatted in numpy, a block of rows at a time, each
block's scratch bounded by ``_BLOCK_BYTES`` (1 MiB) whatever the size of the
table, and the block's bytes written as one.  A finite ``x`` with
``1e-8 < |x| < 1e17`` has a decimal exponent ``e`` in [-8, 16], and Dekker's
error-free product (T. J. Dekker, Numer. Math. 18 (1971) 224) and Knuth's
two-sum give ``|x| * 10**(16 - e)`` exactly as ``p + err + r`` (``_scaled``).
Rounding that sum half-even gives the 17-digit significand of the correctly
rounded conversion that ``'%.17g'`` makes (D. M. Gay, AT&T Numerical Analysis
Manuscript 90-10, 1990).  Every other float -- zeros, infinities, NaNs,
subnormals and the magnitudes outside that window -- is formatted by
``'%.17g'`` itself, one value at a time.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

import numpy as np

# Bound on the scratch of one block of rows (see _CELL_BYTES).
_BLOCK_BYTES = 2**20
# Scratch of one cell of a block: its float and exact product's terms, its
# digits, its text and its canvas slot (tracemalloc measures about 210 bytes).
_CELL_BYTES = 256
# Width of a float cell's text: '-', '0.0000' and 17 digits, or an exponent's.
_FLOAT_WIDTH = 24
# Fills every canvas byte no cell or separator writes; UTF-8 never holds it.
_PAD = 0xFF

_SPLIT = 134217729.0  # 2**27 + 1 splits a double's significand into two halves
_POW10 = np.array([float(10**k) for k in range(25)])  # 10**0 ... 10**24, rounded
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_REST = np.array([float(10**k - int(p)) for k, p in enumerate(_POW10)])  # 0, 2**23, 2**24


def _group_text() -> np.ndarray:
    """The 4 ASCII digits of 0 ... 9999, one little-endian uint32 each, then the
    same again with their trailing zeros padded (all 4 for 0000)."""
    text = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    trailing = True  # whether this digit and every later one is 0
    for k in range(3, -1, -1):
        digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((-1,) + (1,) * (3 - k))
        trailing = trailing & (digit == ord("0"))
        text[0, ..., k] = digit
        text[1, ..., k] = np.where(trailing, _PAD, digit)
    return text.view("<u4").ravel()


_GROUP_TEXT = _group_text()


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` under ``header``, one row per entry.

    The rows are formatted and written a block at a time, each block's
    scratch under ``_BLOCK_BYTES``, so no table of Python values is built:
    float cells as ``'%.17g'`` would write them (exact in numpy between 1e-8
    and 1e17 in magnitude, by ``'%.17g'`` itself elsewhere), other cells with
    ``str``.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    rows = len(columns[0]) if columns else 0
    step = max(1, _BLOCK_BYTES // (_CELL_BYTES * max(1, len(columns))))
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for lo in range(0, rows, step):
            fh.write(_csv_block([c[lo:lo + step] for c in columns]))


def _csv_block(columns: list[np.ndarray]) -> bytes:
    """The bytes of the CSV rows of equal-length ``columns``.

    Each cell is written left-aligned into a slot of a ``(rows, columns,
    width + 2)`` canvas filled with ``_PAD``, its separator in the slot's last
    two bytes; dropping the pad leaves the rows in order.
    """
    rows = len(columns[0])
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    texts = [(j, [str(v).encode("utf-8") for v in c])
             for j, c in enumerate(columns) if c.dtype.kind != "f"]
    width = max([_FLOAT_WIDTH] + [len(t) for _, col in texts for t in col])
    canvas = np.full((rows, len(columns), width + 2), _PAD, dtype=np.uint8)
    canvas[:, :, width] = ord(",")
    canvas[:, -1, width:] = (ord("\r"), ord("\n"))
    cells = canvas.reshape(-1, width + 2)  # cell (i, j) is row i * len(columns) + j
    for j, col in texts:
        _put_text(cells, np.arange(j, len(cells), len(columns)), col)
    if floats:
        x = np.empty((rows, len(floats)))
        for k, j in enumerate(floats):
            x[:, k] = columns[j]
        exact = (np.abs(x) > 1e-8) & (np.abs(x) < 1e17)  # False for NaN
        text = _float_text(np.where(exact, x, 1.0).ravel())
        canvas[:, floats, :_FLOAT_WIDTH] = text.reshape(rows, len(floats), _FLOAT_WIDTH)
        rest = np.nonzero(~exact)
        if rest[0].size:  # formatted by '%.17g' itself
            where = rest[0] * len(columns) + np.take(floats, rest[1])
            _put_text(cells, where, [b"%.17g" % v for v in x[rest].tolist()])
    return canvas.tobytes().translate(None, bytes([_PAD]))


def _put_text(cells: np.ndarray, rows: np.ndarray, texts: list[bytes]) -> None:
    """Write ``texts[i]`` left-aligned into the slot of ``cells[rows[i]]``, the
    rest of the slot padded."""
    width = cells.shape[1] - 2
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    data = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    cells[rows, :width] = np.where(np.arange(width) < lengths[:, None], data, _PAD)


def _float_text(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every ``v`` of ``x``, all with ``1e-8 < |v| < 1e17``:
    one ``_FLOAT_WIDTH`` row of uint8 each, padded with ``_PAD`` anywhere.

    The values are grouped by their decimal exponent, each group's texts
    written by column slices into rows that are then put back in order.
    """
    a = np.abs(x)
    # the decimal exponent e, from log10 and corrected where that is one off,
    # until |x| * 10**(16 - e) = p + err + r lies in [1e16, 1e17).  p - bound is
    # exact where small (p is an even integer); only a 0 sum with err leaves r to decide
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -8, 16)
    p, err, r = _scaled(a, e)
    while True:
        d = (p - 1e16) + err
        low = (d < 0) | ((d == 0) & (r < 0))
        d = (p - 1e17) + err
        high = (d > 0) | ((d == 0) & (r >= 0))
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        e[off] += high[off].astype(np.intp) - low[off]
        p[off], err[off], r[off] = _scaled(a[off], e[off])
    # p >= 2**53 is an even integer, so rounding p + err + r half-even adds err
    # rounded half-even, or where err is halfway and r is not 0, rounded r's way.
    # The sum never rounds up to 10**17: half a 17th digit is 5e-18 of the value,
    # and the double closest below a power of ten in the window lies 4.5e-17 below
    # it (below 1e-7 and 1e-6, which are not doubles).
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    tie = np.flatnonzero(r)
    tie = tie[err[tie] % 1 == 0.5]
    digits[tie] = p[tie].astype(np.int64) + np.floor(err[tie]).astype(np.int64) + (r[tie] > 0)

    order = np.argsort((e + 8).astype(np.int8), kind="stable")
    e, tail = e[order], digits[order]
    lead = tail // 10**16
    tail -= lead * 10**16
    lead = (lead + ord("0")).astype(np.uint8)
    # the 16 digits after the leading one, 4 at a time from the last: as they
    # are, and with every trailing zero padded
    full = np.empty((len(x), 4), dtype="<u4")
    bare = np.empty((len(x), 4), dtype="<u4")
    padded = np.full(len(x), 10_000)  # _GROUP_TEXT's padded half, until a nonzero group
    for k in range(3, -1, -1):
        rest = tail // 10_000  # // and - as numpy's int64 % is several times slower
        group = tail - rest * 10_000
        full[:, k] = _GROUP_TEXT.take(group)
        bare[:, k] = _GROUP_TEXT.take(group + padded)
        padded[group != 0] = 0
        tail = rest
    full, bare = full.view(np.uint8), bare.view(np.uint8)

    text = np.full((len(x), _FLOAT_WIDTH), _PAD, dtype=np.uint8)
    bounds = np.searchsorted(e, np.arange(-8, 18))
    for exp, lo, hi in zip(range(-8, 17), bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        t, b = text[lo:hi], bare[lo:hi]
        if 0 <= exp <= 16:  # ddd.ddd, its '.' padded with the whole fraction
            t[:, 1] = lead[lo:hi]
            t[:, 2:exp + 2] = full[lo:hi, :exp]
            if exp < 16:
                t[:, exp + 2] = np.where(b[:, exp] == _PAD, _PAD, ord("."))
                t[:, exp + 3:19] = b[:, exp:]
        elif exp >= -4:  # 0.000ddd
            t[:, 1:2 - exp] = np.frombuffer(b"0." + b"0" * (-1 - exp), dtype=np.uint8)
            t[:, 2 - exp] = lead[lo:hi]
            t[:, 3 - exp:19 - exp] = b
        else:  # d.ddde-06
            t[:, 1] = lead[lo:hi]
            t[:, 2] = np.where(b[:, 0] == _PAD, _PAD, ord("."))
            t[:, 3:19] = b
            t[:, 19:23] = np.frombuffer(b"e%+03d" % exp, dtype=np.uint8)
    back = np.empty_like(order)
    back[order] = np.arange(len(x))
    text = text.take(back, axis=0)
    text[:, 0] = np.where(np.signbit(x), ord("-"), _PAD)
    return text


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a * 10**(16 - e)`` as ``p + err + r`` exactly: Dekker's two-product with the
    double nearest ``10**(16 - e)``, then ``a`` times the power of two that double
    misses by (0 to 10**22) added to ``err`` by two-sum, ``r`` its rounding error."""
    k = 16 - e
    s, s_hi, s_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * s
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    rest = a * _POW10_REST.take(k)
    total = err + rest
    back = total - err
    return p, total, (err - (total - back)) + (rest - back)


def write_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as sorted, 2-space-indented JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
