"""The chunked report writer against a plain per-value writer.

`reference_json` and `reference_csv` format one value at a time from
`format_float`, `_quote` and the words true/false (JSON) or 1/0 (CSV); the
`Records` writer must produce the same bytes on seeded random columns that
span many CHUNK_ROWS-row chunks.  The bytes of every long list must not
depend on the chunk size, and the writer's memory must stay near one chunk
whatever the length of a numpy column, while every piece is made in turn.
"""

import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from twosq import reportio
from twosq.cli import dispatch
from twosq.errors import ResourceError
from twosq.reportio import CHUNK_ROWS, Records, _quote, format_float, to_csv, to_json
from twosq.scans import MaierConfig, maier_demo

INT64_MAX = 2**63 - 1


def reference_cell(v, as_json):
    if isinstance(v, bool):
        return ("true" if v else "false") if as_json else ("1" if v else "0")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    return _quote(v) if as_json else v


def reference_json(fields, columns):
    rows = []
    for row in zip(*columns):
        cells = (_quote(f) + ": " + reference_cell(v, True) for f, v in zip(fields, row))
        rows.append("{" + ", ".join(cells) + "}")
    return "[" + ", ".join(rows) + "]"


def reference_csv(fields, columns):
    lines = [",".join(fields)]
    lines += [",".join(reference_cell(v, False) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Equality of long texts, reporting only the neighbourhood of the first difference."""
    if got != want:
        i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[i - 60 : i + 60]!r} != {want[i - 60 : i + 60]!r}")


def random_columns(n, seed):
    """Columns of n rows (n > CHUNK_ROWS): ints over all of int64, two float
    columns with edge values, a flag column and a string column."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**63), 2**63, size=n, dtype=np.int64)
    keys[:3] = [INT64_MAX, -INT64_MAX - 1, -1]
    counts = rng.integers(0, 1000, size=n, dtype=np.int64)
    # Random bit patterns: finite floats of both signs over the whole exponent range.
    wide = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64).copy()
    wide[~np.isfinite(wide)] = 1.5
    wide[3:10] = [1e16, 1e-5, 5e-324, -0.0, 0.0, 123456789012.5, 2.0**-1074 * 3]
    later = CHUNK_ROWS + 17
    for at in (20, later):  # non-finite values in the first chunk and in a later one
        wide[at : at + 3] = [np.nan, np.inf, -np.inf]
    ratio = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n)
    ratio[later + 5 : later + 8] = [-np.inf, np.nan, np.inf]  # only the later chunk
    flags = rng.random(n) < 0.5
    words = np.array(["g", 'quote"d', "back\\slash", "buchstab"])[rng.integers(0, 4, size=n)]
    return keys, counts, wide, ratio, flags, words


FIELDS = ("key", "count", "predicted", "ra%tio", "applicable", "kind")


def test_records_match_reference():
    columns = random_columns((1 << 16) + 4321, seed=0)
    plain = [c.tolist() for c in columns]
    assert all(isinstance(v, bool) for v in plain[4]) and any(plain[4]) and not all(plain[4])
    assert np.isfinite(columns[3][:CHUNK_ROWS]).all() and not np.isfinite(columns[2][:CHUNK_ROWS]).all()

    rec = Records.held(FIELDS, columns)
    json_text = "".join(to_json({"n": len(plain[0]), "rows": rec}))
    assert_same_text(json_text, '{"n": %d, "rows": %s}\n' % (len(plain[0]), reference_json(FIELDS, plain)))
    assert_same_text("".join(to_csv(rec)), reference_csv(FIELDS, plain))
    # Python sequences (a tabulation's columns) write the same bytes as numpy columns.
    as_tuples = Records.held(FIELDS, tuple(map(tuple, plain)))
    assert_same_text("".join(to_json({"n": len(plain[0]), "rows": as_tuples})), json_text)


def test_chunks_split_rows_not_text():
    columns = random_columns(2 * CHUNK_ROWS + 1, 2)
    pieces = to_csv(Records.held(FIELDS, columns))
    assert len(pieces) == 4  # the header and three chunks
    assert [p.count("\n") for p in pieces] == [1, CHUNK_ROWS, CHUNK_ROWS, 1]


def test_empty_table():
    rec = Records.held(("x", "y"), (np.zeros(0, dtype=np.int64), np.zeros(0)))
    assert "".join(to_json({"rows": rec})) == '{"rows": []}\n'
    assert "".join(to_csv(rec)) == "x,y\n"


def test_unsupported_column_rejected():
    # raised by the call, before any piece is made: the CLI opens --out first
    table = Records.held(("x", "y"), (np.arange(CHUNK_ROWS + 1), np.array([object()] * (CHUNK_ROWS + 1))))
    for write in (to_json, to_csv):
        with pytest.raises(TypeError):
            write(table)


def test_unsupported_value_rejected():
    # a value of a long list or of a CSV row that cannot be written, or a CSV row
    # that is not a sequence, raises at the call too; str refuses an int of more
    # than 4,300 digits (the default limit), which the writer reports as a
    # ResourceError naming that limit
    long_list = [[d, d] for d in range(CHUNK_ROWS)]
    with pytest.raises(TypeError):
        to_json({"rows": long_list + [[0, object()]]})
    with pytest.raises(TypeError):
        to_csv([(1, 2), 3], header=["x", "y"])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for value in (10**4400, Fraction(1, 10**4400), {10**4400: 1}):
            with pytest.raises(ResourceError, match=r"sys.get_int_max_str_digits\(\) = 4300"):
                to_json(long_list + [[0, value]])
        for value in (10**4400, Fraction(1, 10**4400)):
            with pytest.raises(ResourceError, match=r"sys.get_int_max_str_digits\(\) = 4300"):
                to_csv([(1, 2), (3, value)], header=["x", "y"])
        with pytest.raises(ValueError):  # a CSV cell of a dict is its str, not a number the writer spells
            to_csv([(1, 2), (3, {10**4400: 1})], header=["x", "y"])
    finally:
        sys.set_int_max_str_digits(limit)


def test_numpy_scalar_rejected():
    # a report's values are Python scalars, Fractions and numpy floats (a float
    # subclass); a numpy int or bool is refused, not converted
    for value in (np.int64(1), np.bool_(True), [np.int64(1)]):
        with pytest.raises(TypeError):
            to_json(value)


def test_pieces_iterate_again():
    table = Records.held(FIELDS, random_columns(2 * CHUNK_ROWS + 5, seed=5))
    for pieces in (to_json({"rows": table, "ints": np.arange(3 * CHUNK_ROWS)}), to_csv(table)):
        first = list(pieces)
        assert list(pieces) == first and len(pieces) == len(first)


def test_bytes_do_not_depend_on_chunk_size(monkeypatch):
    table = Records.held(FIELDS, random_columns(CHUNK_ROWS + 1000, seed=3))  # ratio: non-finite in one chunk only
    ints = np.array([-(2**63), INT64_MAX, 0, -1, 20] * 999, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    pairs = [[d, (d * d) % 97] for d in range(1, 10**4 + 1)]

    def texts():
        return {
            "records_json": "".join(to_json(table)),
            "records_csv": "".join(to_csv(table)),
            "ints_json": "".join(to_json(ints)),
            "ints_csv": "".join(to_csv(Records.held(("member",), (ints,)))),
            "empty_json": "".join(to_json(empty)),
            "empty_csv": "".join(to_csv(Records.held(("member",), (empty,)))),
            "pairs_json": "".join(to_json(pairs)),
            "pairs_csv": "".join(to_csv(pairs, header=["d", "count"])),
        }

    plain = [c.tolist() for c in table.rows(0, table.n_rows)]
    want = {
        "records_json": reference_json(FIELDS, plain) + "\n",
        "records_csv": reference_csv(FIELDS, plain),
        "ints_json": json.dumps(ints.tolist()) + "\n",
        "ints_csv": "member\n" + "".join(f"{v}\n" for v in ints.tolist()),
        "empty_json": "[]\n",
        "empty_csv": "member\n",
        "pairs_json": json.dumps(pairs) + "\n",
        "pairs_csv": "d,count\n" + "".join(f"{d},{c}\n" for d, c in pairs),
    }
    for size in (1, 7, 1 << 10, 1 << 12, 1 << 16):
        monkeypatch.setattr(reportio, "CHUNK_ROWS", size)
        for name, got in texts().items():
            assert_same_text(got, want[name])


def traced_excess(write, *args):
    """The pieces `write(*args)` returns, and the traced peak memory of the call
    and of making every piece in turn, less the characters of the largest piece
    (ASCII: a byte each)."""
    tracemalloc.start()
    try:
        pieces = write(*args)
        largest = max(map(len, pieces), default=0)  # each piece is dropped before the next
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pieces, peak - largest


MIB = 1 << 20


@pytest.mark.parametrize("write", [to_json, to_csv], ids=["json", "csv"])
def test_records_writer_memory_is_one_chunk(write):
    # traced excess 0.30 MiB (JSON) and 0.24 MiB (CSV) with 2^10-row chunks,
    # 1.12 and 0.88 MiB with 2^12
    n = 2 * 10**5
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 30, size=n, dtype=np.int64)
    predicted = np.full(n, 7.25)
    rec = Records.held(
        ("x", "count", "predicted", "ratio", "applicable"),
        (np.arange(10**6, 10**6 + n, dtype=np.int64), counts, predicted, counts / predicted, counts > 7),
    )
    pieces, excess = traced_excess(write, rec)
    assert len(pieces) <= -(-n // CHUNK_ROWS) + 3
    assert excess <= MIB / 2


@pytest.mark.parametrize("kind", ["int64_array"])
def test_list_writer_memory_is_one_chunk(kind):
    # traced excess 0.095 MiB with 2^10-row chunks, 0.37 MiB with 2^12
    column = np.arange(10**6, dtype=np.int64) * 20
    pieces, excess = traced_excess(to_json, column)
    assert len(pieces) <= -(-(10**6) // CHUNK_ROWS) + 3
    assert excess <= MIB / 4


def test_maier_terms_written_as_held():
    # 63,000 d-terms, a tuple of (d, c) tuples: the writer formats them without
    # copying them into lists first, and holds only their text, 1.4 MiB
    rep = maier_demo(MaierConfig(z=31, a=1000001, x=10**6, Q=100))
    assert len(rep.d_terms) == 63000
    tracemalloc.start()
    try:
        to_json(rep.to_json_dict())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * MIB


def test_cli_streams_report(tmp_path: Path):
    # a scan of 10^5 windows: the CLI peaks below the bytes it writes
    path = tmp_path / "scan.json"
    assert dispatch(["scan-intervals", "--X", "1000", "--y", "22", "--out", str(path)]) == 0  # imports
    tracemalloc.start()
    try:
        assert dispatch(["scan-intervals", "--X", "100000", "--y", "22", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
