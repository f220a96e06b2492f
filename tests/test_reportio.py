"""The row-template writer against a plain per-value writer.

`reference_json` and `reference_csv` format one value at a time from
`format_float`, `_quote` and the words true/false (JSON) or 1/0 (CSV); the
`Records` writer must produce the same bytes on seeded random columns that
span more than one 2^16-row chunk.
"""

import numpy as np
import pytest

from twosq.reportio import CHUNK_ROWS, Records, _quote, format_float, to_csv, to_json

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
    columns = random_columns(CHUNK_ROWS + 4321, seed=0)
    plain = [c.tolist() for c in columns]
    assert all(isinstance(v, bool) for v in plain[4]) and any(plain[4]) and not all(plain[4])
    assert np.isfinite(columns[3][:CHUNK_ROWS]).all() and not np.isfinite(columns[2][:CHUNK_ROWS]).all()

    rec = Records(FIELDS, columns)
    json_text = "".join(to_json({"n": len(plain[0]), "rows": rec}))
    assert_same_text(json_text, '{"n": %d, "rows": %s}\n' % (len(plain[0]), reference_json(FIELDS, plain)))
    assert_same_text("".join(to_csv(rec)), reference_csv(FIELDS, plain))
    # Python sequences (a tabulation's columns) write the same bytes as numpy columns.
    as_tuples = Records(FIELDS, tuple(map(tuple, plain)))
    assert_same_text("".join(to_json({"n": len(plain[0]), "rows": as_tuples})), json_text)


def test_chunks_split_rows_not_text():
    columns = random_columns(2 * CHUNK_ROWS + 1, 2)
    pieces = to_csv(Records(FIELDS, columns))
    assert len(pieces) == 4  # the header and three chunks
    assert [p.count("\n") for p in pieces] == [1, CHUNK_ROWS, CHUNK_ROWS, 1]


def test_empty_table():
    rec = Records(("x", "y"), (np.zeros(0, dtype=np.int64), np.zeros(0)))
    assert "".join(to_json({"rows": rec})) == '{"rows": []}\n'
    assert "".join(to_csv(rec)) == "x,y\n"


def test_unsupported_column_rejected():
    with pytest.raises(TypeError):
        to_json(Records(("x",), (np.array([object()]),)))
