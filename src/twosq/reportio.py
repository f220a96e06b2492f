"""Deterministic report serialization.

JSON is emitted by a small recursive writer rather than json.dumps so that
float formatting is fixed at 10 significant digits and rationals print as
"num/den"; identical report objects therefore serialize to identical bytes
regardless of how they were computed.

Only numpy columns are formatted as they are written, CHUNK_ROWS (2^10) rows
at a time: a 1-D integer array (a `sieve` report's members, a scan's record
keys) becomes one ", "-joined string per chunk, and a row table (`Records`:
scan rows, special-function tabulations, `sieve` members in CSV) asks its row
function for each chunk's columns, turns them into Python lists with
`.tolist()`, interleaves them row by row and formats the chunk by one `%` call
on a row template repeated, e.g.
'{"key": %d, "count": %d, "predicted": %.10g, "ratio": %.10g, "applicable": %s}'
in JSON or '%d,%d,%.10g,%.10g,%s' in CSV.  Integer columns take %d, float
columns %.10g, flags the pre-mapped words true/false (JSON) or 1/0 (CSV), and
string columns %s (quoted in JSON).  %.10g spells finite floats exactly as
`format_float` does, but not NaN and ±inf: a chunk whose float column holds
one writes that column through `format_float` (NaN, Infinity, -Infinity).

`to_json` and `to_csv` return the text as `Pieces`, to be written in order: a
column is held as its rows and the function that writes a chunk of them, so a
chunk is formatted only when iteration reaches it.  Python lists (JSON) and the
value-by-value rows of `to_csv` are formatted by the call, one string per
chunk of a long list, so the errors of their values come from the formatter
itself before a piece is written; a column of a type no chunk can write is
refused by the call too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceError

# Rows any one table (a scan, a special-function tabulation, a `sieve` member
# list) may hold.  A row's peak cost, the slope of CLI peak RSS between JSON
# reports of 10^5 and 10^6 rows (scan-intervals at y = 30, scan-residues and
# scan-progressions at x = 10^7; a scan holds its counts and derives its other
# columns a chunk at a time as it is written), is about 2.5 B for intervals
# (one-byte counts), 17 B for residues, 39 B for progressions (their phi_S
# column, sieved whole once) and 13 B per `sieve` member; 512 B per row in a
# 2 GiB budget gives 2^22 rows.
MAX_SCAN_ROWS = (1 << 31) // 512

# Rows per chunk of every long list.  A JSON scan row is about 95 B of text, so
# a chunk of 2^10 rows and its cells stay below glibc's 128 KiB mmap threshold
# and are reused from the heap; a 2^12 chunk (about 400 KB) was mapped,
# faulted in and unmapped each time.  The seed-0 benchmark scan (150,664 rows)
# takes 4,948 minor faults against 13,254 at 2^12 (a bare `count --x 100`:
# 4,636), and peaks at 31.1 against 32.3 MB CLI RSS, at equal wall time.
CHUNK_ROWS = 1 << 10


def format_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return f"{v:.10g}"


def format_int(v: int) -> str:
    try:
        return str(v)
    except ValueError:  # str refuses more digits than sys.get_int_max_str_digits()
        raise ResourceError(f"report writer: an integer of {v.bit_length()} bits has more digits than the limit "
                            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}") from None


def format_fraction(v: Fraction) -> str:
    return f"{format_int(v.numerator)}/{format_int(v.denominator)}" if v.denominator != 1 else format_int(v.numerator)


@dataclass(frozen=True)
class Records:
    """A table of n_rows rows named by `fields`; rows(i, j) gives its columns
    over rows [i, j) as numpy arrays of ints, floats, bools or strings, so a
    table may be derived a chunk at a time.  JSON writes a list of objects
    keyed by `fields`; CSV writes `fields` as its header line."""

    fields: tuple[str, ...]
    n_rows: int
    rows: Callable[[int, int], Sequence[np.ndarray]]

    @classmethod
    def held(cls, fields: tuple[str, ...], columns: Sequence[Sequence]) -> Records:
        """A table of equal-length columns already held (arrays or sequences)."""
        arrays = [np.asarray(c) for c in columns]
        return cls(fields, len(arrays[0]), lambda i, j: [c[i:j] for c in arrays])

    def __len__(self) -> int:
        return self.n_rows


def check_rows(who: str, n_rows: int) -> None:
    """Refuse a table of more than MAX_SCAN_ROWS rows before it is built."""
    if n_rows > MAX_SCAN_ROWS:
        raise ResourceError(f"{who}: {n_rows} rows exceed budget {MAX_SCAN_ROWS}")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _scalar(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return format_int(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, Fraction):  # after the built-in types: an ABC check is slow
        return _quote(format_fraction(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cells(col: np.ndarray, as_json: bool) -> tuple[str, list]:
    """The template field and the Python values for one chunk of one column."""
    kind = col.dtype.kind
    if kind in "iu":
        return "%d", col.tolist()
    if kind == "f":
        if np.isfinite(col).all():
            return "%.10g", col.tolist()
        return "%s", [format_float(v) for v in col.tolist()]
    if kind == "b":
        no, yes = ("false", "true") if as_json else ("0", "1")
        return "%s", [yes if v else no for v in col.tolist()]
    if kind == "U":
        return "%s", [_quote(v) for v in col.tolist()] if as_json else col.tolist()
    raise TypeError(f"cannot serialize a column of dtype {col.dtype}")


def _chunked(n: int, write: Callable[[int, int], str], sep: str = "") -> Iterator[str]:
    """write(i, j) of each CHUNK_ROWS-row span [i, j) of n rows, one string per
    chunk; `sep` leads every chunk but the first."""
    for i in range(0, n, CHUNK_ROWS):
        yield (sep if i else "") + write(i, min(i + CHUNK_ROWS, n))


class Pieces:
    """Text as strings and runs: a run, the arguments of `_chunked`, is iterated
    a chunk at a time, so a chunk is formatted only when it is reached."""

    def __init__(self, parts: list[str | tuple]) -> None:
        self.parts = parts

    def __len__(self) -> int:
        return sum(1 if isinstance(p, str) else -(-p[0] // CHUNK_ROWS) for p in self.parts)

    def __iter__(self) -> Iterator[str]:
        for p in self.parts:
            if isinstance(p, str):
                yield p
            else:
                yield from _chunked(*p)


def _record_chunks(rec: Records, as_json: bool) -> tuple:
    """The rows of `rec`, a chunk to a string; JSON rows are separated by
    ", " (also between chunks), CSV rows end in a newline."""
    keys = [_quote(f).replace("%", "%%") + ": " for f in rec.fields]
    for c in rec.rows(0, 1) if len(rec) else ():
        _cells(c, as_json)  # a column type no chunk can write is refused now

    def write(i: int, j: int) -> str:
        specs, values = zip(*(_cells(c, as_json) for c in rec.rows(i, j)))
        if as_json:
            template, sep = "{" + ", ".join(k + s for k, s in zip(keys, specs)) + "}", ", "
        else:
            template, sep = ",".join(specs) + "\n", ""
        cells = [None] * (len(values) * (j - i))  # row by row, the whole chunk in one format call
        for k, col in enumerate(values):
            cells[k :: len(values)] = col
        return sep.join([template] * (j - i)) % tuple(cells)

    return len(rec), write, ", " if as_json else ""


def _emit(obj: Any, out: list[str | tuple]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append((", " if i else "") + _quote(format_int(k) if isinstance(k, int) else str(k)) + ": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) > CHUNK_ROWS:  # formatted now, one string per chunk: its JSON less "[" and "]\n"
            out.extend(["[", *_chunked(len(obj), lambda i, j: "".join(to_json(obj[i:j]))[1:-2], ", "), "]"])
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, Records):
        out.extend(["[", _record_chunks(obj, as_json=True), "]"])
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu":
        out.extend(["[", (len(obj), lambda i, j: ", ".join(map(str, obj[i:j].tolist())), ", "), "]"])
    else:
        out.append(_scalar(obj))


def to_json(obj: Any) -> Pieces:
    """`obj` as JSON text, in pieces to be written in order."""
    out: list[str | tuple] = []
    _emit(obj, out)
    out.append("\n")
    return Pieces(out)


def to_csv(rows: Records | Sequence[Sequence[Any]], header: Iterable[str] | None = None) -> Pieces:
    """CSV text, in pieces to be written in order.  A `Records` table brings its
    own header (its fields); other rows are written value by value."""
    if isinstance(rows, Records):
        return Pieces([",".join(rows.fields) + "\n", _record_chunks(rows, as_json=False)])

    def cell(v: Any) -> str:
        if isinstance(v, float):
            return format_float(v)
        if isinstance(v, Fraction):
            return format_fraction(v)
        return format_int(v) if isinstance(v, int) else str(v)

    def write(i: int, j: int) -> str:
        return "".join([",".join([cell(v) for v in row]) + "\n" for row in rows[i:j]])

    head = [] if header is None else [",".join(header) + "\n"]
    return Pieces([*head, *_chunked(len(rows), write)])
