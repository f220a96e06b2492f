"""Deterministic report serialization.

JSON is emitted by a small recursive writer rather than json.dumps so that
float formatting is fixed at 10 significant digits and rationals print as
"num/den"; identical report objects therefore serialize to identical bytes
regardless of how they were computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable


def format_float(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return f"{v:.10g}"


def format_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


@dataclass(frozen=True)
class Records:
    """A JSON list of objects that share the keys `fields`; `rows` yields their values once."""

    fields: tuple[str, ...]
    rows: Iterable[tuple]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _scalar(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, Fraction):  # after the built-in types: an ABC check is slow
        return _quote(format_fraction(obj))
    if hasattr(obj, "item"):  # numpy scalars and other number-likes
        return _scalar(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj: Any, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append((", " if i else "") + _quote(str(k)) + ": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, Records):
        keys = [_quote(f) + ": " for f in obj.fields]
        out.append("[")
        # One string per row: a separate piece per value would take several times the text's memory.
        for i, row in enumerate(obj.rows):
            out.append((", {" if i else "{") + ", ".join(k + _scalar(v) for k, v in zip(keys, row)) + "}")
        out.append("]")
    else:
        out.append(_scalar(obj))


def to_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def to_csv(rows: Iterable[Iterable[Any]], header: Iterable[str] | None = None) -> str:
    def cell(v: Any) -> str:
        if isinstance(v, float):
            return format_float(v)
        if isinstance(v, Fraction):
            return format_fraction(v)
        return str(v)

    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
