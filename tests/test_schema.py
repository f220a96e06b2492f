"""Every JSON report the CLI writes conforms to its entry in docs/schema.json."""

import json
from pathlib import Path

import pytest

from twosq.cli import dispatch

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "schema.json").read_text())

RUNS = [
    ("sieve", ["sieve", "--from", "100", "--to", "120"]),
    ("count", ["count", "--x", "1000"]),
    ("count", ["count", "--x", "1000", "--y", "50"]),
    ("count", ["count", "--x", "1000", "--q", "4", "--a", "1"]),
    ("scan", ["scan-intervals", "--X", "1000", "--y", "20", "--stride", "50"]),
    ("scan", ["scan-progressions", "--x", "5000", "--Q", "10", "--a", "1"]),
    ("scan", ["scan-residues", "--x", "5000", "--q", "8"]),
    ("constants", ["constants", "--truncation", "10000"]),
    ("special_value", ["special", "--fn", "halfdim_f", "--at", "2.5", "--format", "json"]),
    ("special_table", ["special", "--fn", "g", "--from", "1", "--to", "2", "--step", "0.5", "--format", "json"]),
    ("admissible", ["admissible", "--k", "3", "--W", "21"]),
    ("weights", ["weights", "--k", "2", "--R", "100", "--W", "21"]),
    ("gpy_demo", ["gpy-demo", "--k", "2", "--X", "5000", "--R", "100", "--W", "3", "--mass-check"]),
    ("maier_demo", ["maier-demo", "--z", "3", "--a", "1", "--x", "10000", "--Q", "100"]),
    ("verify", ["verify", "--summation", "--summation-R", "1000"]),
]


@pytest.mark.parametrize("name,argv", RUNS, ids=[f"{argv[0]}-{i}" for i, (_, argv) in enumerate(RUNS)])
def test_report_matches_schema(name, argv, capsys):
    assert dispatch(argv + ["--threads", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    schema = dict(SCHEMA, **{"$ref": f"#/$defs/{name}"})
    jsonschema.Draft202012Validator(schema).validate(doc)


def test_every_def_is_exercised():
    assert {name for name, _ in RUNS} | {"rational", "admissible_core"} == set(SCHEMA["$defs"])
