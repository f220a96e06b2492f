"""The CLI's exit contract on boundary arguments, every subcommand in-process.

Each vector runs through `dispatch` with --out under a temporary directory.
Exit 0 writes the report there and nothing to stdout; exit 1 prints one line,
`error: <name>: ...`, naming the subcommand or the library name that refused
the input, and creates no --out; exit 2 is argparse's usage error.  No vector
ends in a traceback.  Inputs with many rows are left out: the table runs in
well under a second.
"""

import pytest

import twosq
from twosq.cli import build_parser, dispatch

I63 = 2**63 - 1

VECTORS = [
    ("sieve --from 5 --to 4", 1),
    ("sieve --from 0 --to 10", 1),
    ("sieve --from 1 --to 1", 0),
    (f"sieve --from {I63} --to {I63}", 1),
    ("count --x 0", 0),
    ("count --x -1", 1),
    (f"count --x {I63 + 1}", 1),
    (f"count --x {I63} --y 1", 1),
    ("count --x 10 --y 0", 1),
    ("count --x 10 --q 0", 1),
    ("count --x 10 --y 1 --q 2", 2),
    ("count --x 10 --a 1", 2),
    ("scan-intervals --X 15 --y 1", 1),
    ("scan-intervals --X 16 --y 1", 0),
    ("scan-intervals --X 16 --y 17", 1),
    ("scan-intervals --X 16 --y 1 --stride 0", 1),
    ("scan-intervals --X 16777216 --y 1", 1),
    ("scan-intervals --X 1000000000000000000 --y 1 --stride 1000000000000000000", 1),
    ("scan-progressions --x 2 --Q 1", 1),
    ("scan-progressions --x 3 --Q 1 --a 0", 0),
    ("scan-progressions --x 100 --Q 0", 1),
    ("scan-progressions --x 100 --Q 1 --a -1", 1),
    ("scan-progressions --x 100 --Q 4194304", 1),
    ("scan-progressions --x 2000000000000000000 --Q 1", 1),
    ("scan-residues --x 2 --q 1", 1),
    ("scan-residues --x 3 --q 1", 0),
    ("scan-residues --x 100 --q 0", 1),
    ("scan-residues --x 100 --q 4194305", 1),
    ("scan-residues --x 2000000000000000000 --q 3", 1),
    ("constants --truncation 9", 1),
    ("constants --truncation 10", 0),
    (f"constants --truncation {2**30 + 1}", 1),
    ("special --fn g --at nan", 1),
    ("special --fn g --at inf", 0),
    ("special --fn g --at 0", 1),
    ("special --fn buchstab --at 1e308", 0),
    ("special --fn halfdim_F --at 0.0009", 1),
    ("special --fn halfdim_F --at 40", 0),
    ("special --fn halfdim_f --at -0.0", 0),
    ("special --fn halfdim_f --at 40.5", 1),
    ("special --fn buchstab --from 1 --to 2 --step 1e-300", 1),
    ("special --fn buchstab --from 1 --to 2 --step 0", 1),
    ("special --fn buchstab --from 2 --to 1", 1),
    ("special --fn buchstab --from 1 --to inf", 1),
    ("special --fn buchstab --at 1 --step 1", 2),
    ("special --fn buchstab", 2),
    ("admissible --forms [[1.5,2]] --W 1", 1),
    ("admissible --forms [[1,2,3]] --W 1", 1),
    ("admissible --forms [[-1,1]] --W 1", 1),
    ("admissible --forms [] --W 1", 1),
    ("admissible --W 0", 1),
    ("admissible --W 9", 1),
    (f"admissible --W {I63 + 1}", 1),
    (f"admissible --p0 {I63 + 1}", 1),
    (f"admissible --forms [[1,1]] --W 3 --p0 {I63 + 1}", 1),
    ("admissible --k 1 --W 1", 0),
    ("admissible --k 1 --paper-strict", 1),
    ("weights --k 1 --R 10 --paper-strict", 1),
    ("weights --k 0 --R 10", 1),
    ("weights --k 1 --R 0", 1),
    ("weights --k 1 --R 1", 0),
    ("weights --k 1 --R 1073741826", 1),
    ("gpy-demo --k 2 --X 1000 --paper-strict", 1),
    ("gpy-demo --k 1 --W 0", 1),
    ("gpy-demo --k 1 --X 100 --R 2", 0),
    ("gpy-demo --k 1 --X 100 --R 1073741826", 1),
    ("maier-demo --z 3 --x 10 --Q 1 --delta 0.1", 2),
    ("maier-demo --z 1 --x 10 --Q 1", 1),
    ("maier-demo --z 3 --x 10 --Q 1 --a 2", 1),
    ("maier-demo --z 3 --x 10 --Q 1 --a 3", 1),
    (f"maier-demo --z 3 --x 10 --Q 1 --a {I63 + 2}", 1),
    ("maier-demo --z 1073741825 --x 10 --Q 1", 1),
    ("maier-demo --z 3 --x 10 --Q 1", 0),
    ("verify --summation --summation-R 1", 1),
    ("verify --summation --summation-R 1073741826", 1),
    ("verify --summation-R 5", 2),
    ("nonsense", 2),
]

# The names an error line may start with: a subcommand, or a library name.
SUBCOMMANDS = {argv.split()[0] for argv, _ in VECTORS} - {"nonsense"}
NAMES = SUBCOMMANDS | {name for names in twosq._EXPORTS.values() for name in names}


def test_every_subcommand_is_covered():
    (action,) = build_parser()._subparsers._group_actions
    assert SUBCOMMANDS == set(action.choices)


@pytest.mark.parametrize("argv, want", VECTORS, ids=[argv for argv, _ in VECTORS])
def test_exit_contract(argv, want, capsys, tmp_path):
    out = tmp_path / "report"
    try:
        code = dispatch([*argv.split(), "--out", str(out)])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    captured = capsys.readouterr()
    assert code == want, captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if code == 0:
        assert out.stat().st_size > 0 and captured.err == ""
    else:
        assert not out.exists()
    if code == 1:
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err
        name = captured.err.removeprefix("error: ").split(":")[0]
        assert name in NAMES, captured.err
