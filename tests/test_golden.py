"""Byte-for-byte report regression: small CLI runs against recorded sha256s.

Each digest was recorded from the toolkit before its root-set, trial-division
and squarefree-product helpers were merged into one copy each; the
scan-intervals and scan-progressions digests were recorded before scan rows
became numpy columns; the `g` tabulations and the 70,000-row scan (wider than
one 2^16-row writer chunk then, 18 chunks of 2^12 rows now) were recorded
before rows were written from templates and `g` read a per-table search
index; the sieve, count, constants, `special --at` and remaining CSV digests
were recorded before every report came to be written by `dispatch` alone;
the 12,460-member sieve of [1, 50000] (four 2^12-row chunks) was recorded
while member lists were still Python lists written element by element; the
7,901-row tabulations of each special function (two chunks) were recorded
while tables were still evaluated one row at a time; the CSV weights at
R = 35000, whose JSON holds a number past the default digit limit, were
recorded while that JSON still ended in a traceback; the 12,600 Maier
d-terms (JSON and CSV) and the 11,568 records of a y = 1 scan (three chunks
each) were recorded while long Python lists were still checked value by
value and formatted a chunk at a time as they were written.  Any
change to a report's bytes fails here; re-record a digest only for a
deliberate, documented format change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twosq.cli import build_parser, dispatch

CASES = {
    "admissible": (
        ["admissible", "--k", "3", "--W", "21"],
        "c03cc0da79b9fb773d504cc76e36acd3e04a66f09423c593591d6909cf0de8fa",
    ),
    "admissible_forms": (
        ["admissible", "--forms", "[[3,1],[1,2],[5,7]]", "--W", "231"],
        "dda202b2072a1a28760c11f115d5c0cb8c1d08b0bdee2e4f33c842742762dfa1",
    ),
    "weights_json": (
        ["weights", "--k", "3", "--R", "500", "--W", "1"],
        "6ee6b7f9aea43723d5a184321a23d933e811339c015aa9427e59ec632d75e4ef",
    ),
    "weights_csv": (
        ["weights", "--k", "3", "--R", "500", "--W", "1", "--format", "csv"],
        "b844d844ab8cab4fb9c19ca76683298e5672ffb54f6557a0bf534c962c09a705",
    ),
    "weights_R35000_csv": (
        ["weights", "--R", "35000", "--format", "csv"],
        "f42100ce656ce902cb6f035cc468f788bb5a451a5712bf3a35c529d40b1bd65a",
    ),
    "verify": (
        ["verify", "--threads", "1"],
        "c1ab1864b52ffcfc794445a1461f669b661b752c531cdf00e5cbde0b0ab45d1c",
    ),
    "verify_summation": (
        ["verify", "--summation", "--summation-R", "1000", "--threads", "1"],
        "df06129c8a091d90674639dd5c65683bc17c06fe48b8af9c8bc0f08e040f0d01",
    ),
    "gpy_demo_mass_check": (
        ["gpy-demo", "--k", "3", "--X", "20000", "--R", "1000", "--W", "21", "--mass-check", "--threads", "1"],
        "c3a58ee5afdbbfcbb3b8ae44ceb524c068b9f53e6ac2d9b38c03593b6db87ce3",
    ),
    "maier_demo": (
        ["maier-demo", "--z", "7", "--a", "1", "--x", "10000", "--Q", "100"],
        "b024c5862fbab47268fdb8e05e9cc5dcf402b141422d690b7c0270d80fec9f4d",
    ),
    "count_progression": (
        ["count", "--x", "100000", "--q", "12", "--a", "5", "--threads", "1"],
        "d62143b2227a0e40a8e9d540d7faaab465ed82aaa3004a58f0ffcc9467af07e3",
    ),
    "scan_intervals_json": (
        ["scan-intervals", "--X", "2000", "--y", "30", "--threads", "1"],
        "435d87de5a97e928ca51780b69c81582b5d07e8bdeff1d83ec4586670971bc93",
    ),
    "scan_intervals_csv": (
        ["scan-intervals", "--X", "2000", "--y", "30", "--format", "csv", "--threads", "1"],
        "ef102d0d8e4f9158b6467432fbd930edc97c16506ade1524d48e3ad00850837f",
    ),
    "scan_intervals_stride": (
        ["scan-intervals", "--X", "5000", "--y", "40", "--stride", "13", "--threads", "1"],
        "e1bf6c26aad92d194be52a07bc0fc7f230f37e29f87bca50378dd8ea5c54ba6f",
    ),
    "scan_progressions_inapplicable": (
        ["scan-progressions", "--x", "100000", "--Q", "50", "--a", "2", "--threads", "1"],
        "d86a3e68456a65d5b38a0c5ed4c98b948a141777f8670595a0d9d4d71844ac96",
    ),
    "scan_progressions_csv": (
        ["scan-progressions", "--x", "100000", "--Q", "50", "--a", "1", "--format", "csv", "--threads", "1"],
        "d2a5cba850e6bb7065cbe87cdcbcb4ef06ea72f3fc5842f9957cd8b1439e0869",
    ),
    "scan_residues": (
        ["scan-residues", "--x", "10000", "--q", "12", "--threads", "1"],
        "859f868e838bdae84375bb27fc6b79b12a5dde93009f24804ff7f03e082c3af1",
    ),
    "special_table_csv": (
        ["special", "--fn", "halfdim_F", "--from", "1", "--to", "4", "--step", "0.25"],
        "60cc59e61d4b19414b68b8b56f7c0aad44746281281a00d4f148040f22cd8801",
    ),
    "special_table_json": (
        ["special", "--fn", "buchstab", "--from", "1", "--to", "4", "--step", "0.5", "--format", "json"],
        "43f744c6626e63dca4b9781080c092a054878fd2684babebacf6bda0fa2a8558",
    ),
    "special_g_table": (
        ["special", "--fn", "g", "--from", "1.95", "--to", "20.95", "--step", "0.01"],
        "d99dd8abbbdcd0c246441c0f754564b7815f5ac3a18063bad85c893f26f76d4a",
    ),
    "special_g_table_json": (
        ["special", "--fn", "g", "--from", "1.95", "--to", "20.95", "--step", "0.01", "--format", "json"],
        "d822412302c99732195f8f6295f5d50fc145633e004aa7aa8fb38026687cd571",
    ),
    "scan_intervals_multichunk_json": (
        ["scan-intervals", "--X", "70000", "--y", "25", "--threads", "1"],
        "bb2b8d33a0bdcbef606295c24c84cca48b49d452a16384641f24d24301e1d363",
    ),
    "scan_intervals_multichunk_csv": (
        ["scan-intervals", "--X", "70000", "--y", "25", "--threads", "1", "--format", "csv"],
        "1d810c298cafa23419b88f77d5ba5824d87390ee4ea07e5de3f5a53e4d3c34f1",
    ),
    "sieve_json": (
        ["sieve", "--from", "100", "--to", "200"],
        "2cf8328a7a76889ec01500d91b770fe83861a4fedffa6f9fd6a3dd018831dfc2",
    ),
    "sieve_csv": (
        ["sieve", "--from", "100", "--to", "200", "--format", "csv"],
        "723ab45b3b305a5fcbce0cd17b5918e2e99a835eef7a13c7a0dded28c8d7156a",
    ),
    "sieve_multichunk_json": (
        ["sieve", "--from", "1", "--to", "50000"],
        "30555ae779f1a44761ff460ebffd45e8f84117613aa4d89a01653acf5ee1b794",
    ),
    "sieve_multichunk_csv": (
        ["sieve", "--from", "1", "--to", "50000", "--format", "csv"],
        "3a666224227185290aa069f57ddbda1598839efd5b053bd9b9df88e5bf39cb89",
    ),
    "sieve_empty": (
        ["sieve", "--from", "21", "--to", "24"],
        "5d6a6235c48dd516b9a509cc26e4a55aced6686751216fe78871f8bdbf893510",
    ),
    "sieve_empty_csv": (
        ["sieve", "--from", "21", "--to", "24", "--format", "csv"],
        "9a630df58958568e214bea0bee4c5cf47a6a0d1a509980956bdd214c0b7ccdb2",
    ),
    "count_upto_json": (
        ["count", "--x", "100000", "--threads", "1"],
        "3e61decd0558f34537123d1eef957623b9aa15d31b6dd09e9b872e4df1ea786b",
    ),
    "count_upto_csv": (
        ["count", "--x", "100000", "--format", "csv", "--threads", "1"],
        "4887f431b8b254bc1ae24ea679529d5885bc7cce751df2ca7b4908180ea0a4df",
    ),
    "count_interval_json": (
        ["count", "--x", "100000", "--y", "1000", "--threads", "1"],
        "e2c81c71e1f46d6c86f0cfa02690a37382a30e4ff13a63aaaed767c8bc8020a0",
    ),
    "count_interval_csv": (
        ["count", "--x", "100000", "--y", "1000", "--format", "csv", "--threads", "1"],
        "48527e54953f0b042d11052a351e9de766f697e0570bba8d1ac5770569bcdab0",
    ),
    "count_progression_csv": (
        ["count", "--x", "100000", "--q", "12", "--a", "5", "--format", "csv", "--threads", "1"],
        "4c8aa1194e44324f3375e9cf88b1080a685c7d7f50cd1a1c4f4aa28ee29153f0",
    ),
    "count_progression_default_a": (
        ["count", "--x", "100000", "--q", "12", "--threads", "1"],
        "66dd7478d31eac7d9916fb085036b51232c11eac0231c0488030fe731cdc589f",
    ),
    "constants_json": (
        ["constants", "--truncation", "1000"],
        "e3cace5a4220ebd45e00c056f39ee3040ebcf3d730c615b8caf9bc9e1ca1f237",
    ),
    "constants_csv": (
        ["constants", "--truncation", "1000", "--format", "csv"],
        "00c6913bc24ad9c90fdf4fc029199bbd24806dc4cc1a0c2844d4e41f17108ee7",
    ),
    "special_at_text": (
        ["special", "--fn", "halfdim_f", "--at", "3.5"],
        "a69adb405f5a451d4d5c8b31337691b6efc85cef61c1d02038df90a4f5f8e5c8",
    ),
    "special_at_csv": (
        ["special", "--fn", "halfdim_f", "--at", "3.5", "--format", "csv"],
        "a69adb405f5a451d4d5c8b31337691b6efc85cef61c1d02038df90a4f5f8e5c8",
    ),
    "special_at_json": (
        ["special", "--fn", "halfdim_f", "--at", "3.5", "--format", "json"],
        "275ff621bc9cf2b6886147fd64c681fc2ab42be7f1d5e21c0bf2c33caa508d8f",
    ),
    "admissible_csv": (
        ["admissible", "--k", "3", "--W", "21", "--format", "csv"],
        "602e93a9dfe854a061268cc5a5b39e0b81c099375fafe87f386eff40ec5c0b35",
    ),
    "weights_paper_strict": (
        ["weights", "--k", "2", "--X", "10000000000000000", "--W", "1", "--paper-strict"],
        "c37edca8127730b35afd7cae51a22e9c6ccaa6d8cb46c147769696c1767c0510",
    ),
    "gpy_demo_csv": (
        ["gpy-demo", "--k", "3", "--X", "20000", "--R", "1000", "--W", "21", "--mass-check", "--format", "csv",
         "--threads", "1"],
        "e0e89644b757d38dd73d25aa25933731d1ce173f6ba9064318cb3ef4a5377bd7",
    ),
    "gpy_demo": (
        ["gpy-demo", "--k", "3", "--X", "20000", "--R", "1000", "--W", "21", "--threads", "1"],
        "7cd8590fb310e4af11e8f84a2600b32cd1ba9378d6a6799f71b73516630f4dfd",
    ),
    "maier_demo_csv": (
        ["maier-demo", "--z", "7", "--a", "1", "--x", "10000", "--Q", "100", "--format", "csv"],
        "5dd0235acbdcd6d0efcc55c40ff0f17e85b4ece785ca7d4ff1a001528f6f1d33",
    ),
    "verify_csv": (
        ["verify", "--format", "csv", "--threads", "1"],
        "3ec9408a3b89c211b387132ce8dde837a3b72b953b74f99cf7b4798c430cf19b",
    ),
    "scan_residues_csv": (
        ["scan-residues", "--x", "10000", "--q", "12", "--format", "csv", "--threads", "1"],
        "ad99076ddffff85b1fae1a0d100550a128e0b408c722f26a6a17c1b9543e2d39",
    ),
    "special_buchstab_chunks_csv": (
        ["special", "--fn", "buchstab", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "csv"],
        "3621cc60e82c81c8b7127da0687fbe6c92bc9cb150ac9d25f0ce166a69832b1d",
    ),
    "special_buchstab_chunks_json": (
        ["special", "--fn", "buchstab", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "json"],
        "e0c4cd5fa722e98a220b4ce729470692f589dc08a1ef4e8c05799dbe2c0e1d25",
    ),
    "special_halfdim_F_chunks_csv": (
        ["special", "--fn", "halfdim_F", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "csv"],
        "80443b919c531d919306ebe1b39a82f7f2a0f33a745654a35c8866429093b3fd",
    ),
    "special_halfdim_F_chunks_json": (
        ["special", "--fn", "halfdim_F", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "json"],
        "34518290d4ca5f8bd7fed869b5fecc15ccafd636f406f56fe53378270a8cd128",
    ),
    "special_halfdim_f_chunks_csv": (
        ["special", "--fn", "halfdim_f", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "csv"],
        "579109482bcdb5f9833a493d7c94246e997b95e888d121027a1c0e4104369515",
    ),
    "special_halfdim_f_chunks_json": (
        ["special", "--fn", "halfdim_f", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "json"],
        "60600c29645bb6d098754de21263d75228ab2ec8ad863cdf40bf6a8b164a34ca",
    ),
    "special_g_chunks_csv": (
        ["special", "--fn", "g", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "csv"],
        "f3c401f4fb5597eff1397578c69fcaa1d8f59246ee1ad26a5a407683668045b5",
    ),
    "special_g_chunks_json": (
        ["special", "--fn", "g", "--from", "0.5", "--to", "40", "--step", "0.005", "--format", "json"],
        "fbc5d23bb9fada207f2705b739d3ed21736d3b51ce3ae0526e2d52e20f1e7acb",
    ),
    "maier_demo_chunks_json": (
        ["maier-demo", "--z", "23", "--a", "1000001", "--x", "1000000", "--Q", "100"],
        "2f1e1d010e081f3d994215a04b4d86df5c882093716be55f1c1bfd1f05bd9ce9",
    ),
    "maier_demo_chunks_csv": (
        ["maier-demo", "--z", "23", "--a", "1000001", "--x", "1000000", "--Q", "100", "--format", "csv"],
        "af7518020f3f1f25cab87b895ef79ffe983858c42a143a1471730b03137762cc",
    ),
    "scan_intervals_records_json": (
        ["scan-intervals", "--X", "50000", "--y", "1", "--threads", "1"],
        "7fcb5c620d231839295dc2a62f3a794ed2a5a0c5d59cdd0f905b23186a5935d3",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(name, capsys):
    argv, digest = CASES[name]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Runs reports in a fresh interpreter in which importing scipy fails, and
# prints [exit code, sha256 of stdout] per argv read from stdin.
_SCIPY_FREE_RUN = """
import contextlib, hashlib, io, json, sys
sys.modules["scipy"] = None
from twosq.cli import dispatch
results = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    results.append([code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()])
print(json.dumps(results))
"""


def test_reports_without_scipy():
    """numpy is the only runtime dependency: one report per subcommand runs
    with scipy unimportable, with the recorded bytes where a case has them."""
    cases = [
        CASES[name]
        for name in (
            "admissible", "count_progression", "gpy_demo_mass_check", "maier_demo",
            "scan_intervals_json", "scan_progressions_csv", "scan_residues",
            "special_table_csv", "verify_summation", "weights_json",
        )
    ]
    cases += [(["sieve", "--from", "100", "--to", "120"], None), (["constants", "--truncation", "1000"], None)]
    (subcommands,) = [action.choices for action in build_parser()._subparsers._group_actions]
    assert sorted(argv[0] for argv, _ in cases) == sorted(subcommands)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN],
        input=json.dumps([argv for argv, _ in cases]),
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    for (argv, digest), (code, got) in zip(cases, json.loads(done.stdout), strict=True):
        assert code == 0, argv
        if digest is not None:
            assert got == digest, argv
