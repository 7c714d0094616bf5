"""Whole `certify --kv` and `bounds` reports, pinned byte for byte.

Each .txt file under tests/golden/ is one run: the command line, then
`exit N`, then the complete stdout.  The certify cases cover a certified
exact and a certified float run, failing inclusions on both backends (b3
and b9 escape), a non-convex polygon on both backends (no gauge keys; a6
escapes its sector on the exact one) and the alt family
(no closed-form key); two runs at a 96-bit c, one certified and one with
b3 and b9 escaping, pin the big-integer values of the exact path.  The
bounds cases cover exact box-norm runs (main at 233/224, and at 11/10 to
n = 14 and to the word cap n = 20), a float walk (alt) and an exact
polygon-norm walk; a run with `--csv table.csv` also pins the written file
as the .csv of the same name.
"""

from pathlib import Path

import pytest

from smpverify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
KV_CASES = (
    "exact_certified",
    "exact_inclusions_fail",
    "float_certified",
    "float_not_convex",
    "exact_not_convex",
    "float_b3_escapes",
    "alt_certified",
    "exact_96bit_certified",
    "exact_96bit_escapes",
)
BOUNDS_CASES = (
    "bounds_exact_233_224",
    "bounds_exact_11_10",
    "bounds_exact_11_10_n20",
    "bounds_float_alt",
    "bounds_exact_polygon",
)


def _golden_run(case):
    """(argv, "exit N" line, stdout) of one golden file."""
    command, status, expected = (
        (GOLDEN / f"{case}.txt").read_text(encoding="utf-8").split("\n", 2)
    )
    prog, *argv = command.removeprefix("$ ").split()
    assert prog == "smpverify"
    return argv, status, expected


@pytest.mark.parametrize("case", KV_CASES)
def test_kv_report_is_unchanged(capsys, case):
    argv, status, expected = _golden_run(case)
    assert argv[-1] == "--kv"
    code = main(argv)
    captured = capsys.readouterr()
    assert (f"exit {code}", captured.out, captured.err) == (status, expected, "")


@pytest.mark.parametrize("case", BOUNDS_CASES)
def test_bounds_report_is_unchanged(capsys, monkeypatch, tmp_path, case):
    argv, status, expected = _golden_run(case)
    assert argv[0] == "bounds"
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (f"exit {code}", captured.out, captured.err) == (status, expected, "")
    csv = GOLDEN / f"{case}.csv"
    if "--csv" in argv:
        written = tmp_path / argv[argv.index("--csv") + 1]
        assert written.read_bytes() == csv.read_bytes()
    else:
        assert not csv.exists()
