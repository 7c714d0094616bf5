"""Whole `certify --kv` and `bounds` reports, pinned byte for byte.

Each .txt file under tests/golden/ is one run: the command line, then
`exit N`, then the complete stdout.  The certify cases cover a certified
exact and a certified float run, failing inclusions on both backends (b3
and b9 escape), a non-convex polygon on both backends (no gauge keys; a6
escapes its sector on the exact one) and the alt family
(no closed-form key); two runs at a 96-bit c, one certified and one with
b3 and b9 escaping, pin the big-integer values of the exact path.  The
bounds cases cover exact box-norm runs (main at 233/224, and at 11/10 to
n = 14 and to the word cap n = 20), float runs (alt, under the box norm
and under a polygon norm) and exact polygon-norm runs at 11/10: the
extremal norm at mu = 5/4 to n = 8 and to the word cap, and the
non-extremal one at mu = 13/10 to n = 12.  A run with `--csv table.csv`
also pins the written file as the .csv of the same name.
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
    "bounds_float_polygon",
    "bounds_exact_polygon",
    "bounds_exact_polygon_13_10",
    "bounds_exact_polygon_n20",
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


def test_extremal_polygon_norm_at_the_word_cap():
    # Under the extremal norm rho_n is rho = 1.21 at every n; the lower
    # bound and maximizer columns are those of the box-norm run.
    _, _, polygon = _golden_run("bounds_exact_polygon_n20")
    _, _, box = _golden_run("bounds_exact_11_10_n20")
    polygon_rows = [line.split() for line in polygon.splitlines()[1:]]
    box_rows = [line.split() for line in box.splitlines()[1:]]
    assert [row[0] for row in polygon_rows] == [str(n) for n in range(1, 21)]
    assert [row[2] for row in polygon_rows] == ["1.21"] * 20
    assert [(n, bar, names) for n, bar, _, names in polygon_rows] == [
        (n, bar, names) for n, bar, _, names in box_rows
    ]
