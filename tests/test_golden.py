"""Whole `certify --kv` reports, pinned byte for byte.

Each file under tests/golden/ is one run: the command line, then
`exit N`, then the complete stdout.  The cases cover a certified exact
and a certified float run, failing inclusions on both backends (b3 and
b9 escape), a non-convex polygon (no gauge keys) and the alt family (no
closed-form key).
"""

from pathlib import Path

import pytest

from smpverify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = (
    "exact_certified",
    "exact_inclusions_fail",
    "float_certified",
    "float_not_convex",
    "float_b3_escapes",
    "alt_certified",
)


@pytest.mark.parametrize("case", CASES)
def test_kv_report_is_unchanged(capsys, case):
    command, status, expected = (
        (GOLDEN / f"{case}.txt").read_text(encoding="utf-8").split("\n", 2)
    )
    prog, *argv = command.removeprefix("$ ").split()
    assert prog == "smpverify" and argv[-1] == "--kv"
    code = main(argv)
    captured = capsys.readouterr()
    assert (f"exit {code}", captured.out, captured.err) == (status, expected, "")
