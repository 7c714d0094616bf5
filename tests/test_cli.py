import os
import subprocess
import sys
from pathlib import Path

import pytest

from smpverify import cli
from smpverify.cli import build_parser, main
from smpverify.polytope import Certificate

SRC = str(Path(__file__).resolve().parents[1] / "src")
# An exact --c whose cube is beyond the float range: 1 followed by 110 zeros.
BEYOND_FLOAT = "1" + "0" * 110


def run_fresh(*argv, flags=()):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "smpverify.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_table_shows_certified_value(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "main", "--c", "11/10", "--max-n", "6"
        )
        assert code == 0
        rows = out.splitlines()
        assert rows[0].split()[:3] == ["n", "rho_bar_n", "rho_n"]
        n3 = rows[3].split()
        assert n3[0] == "3" and n3[1] == "1.21"
        assert "AAB;ABB" in rows[3]

    def test_polygon_norm_column_is_flat(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--family", "main", "--c", "11/10",
            "--max-n", "4", "--norm", "polygon", "--mu", "5/4",
        )
        assert code == 0
        for line in out.splitlines()[1:5]:
            assert line.split()[2] == "1.21"

    def test_float_polygon_norm_near_kappa_one(self, capsys):
        # The order products are positive and the polygon is convex, so its
        # gauge is a norm, though the order products miss their closed
        # forms by rounding (the certificate's vertex_order fails).
        code, out, _ = run(
            capsys,
            "bounds", "--family", "main", "--kappa", "1.001",
            "--max-n", "3", "--norm", "polygon", "--mu", "1.167",
        )
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["n", "1", "2", "3"]

    def test_zero_cap_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--family", "main", "--c", "11/10", "--max-n", "0"])
        assert exc.value.code == 2

    def test_cap_is_checked_before_enumerating(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("enumerated a word length")

        monkeypatch.setattr("smpverify.words.rho_bar_n", boom)
        monkeypatch.setattr("smpverify.words.rho_n", boom)
        monkeypatch.setattr("smpverify.words._walk", boom)
        code, _, err = run(capsys, "bounds", "--c", "11/10", "--max-n", "21")
        assert code == 2
        assert "exceeds cap 20" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kappa", "1e200", "--max-n", "4"], "A @ B has a non-finite entry"),
            (["--family", "alt", "--kappa", "1e200", "--max-n", "4"], "A @ B has a non-finite entry"),
            (["--kappa", "1e100", "--max-n", "3"], "float range at word length 2"),
            (["--family", "alt", "--kappa", "1e100", "--max-n", "3"], "float range at word length 2"),
            (["--kappa", "1e20", "--max-n", "18"], "float range at word length 8"),
        ],
    )
    def test_float_overflow_is_a_usage_error(self, capsys, argv, message):
        try:
            code = main(["bounds", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, _, _ = run(
            capsys, "bounds", "--c", "11/10", "--max-n", "3", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "n,rho_bar_n,rho_n,maximizers"
        assert lines[3].startswith("3,1.21,")

    def test_failed_csv_write_prints_no_table(self, capsys, tmp_path):
        path = tmp_path / "missing" / "bounds.csv"
        code, out, err = run(
            capsys, "bounds", "--c", "11/10", "--max-n", "3", "--csv", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage: smpverify bounds")
        assert f"smpverify bounds: error: [Errno 2] No such file or directory: '{path}'" in err
        assert not path.parent.exists()


class TestCertify:
    def test_exact_certified(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--family", "main", "--c", "11/10", "--mu", "5/4"
        )
        assert code == 0
        assert "rho_bar = 121/100" in out

    def test_escaping_scale_fails_with_named_check(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--family", "main", "--c", "11/10", "--mu", "34/25"
        )
        assert code == 1
        assert "inclusions" in out and "b3" in out

    @pytest.mark.parametrize("phi", ["0", "pi"])
    def test_main_pair_off_the_cube_angle_fails_at_normalize(self, capsys, phi):
        # main is irreducible at every angle; only A**3 = I fails away from 2pi/3.
        code, out, _ = run(
            capsys, "certify", "--kappa", "1.2", "--phi", phi, "--mu", "1.1"
        )
        assert code == 1
        assert "[pass] parameters" in out
        assert "first failing check: normalize" in out

    def test_reducible_custom_pair_fails_parameters(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("# reducible pair\n2 0 0 3\n1 1 0 1\n")
        code, out, _ = run(
            capsys, "certify", "--family", "custom", "--matrices", str(path),
            "--c", "11/10", "--mu", "5/4",
        )
        assert code == 1
        assert "[FAIL] parameters  (reducible pair)" in out
        assert "first failing check: parameters" in out

    def test_largest_tol_keeps_the_default_verdict(self, capsys):
        argv = ("certify", "--kappa", "1.331", "--mu", "1.36")
        code, out, err = run(capsys, *argv, "--tol", "1e-9")
        assert (code, out, err) == run(capsys, *argv)
        assert code == 1
        assert "[FAIL] inclusions  (escaping points: b3,b9)" in out

    def test_vertex_order_failure_names_the_product(self, capsys):
        code, out, _ = run(capsys, "certify", "--kappa", "1e20", "--mu", "1.2")
        assert code == 1
        assert "[FAIL] vertex_order  (v1,Tv6 <= 0)" in out

    def test_alt_float_certified(self, capsys):
        code, out, _ = run(
            capsys,
            "certify", "--family", "alt", "--kappa", "1.331", "--mu", "1.07",
        )
        assert code == 0
        assert "certified" in out

    def test_exact_certificate_near_kappa_one(self, capsys):
        # kappa = c**3 is about 1.0009, where the float runs below fail.
        code, out, _ = run(
            capsys, "certify", "--family", "main", "--c", "10003/10000", "--mu", "7/6"
        )
        assert code == 0
        assert "certified: rho_bar = 100060009/100000000" in out

    @pytest.mark.xfail(
        strict=True,
        reason="float rounding near kappa = 1: the order products miss their "
        "closed forms, or v misses its fixed-point check (ROADMAP gap (a))",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "main", "--kappa", "1.001", "--mu", "1.167"),
            ("--family", "main", "--kappa", "1.000001", "--mu", "1.166667"),
            ("--family", "alt", "--kappa", "1.000001", "--mu", "1.010363"),
        ],
    )
    def test_float_certificate_near_kappa_one(self, capsys, argv):
        # Each mu lies inside its admissible interval [mu1, mu2].
        code, out, _ = run(capsys, "certify", *argv)
        assert code == 0
        assert "certified: rho_bar = " in out

    def test_decimal_mu_downgrades_with_warning(self, capsys):
        code, out, err = run(
            capsys, "certify", "--family", "main", "--c", "11/10", "--mu", "1.25"
        )
        assert code == 0
        assert "backend=float" in out
        assert "warning" in err

    def test_kv_report(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "certify", "--c", "11/10", "--mu", "5/4",
            "--kv", "--report", str(path),
        )
        assert code == 0
        assert "certified = true" in out
        text = path.read_text()
        assert "rho_bar = 121/100" in text
        assert "inclusion.a4.h = " in text

    def test_failed_report_write_prints_no_certificate(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.txt"
        code, out, err = run(
            capsys, "certify", "--c", "11/10", "--mu", "5/4", "--kv", "--report", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage: smpverify certify")
        assert f"smpverify certify: error: [Errno 2] No such file or directory: '{path}'" in err
        assert not path.parent.exists()

    @pytest.mark.parametrize("mu, code", [("5/4", 0), ("34/25", 1)])
    def test_text_mode_builds_no_kv_report(self, capsys, monkeypatch, mu, code):
        argv = ("certify", "--c", "11/10", "--mu", mu)
        expected = run(capsys, *argv)

        def boom(self):
            raise AssertionError("the --kv report was built in text mode")

        monkeypatch.setattr(Certificate, "as_kv", boom)
        assert run(capsys, *argv) == expected
        assert expected[0] == code

    def test_conflicting_parameter_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--c", "11/10", "--kappa", "1.3", "--mu", "5/4"])
        assert exc.value.code == 2

    def test_missing_parameters(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--mu", "5/4"])
        assert exc.value.code == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--c", "1/0", "--mu", "5/4"], "division by zero"),
            (["--c", "11/10", "--mu", "5/0"], "bad --mu: division by zero"),
            (["--kappa", "1.331", "--mu", "1.2", "--phi", "pi/0"], "division by zero"),
            (["--family", "main", "--kappa", "inf", "--mu", "1.2"], "--kappa must be finite"),
            (["--family", "alt", "--kappa", "nan", "--mu", "1.2"], "--kappa must be finite"),
            (["--c", "11/10", "--mu", "nan"], "--mu must be finite"),
            (["--kappa", "1.331", "--mu", "inf"], "--mu must be finite"),
            (["--kappa", "1.331", "--mu", "1.2", "--phi", "inf"], "--phi must be finite"),
            (["--kappa", "1.331", "--mu", "1.2", "--phi", "nan"], "--phi must be finite"),
            (["--family", "alt", "--kappa", "1.331", "--mu", "1.07", "--tol", "nan"], "--tol must be finite"),
            (["--family", "alt", "--kappa", "1.331", "--mu", "1.07", "--tol", "inf"], "--tol must be finite"),
            (["--family", "alt", "--kappa", "1.331", "--mu", "1.07", "--tol", "0"], "--tol must be > 0"),
            (["--family", "alt", "--kappa", "1.331", "--mu", "1.07", "--tol=-1e-12"], "--tol must be > 0"),
            (["--family", "main", "--kappa", "1e200", "--mu", "1.2"], "A @ B has a non-finite entry"),
            (["--family", "alt", "--kappa", "1e200", "--mu", "1.2"], "A @ B has a non-finite entry"),
            (["--family", "alt", "--c", BEYOND_FLOAT, "--mu", "5/4"], "--c is out of float range"),
            (["--family", "main", "--phi", "0.5", "--c", BEYOND_FLOAT, "--mu", "5/4"],
             "--c is out of float range"),
            (["--c", "11/10", "--mu", "0"], "--mu must be > 0"),
            (["--c", "11/10", "--mu=-5/4"], "--mu must be > 0"),
            (["--kappa", "1.331", "--mu", "0"], "--mu must be > 0"),
            (["--kappa", "1.331", "--mu=-1.2"], "--mu must be > 0"),
            (["--family", "alt", "--kappa", "1.331", "--mu=-0.0"], "--mu must be > 0"),
            (["--family", "alt", "--kappa", "1.331", "--mu", "1/1" + "0" * 400],
             "--mu is out of float range: it rounds to 0.0"),
            # The input of float_b3_escapes: at these slacks b3 would pass as inside.
            (["--kappa", "1.331", "--mu", "1.36", "--tol", "0.05"], "--tol must be at most 1e-9"),
            (["--kappa", "1.331", "--mu", "1.36", "--tol", "1"], "--tol must be at most 1e-9"),
        ],
    )
    def test_usage_error_with_one_line_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["certify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize(
        "argv, mu",
        [
            (["figure", "--c", "11/10", "--output", "polygon.svg"], "0"),
            (["bounds", "--c", "11/10", "--norm", "polygon"], "0"),
            (["bounds", "--kappa", "1.331", "--norm", "polygon"], "-1.2"),
        ],
    )
    def test_nonpositive_mu_is_one_usage_error(self, capsys, tmp_path, monkeypatch, argv, mu):
        # Refused as certify refuses it (test_usage_error_with_one_line_message),
        # before any work.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--mu={mu}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [f"smpverify {argv[0]}: error: --mu must be > 0, got {mu!r}"]
        assert not (tmp_path / "polygon.svg").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "main", "--kappa", "1.331", "--phi", "0.5"],
            ["--family", "main", "--c", "11/10", "--phi", "0.5"],
            ["--family", "alt", "--kappa", "1.331", "--phi", "0.5"],
            ["--family", "alt", "--phi", "pi/2"],
        ],
    )
    def test_scan_needs_the_distinguished_angle(self, capsys, argv):
        # The threshold closed forms hold only at phi = 2pi/3.
        with pytest.raises(SystemExit) as exc:
            main(["scan", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith("usage: smpverify scan ")
        errors = [line for line in lines if "error:" in line]
        assert errors == [
            "smpverify scan: error: scan needs --phi 2pi/3: its closed forms hold only there"
        ]

    @pytest.mark.parametrize("family", ["main", "alt"])
    def test_scan_kappa_whose_thresholds_overflow(self, capsys, family):
        code, out, err = run(capsys, "scan", "--family", family, "--kappa", "1e100")
        assert code == 2 and out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "out of float range" in errors[0]
        # Both families name the kappa given on the command line.
        assert "1e+100" in errors[0]

    @pytest.mark.parametrize("family", ["main", "alt"])
    def test_certify_lam_out_of_float_range_fails_at_normalize(self, capsys, family):
        # A and B are finite, but lam = rho(BAA) is not: that is named at
        # normalize, not reported as a later check failing on rounding.
        code, out, err = run(
            capsys, "certify", "--family", family, "--kappa", "1e150", "--mu", "1.2"
        )
        assert code == 1 and err == ""
        assert "[pass] normalize" not in out
        assert (
            "  [FAIL] normalize  (lam = inf is out of float range; cannot normalize)"
            in out.splitlines()
        )
        assert out.splitlines()[-1] == "  NOT certified; first failing check: normalize"

    @pytest.mark.parametrize("kappa", ["1e20", "1e50"])
    def test_collinear_sector_fails_convexity(self, capsys, kappa):
        # Rounding makes two sector generators collinear: a failed check,
        # not bad input.
        code, out, err = run(capsys, "certify", "--kappa", kappa, "--mu", "1.2")
        assert code == 1 and err == ""
        assert "  [FAIL] convexity  (sector generators are collinear)" in out.splitlines()
        assert "NOT certified" in out.splitlines()[-1]

    def test_polygon_norm_needs_a_convex_polygon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--c", "11/10", "--max-n", "4", "--norm", "polygon", "--mu", "26/25"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "smpverify bounds: error: --norm polygon needs a convex polygon: "
            "at --mu 26/25 it is not convex"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--c", "10000000000000000000000000000000000000000", "--max-n", "4"],
                "exact products leave the float range at word length 2",
            ),
        ],
    )
    def test_bounds_usage_error_with_one_line_message(self, capsys, argv, message):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    def test_exact_c_beyond_float_range_in_a_fresh_process(self):
        code, out, err = run_fresh(
            "certify", "--family", "alt", "--c", BEYOND_FLOAT, "--mu", "5/4"
        )
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "smpverify certify: error: --c is out of float range: "
            "kappa = c**3 is too large for a float"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--c", "1/0", "--mu", "5/4"],
             "division by zero: Fraction(1, 0)"),
            (["bounds", "--c", "11/10", "--max-n", "0"], "--max-n must be >= 1"),
            (["bounds", "--c", "10000000000000000000000000000000000000000", "--max-n", "4"],
             "exact products leave the float range at word length 2: "
             "a norm, trace or determinant is too large for a float"),
        ],
    )
    def test_errors_from_a_command_use_its_own_usage(self, argv, message):
        # Errors raised while running a command, not by argparse, still
        # print that command's usage and prefix.
        code, out, err = run_fresh(*argv)
        command = argv[0]
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: smpverify {command} ")
        assert lines[-1] == f"smpverify {command}: error: {message}"

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_pipe_exits_141_quietly(self, unbuffered):
        # A reader of stdout that has gone, as in `smpverify ... | head`, is
        # not a usage error: the exit code is 128 + SIGPIPE, stderr is empty.
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "smpverify.cli",
                 "certify", "--c", "11/10", "--mu", "5/4", "--kv"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


# README's exact custom pair (c = 11/10) with and without its swap matrix,
# the same pair in decimals, the pair with a singular swap matrix, a file
# with a non-finite entry, and one with an exact entry beyond the float range.
PAIR = "0 -1000/1331 1331/1000 -1\n0 -1331/1000 1000/1331 -1\n"
PAIR_FILES = {
    "pair.txt": PAIR + "-1331000/2771561 1 -1 1331000/2771561\n",
    "float.txt": "0 -0.7513148009015778 1.331 -1\n0 -1.331 0.7513148009015778 -1\n",
    "singular.txt": PAIR + "1 1 1 1\n",
    "nan.txt": "0 -0.75 nan -1\n0 -1.331 0.75 -1\n",
    "huge.txt": PAIR.replace("1331/1000", "1" + "0" * 400),
}
WARNING = "warning: {} forces the float backend; the run will not be exact"


def custom(command, path, *argv):
    return [command, "--family", "custom", "--matrices", path, *argv]


class TestBackendDecision:
    """One rule for every number a run reads: --c, --kappa, --mu where the
    command uses it, and each entry of --matrices.  A run is exact iff it
    reads no decimal number (p/q and bare integers follow the run) and,
    for main and alt, it is main at 2pi/3 given --c.  A run given --c or
    an all-exact pair file that still goes to floats warns once."""

    def test_unused_decimal_mu_keeps_bounds_exact(self, capsys):
        code, out, err = run(capsys, "bounds", "--c", "11/10", "--max-n", "3", "--mu", "1.25")
        assert (code, err) == (0, "")
        assert out == run(capsys, "bounds", "--c", "11/10", "--max-n", "3")[1]
        assert out.splitlines()[3].split()[1] == "1.21"

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["bounds", "--c", "11/10", "--phi", "pi/2", "--max-n", "3"], "--phi other than 2pi/3"),
            (["permutable", "--c", "11/10", "--phi", "0.5"], "--phi other than 2pi/3"),
            (["certify", "--c", "11/10", "--mu", "1.25"], "decimal mu"),
            (["certify", "--family", "alt", "--c", "11/10", "--mu", "5/4"], "--family alt"),
            (["scan", "--family", "alt", "--c", "11/10"], "--family alt"),
        ],
    )
    def test_float_run_warns_once(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and out
        assert err.splitlines() == [
            f"warning: {reason} forces the float backend; the run will not be exact"
        ]
        if argv[0] == "certify":
            assert "backend=float" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv, code, err, backend",
        [
            (custom("certify", "pair.txt", "--c", "11/10", "--mu", "5/4"), 0, [], "exact"),
            (custom("certify", "float.txt", "--mu", "1.25"), 0, [], "float"),
            (custom("certify", "float.txt", "--c", "11/10", "--mu", "1.25"), 0,
             [WARNING.format("a decimal entry in --matrices")], "float"),
            (custom("certify", "pair.txt", "--c", "11/10", "--mu", "1.25"), 0,
             [WARNING.format("decimal mu")], "float"),
            (custom("certify", "pair.txt", "--mu", "1.25"), 0,
             [WARNING.format("decimal mu")], "float"),
            (custom("bounds", "pair.txt", "--c", "11/10", "--norm", "polygon", "--mu", "1.25",
                    "--max-n", "3"), 0, [WARNING.format("decimal mu")], None),
            (custom("figure", "pair.txt", "--c", "11/10", "--mu", "1.25", "--output", "f.svg"),
             0, [WARNING.format("decimal mu")], None),
            (custom("permutable", "float.txt"), 0, [], None),
            (custom("bounds", "pair.txt", "--kappa", "1.2", "--max-n", "2"), 2,
             ["smpverify bounds: error: --kappa does not apply to --family custom"], None),
            (["bounds", "--family", "main", "--c", "11/10", "--matrices", "pair.txt",
              "--max-n", "2"], 2,
             ["smpverify bounds: error: --matrices needs --family custom"], None),
            (["scan", "--family", "alt", "--matrices", "pair.txt"], 2,
             ["smpverify scan: error: --matrices needs --family custom"], None),
            (custom("permutable", "singular.txt"), 2,
             ["smpverify permutable: error: the swap matrix in --matrices is singular"], None),
            (custom("certify", "singular.txt", "--c", "11/10", "--mu", "5/4"), 2,
             ["smpverify certify: error: the swap matrix in --matrices is singular"], None),
            (custom("permutable", "nan.txt"), 2,
             ["smpverify permutable: error: an entry of --matrices must be finite, got 'nan'"],
             None),
            (custom("certify", "huge.txt", "--mu", "1.25"), 2,
             ["smpverify certify: error: an entry of --matrices is out of float range"], None),
            (["certify", "--family", "alt", "--c", "11/10", "--mu", "1" + "0" * 400], 2,
             ["smpverify certify: error: --mu is out of float range"], None),
            # A usage error after reading is not preceded by the warning.
            (["bounds", "--c", "11/10", "--phi", "0.5", "--norm", "polygon", "--mu", "5/4",
              "--max-n", "2"], 2,
             ["smpverify bounds: error: A**3 is not the identity; cannot normalize"], None),
            # A pair file has no angle: a given --phi, even 2pi/3, is refused.
            (custom("certify", "pair.txt", "--c", "11/10", "--mu", "5/4", "--phi", "0.5"), 2,
             ["smpverify certify: error: --phi does not apply to --family custom"], None),
            (custom("permutable", "pair.txt", "--phi", "2pi/3"), 2,
             ["smpverify permutable: error: --phi does not apply to --family custom"], None),
        ],
    )
    def test_custom_pairs_and_mu_follow_the_rule(
        self, capsys, monkeypatch, tmp_path, argv, code, err, backend
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in PAIR_FILES.items():
            (tmp_path / name).write_text(text)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        out, stderr = capsys.readouterr()
        if code == 2:
            usage = build_parser().parse_args(argv).parser.format_usage()
            err = usage.splitlines() + err
            assert out == ""
        assert (got, stderr.splitlines()) == (code, err)
        if backend is not None:
            assert f" backend={backend} " in out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify"],
            ["figure", "--output", "f.svg"],
            ["bounds", "--max-n", "2"],
            ["bounds", "--max-n", "2", "--norm", "polygon"],
        ],
    )
    def test_malformed_mu_is_a_usage_error_before_any_warning(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--family", "alt", "--c", "11/10", "--mu", "1..2"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "warning" not in err
        assert err.splitlines()[-1].endswith(
            "error: bad --mu: could not convert string to float: '1..2'"
        )


class TestScan:
    def test_main_kappa_max(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "main")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("kappa_max")][0]
        assert abs(float(line.split("=")[1]) - 1.447892) < 1e-5

    def test_alt_kappa_max(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "alt")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("kappa_max")][0]
        assert abs(float(line.split("=")[1]) - 1.528580) < 1e-5

    def test_threshold_listing(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "main", "--kappa", "1.331")
        assert code == 0
        assert "mu1 = 1.21" in out
        assert "admissible mu interval" in out
        mu2_line = [l for l in out.splitlines() if "mu2 =" in l][0]
        assert abs(float(mu2_line.split("=")[1]) - 1.299757) < 1e-6

    def test_exact_threshold_listing(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "main", "--c", "11/10")
        assert code == 0
        assert "mu1 = 121/100" in out


class TestPermutable:
    def test_main_family(self, capsys):
        code, out, _ = run(capsys, "permutable", "--family", "main", "--c", "11/10")
        assert code == 0
        assert "permutable (trace/det criterion): True" in out
        assert "tau verified: True" in out

    def test_alt_family_at_a_small_angle_is_irreducible(self, capsys):
        code, out, _ = run(
            capsys, "permutable", "--family", "alt", "--kappa", "1.2", "--phi", "1e-9"
        )
        assert code == 0
        assert out.splitlines()[0] == "irreducible: True"

    def test_reducible_custom_pair(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("# reducible pair\n2 0 0 3\n1 1 0 1\n")
        code, out, _ = run(capsys, "permutable", "--family", "custom",
                           "--matrices", str(path))
        assert code == 1
        assert "criterion inapplicable (reducible)" in out

    def test_mismatched_determinants(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("0 -1000/1331 1331/1000 -1\n0 -2000/1331 2662/1000 -2\n")
        code, out, _ = run(capsys, "permutable", "--family", "custom",
                           "--matrices", str(path))
        assert code == 1
        assert "permutable (trace/det criterion): False" in out


class TestFigure:
    def test_writes_svg(self, capsys, tmp_path):
        path = tmp_path / "out.svg"
        code, out, _ = run(
            capsys,
            "figure", "--family", "main", "--c", "11/10",
            "--mu", "5/4", "--output", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("<?xml")

    def test_float_failure_case_renders(self, capsys, tmp_path):
        path = tmp_path / "bad.svg"
        code, _, _ = run(
            capsys,
            "figure", "--kappa", "1.331", "--mu", "1.04", "--output", str(path),
        )
        assert code == 0 and path.exists()


class TestCustomCertify:
    def test_custom_exact_pair_with_context(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text(
            "# zero-corner pair at c = 11/10, with its swap similarity\n"
            "0 -1000/1331 1331/1000 -1\n"
            "0 -1331/1000 1000/1331 -1\n"
            "-1331000/2771561 1 -1 1331000/2771561\n"
        )
        code, out, _ = run(
            capsys,
            "certify", "--family", "custom", "--matrices", str(path),
            "--c", "11/10", "--mu", "5/4",
        )
        assert code == 0
        assert "rho_bar = 121/100" in out

    def test_custom_float_pair_with_its_swap_matrix(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text(
            "# the zero-corner pair at c = 11/10 in decimals, with its swap similarity\n"
            "0 -0.7513148009015778 1.331 -1\n"
            "0 -1.331 0.7513148009015778 -1\n"
            "-0.4802347846574548 1 -1 0.4802347846574548\n"
        )
        code, out, _ = run(
            capsys, "permutable", "--family", "custom", "--matrices", str(path)
        )
        assert code == 0
        assert "tau verified: True" in out
        code, out, _ = run(
            capsys, "certify", "--family", "custom", "--matrices", str(path), "--mu", "1.25"
        )
        assert code == 0
        assert "[pass] permutable" in out and "certified: rho_bar = 1.21" in out


class TestDeterminism:
    def test_identical_invocations_identical_stdout(self, capsys):
        argv = ["scan", "--family", "main", "--kappa", "1.331"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "34/34 checks passed" in out
    assert "FAIL" not in out


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        real_build = cli.build_parser

        def counting_build():
            calls.append(1)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._shared_parser.cache_clear()
        try:
            for argv in (
                ["scan", "--family", "main", "--kappa", "1.331"],
                ["bounds", "--c", "11/10", "--max-n", "3"],
                ["certify", "--c", "11/10", "--mu", "5/4"],
            ):
                assert run(capsys, *argv)[0] == 0
        finally:
            cli._shared_parser.cache_clear()
        assert len(calls) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_reused_parser_output_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        bad = ["certify", "--c", "11/10", "--mu", "5/4", "--tol", "0"]
        good = ["certify", "--c", "11/10", "--mu", "5/4", "--kv"]
        expected = {"bad": run_fresh(*bad), "good": run_fresh(*good)}
        assert expected["bad"][0] == 2 and expected["good"][0] == 0
        for name, argv in (("bad", bad), ("good", good), ("bad", bad)):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected[name]


    def test_a_subcommand_argv_is_parsed_once(self, capsys, monkeypatch):
        # The subcommand's parser reads it; the top-level parser never runs.
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand argv")

        monkeypatch.setattr(cli._shared_parser(), "parse_args", refuse)
        assert run(capsys, "certify", "--c", "11/10", "--mu", "5/4")[0] == 0
        assert run(capsys, "bounds", "--c", "11/10", "--max-n", "3")[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--family", "main", "--c", "11/10", "--mu", "5/4", "--no-such-flag"],
            ["certify", "--no-such-flag", "x", "--c", "11/10", "--mu", "5/4"],
            ["certify", "--c", "11/10", "--mu", "5/4", "--", "--kv"],
            ["selftest", "extra"],
            ["certify", "--help"],
            ["bounds", "--c", "11/10", "-h"],
            ["bounds", "--max-n", "x"],
            ["certify", "--tol"],
            [],
            ["-h"],
            ["--no-such-flag", "certify"],
            ["cert", "--c", "11/10"],
        ],
    )
    def test_messages_match_the_top_level_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        assert outcome(main) == outcome(cli.build_parser().parse_args)


def test_selftest_refuses_to_run_without_assertions():
    code, out, _ = run_fresh("selftest", flags=("-O",))
    assert code != 0
    assert "checks passed" not in out
    assert "assertions are disabled" in out
