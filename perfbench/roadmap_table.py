"""Re-measures the baseline table of ROADMAP item 1 (median of k runs).

    python3 perfbench/roadmap_table.py

Run from the root of a checkout.  In-process timings call smpverify
directly; the CLI rows start `python3 -m smpverify.cli` as a user would.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _median_s(fn, k: int) -> float:
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cli_s(argv: list[str], k: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "smpverify.cli", *argv]
    return _median_s(
        lambda: subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=False), k
    )


def main() -> None:
    start = time.perf_counter()
    from smpverify import cli, polytope, words
    from smpverify.families import (
        eigenvectors_from_products,
        example_main_special,
        normalize,
    )
    from smpverify.matrix2 import Mat2
    from smpverify.scalar import KappaContext, Scalar

    import_s = time.perf_counter() - start
    exact = example_main_special(KappaContext(Fraction(11, 10)))
    fa, fb = (Mat2.flt(*map(float, m.entries())) for m in (exact.a, exact.b))
    norm = normalize(exact)
    v, w = eigenvectors_from_products(norm)
    poly = polytope.build_polygon(norm, v, w, Scalar.exact(Fraction(5, 4)))
    point = norm.at @ poly.v(4)

    def in_process(argv):
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                cli.main(argv)
            finally:
                sys.stdout = saved

    exact_argv = ["certify", "--family", "main", "--c", "11/10", "--mu", "5/4", "--kv"]
    alt_argv = ["certify", "--family", "alt", "--kappa", "1.331", "--mu", "1.07", "--kv"]
    rows = [
        ("certify exact c=11/10 mu=5/4, in-process", _median_s(lambda: in_process(exact_argv), 21), "ms"),
        ("certify exact c=11/10 mu=5/4, CLI", _cli_s(exact_argv, 7), "ms"),
        ("certify alt kappa=1.331 mu=1.07, in-process", _median_s(lambda: in_process(alt_argv), 21), "ms"),
        ("certify alt kappa=1.331 mu=1.07, CLI", _cli_s(alt_argv, 7), "ms"),
        ("kappa_max('alt')", _median_s(lambda: polytope.kappa_max("alt"), 5), "ms"),
        ("rho_n box n=14 exact", _median_s(lambda: words.rho_n(exact.a, exact.b, 14), 3), "ms"),
        ("rho_n box n=14 float", _median_s(lambda: words.rho_n(fa, fb, 14), 3), "ms"),
        ("rho_bar_n exact n=14", _median_s(lambda: words.rho_bar_n(exact.a, exact.b, 14), 3), "ms"),
        ("rho_n polygon norm exact n=8", _median_s(lambda: words.rho_n(exact.a, exact.b, 8, norm=poly), 3), "ms"),
        ("bounds --c 11/10 --max-n 12, CLI", _cli_s(["bounds", "--c", "11/10", "--max-n", "12"], 3), "ms"),
        ("Mat2 @ exact", _median_s(lambda: [exact.a @ exact.b for _ in range(1000)], 7) / 1000, "us"),
        ("Mat2 @ float", _median_s(lambda: [fa @ fb for _ in range(1000)], 7) / 1000, "us"),
        ("polygon_gauge exact", _median_s(lambda: [polytope.polygon_gauge(poly, point) for _ in range(100)], 7) / 100, "us"),
        ("Polygon.matrix_norm exact", _median_s(lambda: poly.matrix_norm(norm.at), 21), "ms"),
        ("import smpverify.cli (first import, this process)", import_s, "ms"),
    ]
    scale = {"ms": 1e3, "us": 1e6}
    for name, seconds, unit in rows:
        print(f"| {name} | {seconds * scale[unit]:.1f} {unit} |")


if __name__ == "__main__":
    main()
