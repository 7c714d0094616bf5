"""Command-line front end.

Subcommands: bounds, certify, scan, permutable, figure, selftest.
Exit codes: 0 success/certified, 1 check failed, 2 usage error, 141 when
the reader of stdout has closed it (128 + SIGPIPE).

Each command imports the modules it runs when it runs, so `bounds` loads
neither the polygon certificate nor the figure writer.

Rational flags use the form p/q and select the exact backend; decimal
flags select binary64.  A decimal mu together with an exact c downgrades
the run to the float backend with a warning, so a certificate is never
silently less exact than its flags promise.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

from .families import (
    MatrixSet,
    at_distinguished_angle,
    custom_set,
    eigenvectors_from_products,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from .matrix2 import Mat2
from .scalar import REL_TOL, KappaContext, Scalar, parse_scalar

__all__ = ["main", "build_parser"]


def _parse_phi(text: str) -> float:
    """Angles as decimals or multiples of pi: '2pi/3', 'pi/4', 'pi', '1.5'."""
    t = text.strip().lower().replace(" ", "")
    if "pi" in t:
        m = re.fullmatch(r"([+-]?\d*\.?\d*)pi(?:/([\d.]+))?", t)
        if m is None:
            raise ValueError(f"cannot parse angle {text!r}")
        head = m.group(1)
        num = float(head) if head not in ("", "+", "-") else (-1.0 if head == "-" else 1.0)
        den = float(m.group(2)) if m.group(2) else 1.0
        value = num * math.pi / den
    else:
        value = float(t)
    return _finite(value, "--phi", text)


def _finite(value: float, flag: str, text: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """--tol: a finite relative tolerance > 0, checked at parse time."""
    try:
        value = _finite(float(text), "--tol", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"--tol must be > 0, got {text!r}")
    return value


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family", choices=("main", "alt", "custom"), default="main",
        help="which matrix pair to build (default: main)",
    )
    p.add_argument("--c", help="exact cube-root parameter c as p/q (kappa = c^3)")
    p.add_argument("--kappa", help="float stretch parameter kappa > 1")
    p.add_argument(
        "--phi", default="2pi/3",
        help="rotation angle; decimals or e.g. '2pi/3' (default: 2pi/3)",
    )
    p.add_argument(
        "--matrices", help="custom pair file: 8 scalar strings, optionally 4 more "
        "for the swap similarity matrix",
    )


def _load_custom(path: str, ctx: KappaContext | None) -> MatrixSet:
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if len(tokens) not in (8, 12):
        raise ValueError(
            f"custom pair file needs 8 or 12 scalar entries, found {len(tokens)}"
        )
    a = Mat2.from_strings(tokens[0:4])
    b = Mat2.from_strings(tokens[4:8])
    tau_s = Mat2.from_strings(tokens[8:12]) if len(tokens) == 12 else None
    return custom_set(a, b, tau_s=tau_s, ctx=ctx)


def _float_kappa(ctx: KappaContext) -> float:
    """kappa = c**3 as a float, for a run that leaves the exact backend."""
    try:
        return float(ctx.power(3))
    except OverflowError:
        raise ValueError(
            "--c is out of float range: kappa = c**3 is too large for a float"
        ) from None


def _build_set(args, parser: argparse.ArgumentParser, mu: Scalar | None = None):
    """MatrixSet from the family flags; may downgrade exact->float (warned)."""
    try:
        phi = _parse_phi(args.phi)
        ctx = KappaContext(Fraction(args.c)) if args.c else None
        if args.family == "custom":
            if not args.matrices:
                parser.error("--family custom needs --matrices FILE")
            return _load_custom(args.matrices, ctx)
        if ctx is None and not args.kappa:
            parser.error("need --c p/q or --kappa value")
        if args.kappa and ctx is not None:
            parser.error("--c and --kappa are mutually exclusive")
        if args.kappa:
            _finite(float(args.kappa), "--kappa", args.kappa)
        if args.family == "alt":
            kappa = _float_kappa(ctx) if ctx is not None else float(args.kappa)
            return example_alt(kappa, phi)
        # main family
        if ctx is not None:
            exact_mu_ok = mu is None or mu.is_exact
            if exact_mu_ok and at_distinguished_angle(phi):
                return example_main_special(ctx)
            if not exact_mu_ok:
                print(
                    "warning: decimal mu forces the float backend; "
                    "the run will not be exact",
                    file=sys.stderr,
                )
            return example_main(_float_kappa(ctx), phi)
        return example_main(float(args.kappa), phi)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    except ZeroDivisionError as exc:
        parser.error(f"division by zero: {exc}")


def _parse_mu(args, parser) -> Scalar | None:
    if getattr(args, "mu", None) is None:
        return None
    try:
        mu = parse_scalar(args.mu)
    except ValueError as exc:
        parser.error(f"bad --mu: {exc}")
    except ZeroDivisionError as exc:
        parser.error(f"bad --mu: division by zero: {exc}")
    if not mu.is_exact and not math.isfinite(mu.value):
        parser.error(f"--mu must be finite, got {args.mu!r}")
    return mu


def _mu_for_set(mset: MatrixSet, mu: Scalar):
    if not mset.is_exact and mu.is_exact:
        return Scalar.flt(float(mu))
    return mu


def _polygon_for(mset: MatrixSet, mu: Scalar):
    from .polytope import build_polygon

    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    poly = build_polygon(norm, v, w, _mu_for_set(mset, mu))
    return norm, poly


def cmd_bounds(args, parser) -> int:
    from .words import bounds_table, format_bounds_csv, format_bounds_text

    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    mu = _parse_mu(args, parser)
    mset = _build_set(args, parser, mu)
    norm_obj = None
    if args.norm == "polygon":
        if mu is None:
            parser.error("--norm polygon needs --mu")
        _, norm_obj = _polygon_for(mset, mu)
    rows = bounds_table(mset.a, mset.b, args.max_n, norm=norm_obj)
    print(format_bounds_text(rows))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_bounds_csv(rows) + "\n")
        print(f"csv written to {args.csv}")
    return 0


def cmd_certify(args, parser) -> int:
    from .polytope import certify_smp

    mu = _parse_mu(args, parser)
    if mu is None:
        parser.error("certify needs --mu")
    mset = _build_set(args, parser, mu)
    cert = certify_smp(mset, _mu_for_set(mset, mu), args.tol)
    print(cert.as_text())
    kv = "".join(f"{key} = {value}\n" for key, value in cert.as_kv())
    if args.kv:
        print(kv, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(kv)
        print(f"report written to {args.report}")
    return 0 if cert.passed else 1


def cmd_scan(args, parser) -> int:
    from .polytope import alt_mu_thresholds, kappa_max, mu_thresholds

    if args.family == "custom":
        parser.error("scan supports the main and alt families")
    try:
        phi = _parse_phi(args.phi)
    except ZeroDivisionError as exc:
        parser.error(f"division by zero: {exc}")
    if not at_distinguished_angle(phi):
        parser.error("scan needs --phi 2pi/3: its closed forms hold only there")
    if args.c or args.kappa:
        mset = _build_set(args, parser)
        if args.family == "alt":
            thresholds = alt_mu_thresholds(mset.kappa)
        else:
            thresholds = mu_thresholds(mset.ctx if mset.ctx is not None else mset.kappa)
        names = ("mu0", "mu1", "mu2", "mu3")
        print(f"family {args.family}, kappa = {mset.kappa}")
        for name, value in zip(names, thresholds):
            print(f"  {name} = {value}")
        lo, hi = thresholds[1], thresholds[2]
        if lo <= hi:
            print(f"  admissible mu interval: [{lo}, {hi}]")
        else:
            print("  admissible mu interval: empty")
    kmax = kappa_max(args.family)
    print(f"kappa_max({args.family}) = {kmax}")
    return 0


def cmd_permutable(args, parser) -> int:
    from .permutability import (
        ReducibleSetError,
        TauMap,
        friedland_5tuple,
        friedland_permutable,
        is_irreducible,
        verify_tau,
    )

    mset = _build_set(args, parser)
    a, b = mset.a, mset.b
    irreducible = is_irreducible(a, b)
    print(f"irreducible: {irreducible}")
    tup = friedland_5tuple(a, b)
    labels = ("tr_a", "tr_a2", "tr_b", "tr_b2", "tr_ab")
    print("five traces: " + ", ".join(f"{k}={v}" for k, v in zip(labels, tup)))
    ok = False
    try:
        ok = friedland_permutable(a, b)
        print(f"permutable (trace/det criterion): {ok}")
    except ReducibleSetError:
        print("permutable: criterion inapplicable (reducible)")
    except ValueError as exc:
        print(f"permutable: {exc}")
    if mset.tau_s is not None:
        tau_ok = verify_tau(a, b, TauMap(mset.tau_s))
        print(f"tau verified: {tau_ok}")
        ok = ok and tau_ok
    return 0 if ok else 1


def cmd_figure(args, parser) -> int:
    from .figures import FigureSpec, render
    from .polytope import images

    mu = _parse_mu(args, parser)
    if mu is None:
        parser.error("figure needs --mu")
    mset = _build_set(args, parser, mu)
    norm, poly = _polygon_for(mset, mu)
    spec = FigureSpec(polygon=poly, images=images(poly, norm))
    render(spec, args.output)
    print(f"figure written to {args.output}")
    return 0


def cmd_selftest(args, parser) -> int:
    from .selftest import run_selftest

    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpverify",
        description="verification workbench for spectrum maximizing products "
        "of 2x2 matrix pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="brute-force growth bound table")
    _add_family_options(p)
    p.add_argument("--max-n", type=int, default=6, help="largest word length")
    p.add_argument(
        "--norm", choices=("box", "polygon"), default="box",
        help="norm for the upper bound column",
    )
    p.add_argument("--mu", help="polygon scale (for --norm polygon)")
    p.add_argument("--csv", help="also write the table as CSV to this path")
    p.set_defaults(func=cmd_bounds, parser=p)

    p = sub.add_parser("certify", help="run the full certificate")
    _add_family_options(p)
    p.add_argument("--mu", help="polygon scale, p/q or decimal")
    p.add_argument(
        "--tol", type=_tolerance, default=REL_TOL,
        help=f"float-backend relative tolerance, finite and > 0 (default: {REL_TOL})",
    )
    p.add_argument("--kv", action="store_true", help="print machine-readable lines")
    p.add_argument("--report", help="write the machine-readable report here")
    p.set_defaults(func=cmd_certify, parser=p)

    p = sub.add_parser("scan", help="thresholds and the admissible kappa range")
    _add_family_options(p)
    p.set_defaults(func=cmd_scan, parser=p)

    p = sub.add_parser("permutable", help="irreducibility and swap-permutability")
    _add_family_options(p)
    p.set_defaults(func=cmd_permutable, parser=p)

    p = sub.add_parser("figure", help="render the polygon and its images as SVG")
    _add_family_options(p)
    p.add_argument("--mu", help="polygon scale, p/q or decimal")
    p.add_argument("--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_figure, parser=p)

    p = sub.add_parser("selftest", help="run the built-in reference checks")
    p.set_defaults(func=cmd_selftest, parser=p)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and reused for the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, args.parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, as in `smpverify ... | head`: stop
        # as a SIGPIPE would, and send the unflushed rest to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, TypeError, OSError) as exc:
        args.parser.print_usage(sys.stderr)
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
