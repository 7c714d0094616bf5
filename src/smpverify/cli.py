"""Command-line front end.

Subcommands: bounds, certify, scan, permutable, figure, selftest.
Exit codes: 0 success/certified, 1 check failed, 2 usage error, 141 when
the reader of stdout has closed it (128 + SIGPIPE).

Each command imports the modules it runs when it runs, so `bounds` loads
neither the polygon certificate nor the figure writer.

One reader, _read_run, takes every number of a run and picks its backend
once: a run is exact iff it reads no decimal (p/q and bare integers are
exact) and, for main and alt, it is main at 2pi/3 given --c.  A run given
--c or an all-exact pair file that still goes to floats warns once.
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
    at_distinguished_angle,
    custom_set,
    example_alt,
    example_main,
    example_main_special,
)
from .matrix2 import Mat2
from .scalar import REL_TOL, KappaContext, Scalar, parse_scalar

__all__ = ["main", "build_parser"]


def _parse_phi(text: str | None) -> float:
    """Angles as decimals or multiples of pi: '2pi/3', 'pi/4', 'pi', '1.5';
    None, for no --phi, is 2pi/3."""
    t = ("2pi/3" if text is None else text).strip().lower().replace(" ", "")
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
    """--tol: a finite relative tolerance in (0, 1e-9], checked at parse time.

    Binary64 rounding in the certificate's checks is about 1e-15, and a
    slack far above it lets an escaping point pass as inside.
    """
    try:
        value = _finite(float(text), "--tol", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"--tol must be > 0, got {text!r}")
    if value > 1e-9:
        raise argparse.ArgumentTypeError(f"--tol must be at most 1e-9, got {text!r}")
    return value


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family", choices=("main", "alt", "custom"), default="main",
        help="which matrix pair to build (default: main)",
    )
    p.add_argument("--c", help="exact cube-root parameter c as p/q (kappa = c^3)")
    p.add_argument("--kappa", help="float stretch parameter kappa > 1")
    p.add_argument(
        "--phi", help="rotation angle; decimals or e.g. '2pi/3' (default: 2pi/3)",
    )
    p.add_argument(
        "--matrices", help="custom pair file: 8 scalar strings, optionally 4 more "
        "for the swap similarity matrix",
    )


def _float(x, message: str) -> float:
    """float(x), or a ValueError with the message if x leaves the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(message) from None


def _message(exc: Exception) -> str:
    return f"division by zero: {exc}" if isinstance(exc, ZeroDivisionError) else str(exc)


def _read_entries(path: str) -> list[Scalar]:
    """The 8 or 12 entries of a pair file, each read by the rule of --mu."""
    with open(path, encoding="utf-8") as fh:
        tokens = [t for line in fh for t in line.split("#", 1)[0].split()]
    if len(tokens) not in (8, 12):
        raise ValueError(
            f"custom pair file needs 8 or 12 scalar entries, found {len(tokens)}"
        )
    entries = [parse_scalar(t) for t in tokens]
    for x, text in zip(entries, tokens):
        if not x.is_exact:
            _finite(x.value, "an entry of --matrices", text)
    return entries


def _read_run(args, parser: argparse.ArgumentParser, mu_for: str | None = None):
    """(set, mu, reason) from --c, --kappa, --mu and --matrices.

    mu_for names what needs --mu, or is None if the command ignores it
    (mu is then None too).  reason says why a run given --c or an
    all-exact pair file still goes to floats; _warn prints it once no
    usage error can follow.
    """
    if mu_for and args.mu is None:
        parser.error(f"{mu_for} needs --mu")
    custom = args.family == "custom"
    if custom and args.kappa:
        parser.error("--kappa does not apply to --family custom")
    if custom and args.phi is not None:
        parser.error("--phi does not apply to --family custom")
    if custom != bool(args.matrices):
        parser.error("--matrices needs --family custom" if args.matrices
                     else "--family custom needs --matrices FILE")
    try:
        mu = None if getattr(args, "mu", None) is None else parse_scalar(args.mu)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"bad --mu: {_message(exc)}")
    try:
        if mu is not None and not mu.is_exact:
            _finite(mu.value, "--mu", args.mu)
        if mu is not None and not mu > 0:
            raise ValueError(f"--mu must be > 0, got {args.mu!r}")
        phi = _parse_phi(args.phi)
        ctx = KappaContext(Fraction(args.c)) if args.c else None
        entries = _read_entries(args.matrices) if custom else []
        if not custom and ctx is None and not args.kappa:
            parser.error("need --c p/q or --kappa value")
        if args.kappa and ctx is not None:
            parser.error("--c and --kappa are mutually exclusive")
        decimal_entry = not all(x.is_exact for x in entries)
        reasons = (
            (args.family == "alt", "--family alt"),
            (not (custom or at_distinguished_angle(phi)), "--phi other than 2pi/3"),
            (decimal_entry, "a decimal entry in --matrices"),
            (mu_for and not mu.is_exact, "decimal mu"),
        )
        reason = next((why for hit, why in reasons if hit), None)
        promised = ctx is not None or (custom and not decimal_entry)
        exact = promised and reason is None
        if not exact and mu_for:
            mu = Scalar.flt(_float(mu, "--mu is out of float range"))
            if mu.value == 0:
                raise ValueError("--mu is out of float range: it rounds to 0.0")
        if custom:
            if not exact:
                too_large = "an entry of --matrices is out of float range"
                entries = [Scalar.flt(_float(x, too_large)) for x in entries]
            mats = [Mat2(*entries[i:i + 4]) for i in range(0, len(entries), 4)]
            if len(mats) == 3 and mats[2].det() == 0:
                parser.error("the swap matrix in --matrices is singular")
            mset = custom_set(*mats, ctx=ctx if exact else None)
        elif exact:
            mset = example_main_special(ctx)
        else:
            if ctx is None:
                kappa = _finite(float(args.kappa), "--kappa", args.kappa)
            else:
                kappa = _float(ctx.power(3), "--c is out of float range: "
                               "kappa = c**3 is too large for a float")
            mset = (example_alt if args.family == "alt" else example_main)(kappa, phi)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        parser.error(_message(exc))
    return mset, mu if mu_for else None, reason if promised else None


def _warn(reason: str | None) -> None:
    if reason is not None:
        print(f"warning: {reason} forces the float backend; the run will not be exact",
              file=sys.stderr)


def cmd_bounds(args, parser) -> int:
    from .words import bounds_table, format_bounds_csv, format_bounds_text

    if args.max_n < 1:
        parser.error("--max-n must be >= 1")
    polygon = args.norm == "polygon"
    mset, mu, reason = _read_run(args, parser, "--norm polygon" if polygon else None)
    norm_obj = None
    if polygon:
        from .polytope import _norm_defect, _polygon_for

        _, norm_obj = _polygon_for(mset, mu)
        if (defect := _norm_defect(norm_obj)) is not None:
            parser.error(f"--norm polygon needs a convex polygon: at --mu {args.mu} {defect}")
    _warn(reason)
    rows = bounds_table(mset.a, mset.b, args.max_n, norm=norm_obj)
    # The CSV is written first, so a failed write prints no table.
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_bounds_csv(rows) + "\n")
    print(format_bounds_text(rows))
    if args.csv:
        print(f"csv written to {args.csv}")
    return 0


def cmd_certify(args, parser) -> int:
    from .polytope import certify_smp

    mset, mu, reason = _read_run(args, parser, "certify")
    _warn(reason)
    cert = certify_smp(mset, mu, args.tol)
    if args.kv or args.report:
        kv = "".join(f"{key} = {value}\n" for key, value in cert.as_kv())
    # The report is written first, so a failed write prints no certificate.
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(kv)
    print(cert.as_text())
    if args.kv:
        print(kv, end="")
    if args.report:
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
    if args.c or args.kappa or args.matrices:
        mset, _, reason = _read_run(args, parser)
        _warn(reason)
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

    mset, _, reason = _read_run(args, parser)
    _warn(reason)
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
    from .polytope import _polygon_for, images

    mset, mu, reason = _read_run(args, parser, "figure")
    norm, poly = _polygon_for(mset, mu)
    _warn(reason)
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
        help=f"float-backend relative tolerance, > 0 and at most 1e-9 (default: {REL_TOL})",
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
