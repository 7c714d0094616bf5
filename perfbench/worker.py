"""One measured child process of the benchmark.

Reads a JSON job on stdin, prints one JSON result on stdout.  It imports
only the standard library and smpverify, so the peak resident size it
reports is the program's own.

Modes:
* time  - set up (import smpverify.cli, decode the inputs, one warm-up
          op), then run whole passes over the inputs through
          smpverify.cli.main until the time share is used up.
* trace - the same ops, alternating untraced and traced passes (the
          traced ones time certify_smp / bounds_table inside cli.main),
          then timed calls into each layer's public functions on the
          same inputs.
"""

from __future__ import annotations

import gc
import io
import json
import re
import statistics
import sys
import time
import timeit
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

_RATIONAL = re.compile(r"(\d+)/(\d+)")
# The yardstick: Fraction arithmetic, like the program's exact path.  It
# takes about YARDSTICK_NOMINAL_S on the reference host when nothing else
# competes for it.  See README.md, "Host speed".
YARDSTICK_ITERS = 170
YARDSTICK_NOMINAL_S = 1e-3
# Smallest span a layer timing covers; short calls are repeated to fill it.
_MIN_SPAN_S = 0.002


def _peak_rss_mb() -> float:
    """Peak resident size of this address space.

    VmHWM belongs to the current address space only.  ru_maxrss would also
    carry the parent's peak across exec on Linux, and the parent loads
    numpy.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def yardstick_s() -> float:
    """Duration of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(YARDSTICK_ITERS):
        acc = (acc + Fraction(i % 7 + 1, i % 11 + 1)) % 97
    return time.perf_counter() - start


def _run_op(cli, argv):
    """(seconds, yardstick seconds, exit code, output) of one cli.main call.

    gc runs before the timed span, so no op pays for its predecessor's
    garbage; the yardstick runs just before and after it.
    """
    gc.collect()
    before = yardstick_s()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # reported as a failed op, not a crash of the run
            rc = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    ref = (before + yardstick_s()) / 2
    return elapsed, ref, rc, out.getvalue() + err.getvalue()


class _Ops:
    """Whole passes over the inputs; the first output of each input is kept
    for the parent to check, later ones must repeat it byte for byte."""

    def __init__(self, cli, inputs):
        self.cli = cli
        self.argvs = [item["argv"] for item in inputs]
        self.samples: list[list] = []  # [input index, seconds, traced, yardstick seconds]
        self.first: dict[int, list] = {}  # input index -> [exit code, output]
        self.changed: list[int] = []  # op numbers whose output differs from the first
        self.report_bytes: list[int] = []

    def one_pass(self, traced: bool = False) -> None:
        for idx, argv in enumerate(self.argvs):
            elapsed, ref, rc, text = _run_op(self.cli, argv)
            if idx not in self.first:
                self.first[idx] = [rc, text]
            elif self.first[idx] != [rc, text]:
                self.changed.append(len(self.samples))
            self.samples.append([idx, elapsed, traced, ref])
            self.report_bytes.append(len(text.encode()))

    def run(self, seconds: float, min_ops: int) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(self.samples) < min_ops:
            self.one_pass()


class _InnerTimer:
    """Stands in for module.name and records each call's duration."""

    def __init__(self, module, name):
        self.module, self.name = module, name
        self.orig = getattr(module, name)
        self.durations: list[float] = []

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.orig(*args, **kwargs)
        finally:
            self.durations.append(time.perf_counter() - start)

    def install(self, on: bool) -> None:
        setattr(self.module, self.name, self if on else self.orig)


def _per_call(stmt, env=None) -> float:
    """Seconds per call, repeating until the span covers _MIN_SPAN_S."""
    timer = timeit.Timer(stmt, globals=env) if env else timeit.Timer(stmt)
    number = 1
    while True:
        elapsed = timer.timeit(number)
        if elapsed >= _MIN_SPAN_S:
            return elapsed / number
        number *= 2 if elapsed > _MIN_SPAN_S / 10 else 10


class _CountingNorm:
    """A matrix norm object that counts the leaves words.rho_n visits."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def matrix_norm(self, m):
        self.calls += 1
        return self.inner.matrix_norm(m)


def _speed_factor() -> float:
    """Multiplier that converts seconds measured now to reference seconds."""
    return YARDSTICK_NOMINAL_S / statistics.median(yardstick_s() for _ in range(5))


def _layer_pass(item: dict, times: dict, counts: dict, spans: list, t0: float) -> None:
    """Time each layer's public functions on one input, in reference
    seconds times the unit of the metric's name."""
    from smpverify import families, matrix2, permutability, polytope, words
    from smpverify.matrix2 import Mat2
    from smpverify.scalar import KappaContext, Scalar

    if item["backend"] == "exact":
        mset = families.example_main_special(KappaContext(Fraction(item["c"])))
        mu = Scalar.exact(Fraction(item["mu"]))
    else:
        make = families.example_alt if item["family"] == "alt" else families.example_main
        mset = make(float(item["kappa"]), families.DISTINGUISHED_PHI)
        mu = Scalar.flt(float(item["mu"]))
    a, b = mset.a, mset.b
    # The same pair and numbers in the other backend, exactly converted.
    if mset.is_exact:
        pair_exact = (a, b)
        pair_float = tuple(Mat2.flt(*(float(e) for e in m.entries())) for m in (a, b))
    else:
        pair_float = (a, b)
        pair_exact = tuple(Mat2.exact(*(Fraction(e.value) for e in m.entries())) for m in (a, b))
    kx, mx = Fraction(mset.kappa.value), Fraction(mu.value)

    speed = _speed_factor()

    def span(name, fn, unit):
        start = time.perf_counter()
        value = fn()
        spans.append([name, start - t0, time.perf_counter() - t0])
        times.setdefault(name, []).append(value * unit * speed)

    exact_xy = {"x": Scalar.exact(kx), "y": Scalar.exact(mx)}
    float_xy = {"x": Scalar.flt(float(kx)), "y": Scalar.flt(float(mx))}
    span("scalar.mul_exact_ns", lambda: _per_call("x * y", exact_xy), 1e9)
    span("scalar.mul_float_ns", lambda: _per_call("x * y", float_xy), 1e9)
    span("matrix2.matmul_exact_us", lambda: _per_call(lambda: pair_exact[0] @ pair_exact[1]), 1e6)
    span("matrix2.matmul_float_us", lambda: _per_call(lambda: pair_float[0] @ pair_float[1]), 1e6)
    baa = pair_exact[1] @ pair_exact[0] @ pair_exact[0]
    span("matrix2.spectral_radius_exact_us", lambda: _per_call(lambda: matrix2.spectral_radius(baa)), 1e6)

    n = item["words_n"]
    span("words.necklaces_ms", lambda: _per_call(lambda: words.necklaces(n)), 1e3)
    span("words.rho_bar_n_ms", lambda: _per_call(lambda: words.rho_bar_n(a, b, n)), 1e3)
    span("words.rho_n_ms", lambda: _per_call(lambda: words.rho_n(a, b, n)), 1e3)
    counter = _CountingNorm(words.BoxNorm())
    words.rho_n(a, b, n, norm=counter)
    counts["words.rho_n_leaves"] = counter.calls
    counts["words.necklace_count"] = len(words.necklaces(n))

    tau = permutability.TauMap(mset.tau_s)
    span("permutability.verify_tau_us", lambda: _per_call(lambda: permutability.verify_tau(a, b, tau)), 1e6)
    span("families.normalize_us", lambda: _per_call(lambda: families.normalize(mset)), 1e6)
    norm = families.normalize(mset)
    span("families.eigenvectors_us", lambda: _per_call(lambda: families.eigenvectors_from_products(norm)), 1e6)
    v, w = families.eigenvectors_from_products(norm)
    span("polytope.build_polygon_us", lambda: _per_call(lambda: polytope.build_polygon(norm, v, w, mu)), 1e6)
    poly = polytope.build_polygon(norm, v, w, mu)
    span("polytope.vertex_order_us", lambda: _per_call(lambda: polytope.vertex_order_check(poly)), 1e6)
    span("polytope.convexity_us", lambda: _per_call(lambda: polytope.convexity_check(poly)), 1e6)
    span("polytope.verify_inclusions_ms", lambda: _per_call(lambda: polytope.verify_inclusions(poly, norm)), 1e3)
    span("polytope.certify_smp_ms", lambda: _per_call(lambda: polytope.certify_smp(mset, mu)), 1e3)
    cert = polytope.certify_smp(mset, mu)
    # The gauge is a norm only on a certified polygon.
    if cert.passed:
        span("polytope.matrix_norm_ms", lambda: _per_call(lambda: poly.matrix_norm(norm.at)), 1e3)
        pts = polytope.images(poly, norm)
        points = pts.a + pts.b
        span(
            "polytope.gauge_us",
            lambda: _per_call(lambda: [polytope.polygon_gauge(poly, p) for p in points]) / len(points),
            1e6,
        )
    kv = "\n".join(f"{k} = {val}" for k, val in cert.as_kv())
    bits = max(
        (int(g).bit_length() for m in _RATIONAL.finditer(kv) for g in m.groups()), default=0
    )
    counts["polytope.max_bits"] = max(counts.get("polytope.max_bits", 0), bits)


def _trace(cli, job: dict, ops: _Ops, t0: float) -> dict:
    from smpverify import polytope, words

    if job["workload"].startswith("certify"):
        timer = _InnerTimer(polytope, "certify_smp")
    else:
        timer = _InnerTimer(words, "bounds_table")
    share = job["seconds"] / 2
    spans: list = []
    # Untraced and traced passes alternate, ending on a traced one.
    start = time.perf_counter()
    traced = False
    try:
        while time.perf_counter() - start < share or len(ops.samples) < job["min_ops"] or traced:
            timer.install(traced)
            pass_start = time.perf_counter() - t0
            ops.one_pass(traced)
            name = "pass.traced" if traced else "pass.untraced"
            spans.append([name, pass_start, time.perf_counter() - t0])
            traced = not traced
    finally:
        timer.install(False)
    traced_ops = [s for s in ops.samples if s[2]]
    untraced_s = [s[1] * YARDSTICK_NOMINAL_S / s[3] for s in ops.samples if not s[2]]
    traced_s = [s[1] * YARDSTICK_NOMINAL_S / s[3] for s in traced_ops]
    self_ms = [
        (s[1] - inner) * YARDSTICK_NOMINAL_S / s[3] * 1e3
        for s, inner in zip(traced_ops, timer.durations)
    ]

    times: dict = {}
    counts: dict = {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < share:
        for item in job["inputs"]:
            _layer_pass(item, times, counts, spans, t0)
        passes += 1
    metrics = {name: statistics.median(vals) for name, vals in times.items()}
    metrics.update(counts)
    metrics["cli.self_ms"] = statistics.median(self_ms)
    metrics["cli.report_bytes"] = statistics.median(ops.report_bytes)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    metrics["trace.overhead_pct"] = overhead * 100
    return {"metrics": metrics, "spans": spans}


def main() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    from smpverify import cli

    ops = _Ops(cli, job["inputs"])
    _run_op(cli, ops.argvs[0])  # warm-up
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "setup_speed": _speed_factor()}
    if job["trace"]:
        result.update(_trace(cli, job, ops, t0))
    else:
        ops.run(job["seconds"], job["min_ops"])
    result.update(
        samples=ops.samples,
        first={str(k): v for k, v in ops.first.items()},
        changed=ops.changed,
        peak_rss_mb=_peak_rss_mb(),
    )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
