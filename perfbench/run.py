"""Benchmark of smpverify: one workload per run, one JSON line of metrics.

    python3 perfbench/run.py --workload certify_exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The parent process makes the seeded
inputs, starts the measured child processes (perfbench/worker.py) one at a
time with src/ on their import path, checks every output against an
independent computation (checks.py) and prints the metrics.  --trace 1
prints the per-layer metrics of one traced child instead of the end-to-end
metrics.  Each run also writes its result, and in traced runs the spans,
under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from worker import YARDSTICK_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Children per untraced run.  Each sets up once (so setup_s is a median of
# three) and measures a third of the time; their samples are pooled.
CHILDREN = 3
# The tail percentile needs ten samples beyond it, and a tail only means
# something with at least 40 samples (see README.md).
MIN_OPS = 40
TAIL_BEYOND = 10
# All children together must end within this many seconds of the start.
RUN_DEADLINE_S = 165

UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def _run_child(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # Fixed hashing keeps set and dict layouts, and so op costs, the same
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _expected(workload: str, inputs: list[dict]) -> None:
    """Adds the independent expectation to each input, in place."""
    for item in inputs:
        if workload == "bounds_oracle":
            item["rows"] = checks.enumerate_bounds(Fraction(item["c"]), workloads.BOUNDS_N)
        else:
            item["expected"], item["rho_bar"] = checks.expected_certify(item)


def _check(workload: str, inputs: list[dict], children: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, messages) over every op of every child.

    An op fails when it raised, exited with a code other than 0/1, or its
    output disagrees with the independent check; a disagreement also makes
    the run incorrect.  Ops after the first on an input must repeat its
    output exactly and are judged with it.
    """
    check = checks.check_bounds if workload == "bounds_oracle" else checks.check_certify
    attempted = failed = 0
    correct = True
    messages = []
    for child in children:
        verdicts = {}
        for key, (rc, text) in child["first"].items():
            item = inputs[int(key)]
            if rc not in (0, 1):
                verdicts[int(key)] = ("error", f"{item['argv']}: {rc}: {text.strip()[-300:]}")
                continue
            reason = check(item, rc, text)
            verdicts[int(key)] = ("wrong", f"{item['argv']}: {reason}") if reason else None
        changed = set(child["changed"])
        for op, (idx, *_) in enumerate(child["samples"]):
            attempted += 1
            verdict = verdicts[idx]
            if op in changed:
                verdict = ("wrong", f"{inputs[idx]['argv']}: output differs between repeats")
            if verdict is not None:
                failed += 1
                correct = correct and verdict[0] != "wrong"
                if verdict[1] not in messages:
                    messages.append(verdict[1])
    return attempted, failed, correct, messages


def _tail(times: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def _end_to_end(children: list[dict], normalize: bool = True) -> dict:
    """The end-to-end metrics; times are host-speed normalized unless
    normalize is False (README.md, "Host speed").

    The tail is taken in each child and the median reported, so that one
    burst of host noise in one child does not set it; a child with fewer
    than MIN_OPS samples has no tail of its own, and then the samples of
    all children are pooled.
    """

    def scale(ref: float) -> float:
        return YARDSTICK_NOMINAL_S / ref if normalize else 1.0

    per_child = [[s[1] * scale(s[3]) for s in child["samples"]] for child in children]
    times = [t for child in per_child for t in child]
    if all(len(child) >= MIN_OPS for child in per_child):
        tail = statistics.median(_tail(child) for child in per_child)
    else:
        tail = _tail(times)
    return {
        "throughput_ops_s": len(times) / math.fsum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(
            c["setup_s"] * (c["setup_speed"] if normalize else 1.0) for c in children
        ),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "smpverify" / "cli.py").is_file():
        print(f"error: no smpverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    inputs = workloads.make_inputs(args.workload, args.seed)
    children_n = 1 if args.trace else CHILDREN
    pass_len = len(inputs)
    # Whole passes only; untraced runs need enough for the tail percentile.
    min_passes = 1 if args.trace else math.ceil(MIN_OPS / (children_n * pass_len))
    job = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds / children_n,
        "min_ops": min_passes * pass_len,
        "inputs": inputs,
    }
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        children = [_run_child(job, deadline) for _ in range(children_n)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _expected(args.workload, inputs)
    attempted, failed, correct, messages = _check(args.workload, inputs, children)
    for msg in messages:
        print(f"failed op: {msg}", file=sys.stderr)

    if args.trace:
        values = children[0]["metrics"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(values.items())}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in _end_to_end(children).items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result)
    if not args.trace:
        record["unnormalized"] = _end_to_end(children, normalize=False)
        record["yardstick_ms"] = statistics.median(
            s[3] for child in children for s in child["samples"]
        ) * 1e3
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(children[0]["spans"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
