"""Seeded inputs of the three workloads.

Every workload is one kind of operation over a list of inputs that a run
cycles through in the order given here, whole passes only.  The slot
tables fix the make-up of a pass (bit lengths, family, certified or not);
the seed only picks the numbers inside each slot, so every seed gives a
pass of the same shape and cost profile.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

WORKLOADS = ("certify_exact", "certify_float", "bounds_oracle")

# Word length of the bounds table, and the word length at which the traced
# run times the words layer on the certify workloads.
BOUNDS_N = 11
CERTIFY_WORDS_N = 8
# Bit length of p and q in c = p/q on bounds_oracle.
BOUNDS_BITS = 8
# Smallest relative distance of a float mu from either end of the certified
# interval (and, when not certified, of the convex range).  The program's
# default float tolerance is 1e-12, so with this margin the tolerance never
# decides a verdict.
FLOAT_MARGIN = 1e-3

C_RANGE = (1.03, 1.11)  # c = kappa**(1/3); the interval closes at c ~ 1.131
KAPPA_RANGE = {"main": (1.10, 1.40), "alt": (1.10, 1.45)}

# (bits of p, q and mu's denominator, where mu sits relative to [mu1, mu2]).
# 12 certified (2 at 8 bits, 6 at 32, 4 at 96) and 4 not certified: the
# median of a pass falls inside the 32-bit certified group, and the tail
# inside the 96-bit group, whatever the seed.
EXACT_SLOTS = (
    (8, "in"), (32, "in"), (96, "in"), (8, "below"),
    (32, "in"), (96, "in"), (32, "in"), (8, "above"),
    (8, "in"), (32, "in"), (96, "in"), (32, "below"),
    (32, "in"), (96, "in"), (32, "in"), (96, "above"),
)

# (family, where): per family 6 certified and 2 not certified.
FLOAT_SLOTS = (
    ("alt", "in"), ("main", "in"), ("alt", "in"), ("main", "below"),
    ("alt", "in"), ("main", "in"), ("alt", "above"), ("main", "in"),
    ("alt", "in"), ("main", "in"), ("alt", "in"), ("main", "above"),
    ("alt", "below"), ("main", "in"), ("alt", "in"), ("main", "in"),
)

BOUNDS_SLOTS = 4


def _rational_c(rng: random.Random, bits: int) -> Fraction:
    """c = p/q in C_RANGE, in lowest terms, with p and q both of exactly
    `bits` bits, so that every c of one slot costs the same."""
    while True:
        q = rng.randrange(2 ** (bits - 1), 2**bits)
        c = Fraction(round(q * rng.uniform(*C_RANGE)), q)
        if c.denominator == q and c.numerator.bit_length() == bits:
            return c


def _place(where: str, certified, convex, t):
    """A mu inside the certified interval, or outside it but inside the
    convex range, at share t of the room.

    Every not-certified op then fails the same way (an image escapes a
    convex polygon) and costs about the same.
    """
    lo, hi = certified
    if where == "in":
        return lo + (hi - lo) * t
    if where == "below":
        return lo - (lo - convex[0]) * t
    return hi + (convex[1] - hi) * t


def _exact_item(rng: random.Random, bits: int, where: str) -> dict:
    c = _rational_c(rng, bits)
    certified = checks.exact_interval(c)
    convex = checks.exact_convex_interval(c)
    while True:
        t = Fraction(rng.randrange(200, 801), 1000)
        mu = _place(where, certified, convex, t).limit_denominator(2**bits)
        if convex[0] < mu < convex[1] and (certified[0] < mu < certified[1]) == (where == "in"):
            break
    return {
        "argv": ["certify", "--family", "main", "--c", str(c), "--mu", str(mu), "--kv"],
        "backend": "exact", "family": "main", "c": str(c), "mu": str(mu),
        "words_n": CERTIFY_WORDS_N,
    }


def _float_item(rng: random.Random, family: str, where: str) -> dict:
    while True:
        kappa = f"{rng.uniform(*KAPPA_RANGE[family]):.6f}"
        certified = checks.float_interval(family, float(kappa), 1)
        convex = checks.float_interval(family, float(kappa), 0) if where != "in" else certified
        mu = f"{_place(where, certified, convex, rng.uniform(0.2, 0.8)):.9f}"
        m = float(mu)
        ends = certified + (convex if where != "in" else ())
        if min(abs(m - e) / e for e in ends) >= FLOAT_MARGIN:
            break
    return {
        "argv": ["certify", "--family", family, "--kappa", kappa, "--mu", mu, "--kv"],
        "backend": "float", "family": family, "kappa": kappa, "mu": mu,
        "words_n": CERTIFY_WORDS_N,
    }


def _bounds_item(rng: random.Random) -> dict:
    c = _rational_c(rng, BOUNDS_BITS)
    mu1, mu2 = checks.exact_interval(c)
    # The traced run times the polytope layer at this mu, inside [mu1, mu2].
    mu = ((mu1 + mu2) / 2).limit_denominator(2**BOUNDS_BITS)
    return {
        "argv": ["bounds", "--family", "main", "--c", str(c), "--max-n", str(BOUNDS_N)],
        "backend": "exact", "family": "main", "c": str(c), "mu": str(mu),
        "words_n": BOUNDS_N,
    }


def make_inputs(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify_exact":
        return [_exact_item(rng, bits, where) for bits, where in EXACT_SLOTS]
    if workload == "certify_float":
        return [_float_item(rng, fam, where) for fam, where in FLOAT_SLOTS]
    if workload == "bounds_oracle":
        return [_bounds_item(rng) for _ in range(BOUNDS_SLOTS)]
    raise ValueError(f"unknown workload {workload!r}")
