"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; a failed assertion both fails
the test and (via the wrapper) prints the FAIL line.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from smpverify import polytope, words
from smpverify.families import (
    DISTINGUISHED_PHI,
    eigenvectors_from_products,
    eigenvectors_vw,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from smpverify.matrix2 import Mat2
from smpverify.permutability import swap_partner, tau_word
from smpverify.scalar import KappaContext, Scalar
from smpverify.selftest import check_closed_form_tables
from smpverify.words import Word


def report(number, text):
    print(f"ACCEPT-{number} PASS: {text}")


def criterion(number, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPT-{number} FAIL: {text}")
                raise
            report(number, text)

        return run

    return wrap


@pytest.fixture(scope="module")
def ctx():
    return KappaContext(Fraction(11, 10))


@pytest.fixture(scope="module")
def exact_set(ctx):
    return example_main_special(ctx)


@criterion(1, "exact certification at c=11/10, mu=5/4")
def test_criterion_1_exact_certification(exact_set):
    start = time.perf_counter()
    cert = polytope.certify_smp(exact_set, Fraction(5, 4))
    elapsed = time.perf_counter() - start
    assert cert.passed, cert.as_text()
    assert cert.backend == "exact"
    assert cert.rho_bar == Scalar.exact(Fraction(121, 100))
    classes = [(s.representative.display, (s.count_a, s.count_b))
               for s in cert.smp_classes]
    assert classes == [("AAB", (2, 1)), ("ABB", (1, 2))]
    assert elapsed < 1.0, f"certification took {elapsed:.3f}s"


@criterion(2, "threshold table at kappa=1.331")
def test_criterion_2_thresholds(ctx):
    mu0, mu1, mu2, mu3 = polytope.mu_thresholds(ctx)
    assert mu0 == Scalar.exact(1)
    assert mu1 == Scalar.exact(Fraction(121, 100))
    assert abs(float(mu2) - 1.299757) <= 1e-6
    assert abs(float(mu3) - 1.572706) <= 1e-6


@criterion(3, "kappa_max for both families in closed form")
def test_criterion_3_kappa_max():
    assert abs(float(polytope.kappa_max("main")) - 1.447892) <= 1e-5
    assert abs(float(polytope.kappa_max("alt")) - 1.528580) <= 1e-5


@criterion(4, "alt-family float certification and thresholds")
def test_criterion_4_alt_family():
    mset = example_alt(1.331, DISTINGUISHED_PHI)
    cert = polytope.certify_smp(mset, 1.07, 1e-9)
    assert cert.passed, cert.as_text()
    got = [float(x) for x in polytope.empirical_mu_thresholds(mset)]
    expected = (0.874539, 1.032076, 1.143460, 1.349441)
    for value, target in zip(got, expected):
        assert abs(value - target) <= 1e-5, (value, target)


@criterion(5, "negative controls report the failing check")
def test_criterion_5_negative_controls():
    mset = example_main(1.331, DISTINGUISHED_PHI)
    nonconvex = polytope.certify_smp(mset, 1.04)
    assert not nonconvex.passed
    assert nonconvex.first_failure.name == "convexity"
    escaping = polytope.certify_smp(mset, 1.36)
    assert not escaping.passed
    assert escaping.first_failure.name == "inclusions"
    assert "b3" in escaping.first_failure.detail


@criterion(6, "brute-force oracle agrees with the certificate")
def test_criterion_6_oracle_agreement(exact_set, ctx):
    for n in range(1, 10):
        row = words.rho_bar_n(exact_set.a, exact_set.b, n)
        assert row.rho_bar <= 1.21 + 1e-12, (n, row.rho_bar)
        if n == 3:
            assert abs(row.rho_bar - 1.21) <= 1e-12
            assert [w.display for w in row.maximizers] == ["AAB", "ABB"]
    norm = normalize(exact_set)
    v, w = eigenvectors_from_products(norm)
    poly = polytope.build_polygon(norm, v, w, Scalar.exact(Fraction(5, 4)))
    for n in range(1, 7):
        val = float(words.rho_n(exact_set.a, exact_set.b, n, norm=poly))
        assert abs(val - 1.21) <= 1e-9, (n, val)


@criterion(7, "symbolic tables match the implementation exactly")
def test_criterion_7_closed_form_tables():
    names = check_closed_form_tables(Fraction(11, 10), Fraction(5, 4))
    assert sum(1 for n in names if n.startswith("order.")) == 15
    assert sum(1 for n in names if n.startswith(("s.", "t."))) == 8
    assert sum(1 for n in names if n.startswith("h.v")) == 4
    assert sum(1 for n in names if n.startswith("omega.")) == 6


@criterion(8, "swap-image property suite over 1000 random odd words")
def test_criterion_8_swap_property_suite(exact_set):
    rng = random.Random(1331)
    failures = 0
    for _ in range(1000):
        length = rng.choice(range(3, 16, 2))
        w = Word.from_display("".join(rng.choice("AB") for _ in range(length)))
        m, image = (words.evaluate(x, exact_set.a, exact_set.b) for x in (w, tau_word(w)))
        partner = swap_partner(w)
        if not (
            m.trace() == image.trace()
            and m.det() == image.det()
            and partner is not None
            and words.factor_counts(partner) == words.factor_counts(w)[::-1]
            and partner != words.cyclic_normal_form(w)
        ):
            failures += 1
    assert failures == 0


@criterion(9, "structural identities at three rational parameter values")
def test_criterion_9_structural_identities():
    for c in (Fraction(11, 10), Fraction(6, 5), Fraction(13, 10)):
        ctx = KappaContext(c)
        mset = example_main_special(ctx)
        a, b = mset.a, mset.b
        eye = Mat2.identity_like(a)
        kappa = ctx.power(3)
        assert a @ a @ a == eye and b @ b @ b == eye
        norm = normalize(mset)
        scaled_eye = eye.scale(1 / norm.lam)
        assert norm.at @ norm.at @ norm.at == scaled_eye
        assert norm.bt @ norm.bt @ norm.bt == scaled_eye
        zero = Scalar.exact(0)
        k2, inv_k2 = kappa * kappa, 1 / (kappa * kappa)
        assert b @ a @ a == Mat2(k2, zero, kappa - 1 / kappa, inv_k2)
        assert b @ b @ a == Mat2(k2, 1 / kappa - kappa, zero, inv_k2)
        v, w = eigenvectors_vw(ctx)
        assert (norm.bt @ norm.at @ norm.at) @ v == v
        assert (norm.bt @ norm.bt @ norm.at) @ w == w
