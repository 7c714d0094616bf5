import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from smpverify import matrix2
from smpverify.families import DISTINGUISHED_PHI, example_alt, example_main, swap_pair
from smpverify.matrix2 import Mat2, mul_entries, similarity
from smpverify.permutability import (
    ReducibleSetError,
    TauMap,
    friedland_5tuple,
    friedland_permutable,
    is_irreducible,
    tau_word,
    swap_spectrum_check,
    verify_tau,
)
from smpverify.scalar import BackendMismatchError, Scalar, allclose
from smpverify.words import Word, evaluate


def alt_pair(kappa, phi):
    mset = example_alt(kappa, phi)
    return mset.a, mset.b


class TestIrreducibility:
    @pytest.mark.parametrize("t", [2, -2])
    def test_exact_main_pair_irreducible_at_phi_0_and_pi(self, t):
        # Eigendirections (1, -kappa) of A and (1, -1/kappa) of B differ;
        # the float pairs at phi 0 and pi are in check_irreducibility.
        kappa = Fraction(6, 5)
        a = Mat2.exact(0, -1 / kappa, kappa, t)
        b = Mat2.exact(0, -kappa, 1 / kappa, t)
        assert is_irreducible(a, b)

    def test_exact_complex_spectrum_is_irreducible(self, main_exact):
        assert is_irreducible(main_exact.a, main_exact.b)

    def test_exact_shared_rational_direction(self):
        a = Mat2.exact(2, 0, 0, 3)
        b = Mat2.exact(1, 1, 0, 1)  # shares the invariant line through (1, 0)
        assert not is_irreducible(a, b)
        c = Mat2.exact(1, 0, 1, 1)  # its only invariant line is (0, 1)
        assert is_irreducible(b, c)

    def test_exact_irrational_directions(self):
        a = Mat2.exact(0, 1, 1, 1)  # eigenvalues (1 +- sqrt(5))/2
        assert not is_irreducible(a, a @ a)  # a power shares every eigenvector
        b = Mat2.exact(1, 2, 3, 4)
        assert is_irreducible(a, b)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
positive = st.fractions(min_value=0, max_value=6, max_denominator=6).filter(bool)
matrices = st.tuples(rationals, rationals, rationals, rationals)


def discriminant(m):
    m11, m12, m21, m22 = m
    return (m11 - m22) ** 2 + 4 * m12 * m21


class TestExactCriterion:
    @given(matrices, matrices, matrices)
    def test_simultaneously_triangularized_pairs_are_reducible(self, s, t1, t2):
        s = Mat2.exact(*s)
        assume(s.det() != 0)
        # s^-1 e1 is an eigenvector of both conjugated triangular matrices.
        a = similarity(s, Mat2.exact(t1[0], t1[1], 0, t1[3]))
        b = similarity(s, Mat2.exact(t2[0], t2[1], 0, t2[3]))
        assert not is_irreducible(a, b)

    @given(rationals, rationals, rationals.filter(bool), positive, matrices)
    def test_non_real_spectrum_is_irreducible(self, m11, m22, m12, e, b):
        # m21 makes the discriminant of a equal to -e < 0.
        a = (m11, m12, -((m11 - m22) ** 2 + e) / (4 * m12), m22)
        assert discriminant(a) < 0
        assert is_irreducible(Mat2.exact(*a), Mat2.exact(*b))
        assert is_irreducible(Mat2.exact(*b), Mat2.exact(*a))

    @given(matrices, rationals, rationals)
    def test_affine_image_irreducible_iff_non_real_spectrum(self, a, alpha, beta):
        b = (alpha * a[0] + beta, alpha * a[1], alpha * a[2], alpha * a[3] + beta)
        got = is_irreducible(Mat2.exact(*a), Mat2.exact(*b))
        assert got == (discriminant(a) < 0)


class TestFriedland:
    def test_five_traces_of_special_pair(self, main_exact, ctx11):
        t = friedland_5tuple(main_exact.a, main_exact.b)
        minus_one = -1
        assert t[0] == minus_one and t[2] == minus_one
        # tr(m^2) = tr(m)^2 - 2 det(m) = 1 - 2 = -1.
        assert t[1] == minus_one and t[3] == minus_one
        kappa = ctx11.power(3)
        k2 = kappa * kappa
        assert t[4] == 1 - k2 - 1 / k2

    def test_trivial_tuples(self):
        eye = Mat2.exact(1, 0, 0, 1)
        assert all(x == 2 for x in friedland_5tuple(eye, eye))
        a = Mat2.exact(1, 2, 3, 4)
        t = friedland_5tuple(a, a)
        assert (t[0], t[1]) == (t[2], t[3])

    def test_identical_matrices_rejected(self, main_exact):
        with pytest.raises(ValueError):
            friedland_permutable(main_exact.a, main_exact.a)

    def test_reducible_pair_is_inapplicable(self):
        a = Mat2.exact(2, 0, 0, 3)
        b = Mat2.exact(1, 1, 0, 1)  # shares the invariant line through (1, 0)
        with pytest.raises(ReducibleSetError):
            friedland_permutable(a, b)

    def test_identical_pair_hits_the_precondition_first(self):
        # At phi = 0 the rotation pair degenerates to {I, I}.
        with pytest.raises(ValueError, match="distinct"):
            friedland_permutable(*alt_pair(1.2, 0.0))

    def test_mismatched_invariants_fail(self, main_exact):
        scaled = main_exact.a.scale(type(main_exact.a.m11).exact(2))
        assert not friedland_permutable(main_exact.a, scaled)

    def test_criterion_matches_explicit_tau_on_grid(self):
        for step in range(9):  # kappa = 1.05 .. 1.45
            kappa = 1.05 + 0.05 * step
            for build in (example_alt, example_main):
                mset = build(kappa, DISTINGUISHED_PHI)
                assert friedland_permutable(mset.a, mset.b)
                assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))


def scaled_pair(entries, k):
    """The float pair of the eight entries, each times 2**k (exactly)."""
    a, b = (Mat2.flt(*(math.ldexp(x, k) for x in entries[i:i + 4])) for i in (0, 4))
    return a, b


class TestScaleFreeFloatPredicates:
    """A float pair's verdicts do not change when the pair is scaled by a
    power of two, which rounds nothing."""

    def test_criterion_fails_a_non_permutable_pair_at_every_scale(self):
        # tr A = 0 and tr B = 1e-13: the pair is not permutable, however
        # small its entries.
        entries = (0.0, -1e-13, 1e-13, 0.0, 0.0, -2e-13, 1e-13, 1e-13)
        verdicts = {friedland_permutable(*scaled_pair(entries, k)) for k in range(-60, 61)}
        assert verdicts == {False}

    def test_irreducible_pair_is_irreducible_at_every_scale(self):
        # A is diagonal; B leaves neither axis invariant and shares no
        # eigendirection with A.
        entries = (1e-13, 0.0, 0.0, 2e-13, 3e-13, 1e-13, 1e-13, 5e-13)
        verdicts = {is_irreducible(*scaled_pair(entries, k)) for k in range(-60, 61)}
        assert verdicts == {True}


class TestTau:
    def test_tau_is_multiplicative_on_products(self, main_exact):
        tau = TauMap(main_exact.tau_s)
        rng = random.Random(99)
        for _ in range(50):
            text = "".join(rng.choice("AB") for _ in range(rng.randint(1, 8)))
            w = Word.from_display(text)
            lhs = tau.apply(evaluate(w, main_exact.a, main_exact.b))
            rhs = evaluate(tau_word(w), main_exact.a, main_exact.b)
            assert lhs == rhs


    @pytest.mark.parametrize("exact", [True, False])
    def test_singular_swap_matrix_swaps_nothing(self, main_exact, main_float, exact):
        mset = main_exact if exact else main_float
        singular = Mat2.exact(1, 1, 1, 1) if exact else Mat2.flt(1.0, 2.0, 0.5, 1.0)
        assert not verify_tau(mset.a, mset.b, TauMap(singular))


def conjugation_reference(a: Mat2, b: Mat2, s: Mat2) -> bool:
    """The swap identities by conjugation: S^-1 a S and S^-1 b S, formed
    through Mat2.inverse, against b and a within the default tolerance."""
    return similarity(s, a).isclose(b) and similarity(s, b).isclose(a)


def exact_conjugation_error(a: Mat2, b: Mat2, s: Mat2) -> float:
    """The largest |entry| of S^-1 a S - b and S^-1 b S - a, in Fractions
    of the float entries (no rounding), over max(1, |a|, |b|)."""
    fa, fb, fs = (Mat2.exact(*map(Fraction, m._values())) for m in (a, b, s))
    errors = [
        x - y
        for p, m in ((similarity(fs, fa), fb), (similarity(fs, fb), fa))
        for x, y in zip(p._values(), m._values())
    ]
    scale = max(1, *map(abs, fa._values() + fb._values()))
    return float(max(map(abs, errors)) / scale)


def products_close(a: Mat2, b: Mat2, s: Mat2) -> bool:
    """a S == S b and b S == S a on float products within the default
    tolerance: a test of the backward error only."""
    ai, bi, si = (m._values() for m in (a, b, s))
    return allclose(mul_entries(ai, si), mul_entries(si, bi)) and allclose(
        mul_entries(bi, si), mul_entries(si, ai)
    )


# (kappa, phi) of main pairs whose swap matrix is near singular: det S is
# about 1e-8 at kappa 1.0001 and 1e-4 at kappa 1.01.
NEAR_SINGULAR_MAIN = [
    (kappa, phi)
    for kappa in (1.0001, 1.01)
    for phi in (1e-9, math.pi - 1e-9)
]


class TestOneSwapTest:
    """verify_tau forms the residuals a S - S b and b S - S a exactly, on
    both backends, bounds them against det S, and never forms S^-1."""

    @pytest.mark.parametrize("exact", [True, False])
    def test_no_product_inverse_or_similarity(self, monkeypatch, main_exact, main_float, exact):
        mset = main_exact if exact else main_float

        def refuse(*args):
            raise AssertionError("verify_tau went through Mat2 arithmetic")

        monkeypatch.setattr(Mat2, "__matmul__", refuse)
        monkeypatch.setattr(Mat2, "inverse", refuse)
        monkeypatch.setattr(matrix2, "similarity", refuse)
        monkeypatch.setattr(TauMap, "apply", refuse)
        eye = Mat2.identity_like(mset.a)
        singular = Mat2.exact(1, 1, 1, 1) if exact else Mat2.flt(1.0, 2.0, 0.5, 1.0)
        assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
        assert not verify_tau(mset.a, mset.b, TauMap(eye))
        assert not verify_tau(mset.a, mset.b, TauMap(singular))

    @pytest.mark.parametrize("exact", [True, False])
    def test_verdict_does_not_depend_on_the_scale_of_s(self, main_exact, main_float, exact):
        # The identities are homogeneous in S; the float tolerance, absolute
        # near 0, must not accept a tiny multiple of I or reject a large S.
        mset = main_exact if exact else main_float
        eye = Mat2.identity_like(mset.a)
        for k in (Fraction(1, 10**13), Fraction(1, 10**6), 10**6, 10**12):
            factor = Scalar.exact(k) if exact else Scalar.flt(float(k))
            assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s.scale(factor)))
            assert not verify_tau(mset.a, mset.b, TauMap(eye.scale(factor)))

    @pytest.mark.parametrize("build", [example_alt, example_main])
    def test_float_grid_matches_conjugation(self, build):
        for kappa in (1.05, 1.2, 1.331, 1.7, 2.5, 10.0):
            for phi in (0.0, 0.4, 1.0, DISTINGUISHED_PHI, 2.5, math.pi):
                mset = build(kappa, phi)
                got = verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
                assert got and got == conjugation_reference(mset.a, mset.b, mset.tau_s)

    def test_random_float_swaps_match_conjugation(self):
        # A traceless S squares to -det(S) I, so S swaps a with S^-1 a S.
        # |det S| stays above 1/4, and a perturbed b is off by at least 1e-9
        # per entry, far outside the tolerance: both tests must then agree.
        rng = random.Random(2407)
        verdicts = set()
        for _ in range(300):
            while True:
                p, q, r = (rng.uniform(-2, 2) for _ in range(3))
                if abs(p * p + q * r) > 0.25:
                    break
            s = Mat2.flt(p, q, r, -p)
            a = Mat2.flt(*(rng.uniform(-2, 2) for _ in range(4)))
            eps = rng.choice((0.0, 1e-9))
            b = Mat2.flt(*(
                e.value + eps * rng.choice((-1, 1)) * (1 + rng.random())
                for e in similarity(s, a).entries()
            ))
            got = verify_tau(a, b, TauMap(s))
            assert got == conjugation_reference(a, b, s)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_random_ill_conditioned_swaps_match_exact_conjugation(self):
        # |det S| / max|S|**2 in [1e-3, 1e-1]: b is S^-1 a S rounded once,
        # or that times 1 +- 1e-7 or more per entry.  The reference is the
        # exact conjugation error of the floats, which a pass bounds by
        # rel_tol max(1, |a|, |b|).
        rng = random.Random(2410)
        verdicts = set()
        for _ in range(200):
            while True:
                p, q, r = (rng.uniform(-2, 2) for _ in range(3))
                if 1e-3 < abs(p * p + q * r) / max(abs(p), abs(q), abs(r)) ** 2 < 1e-1:
                    break
            s = Mat2.flt(p, q, r, -p)
            a = Mat2.flt(*(rng.uniform(-2, 2) for _ in range(4)))
            exact = similarity(*(Mat2.exact(*map(Fraction, m._values())) for m in (s, a)))
            eps = rng.choice((0.0, 1e-7))
            b = Mat2.flt(*(
                float(e.value) * (1 + eps * rng.choice((-1, 1)) * (1 + rng.random()))
                for e in exact.entries()
            ))
            got = verify_tau(a, b, TauMap(s))
            assert got == (exact_conjugation_error(a, b, s) <= 1e-12)
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kappa, phi", NEAR_SINGULAR_MAIN)
    def test_near_singular_float_pair_misses_the_swap(self, kappa, phi):
        # The swap of the pair is unique up to scale and has det S near 0,
        # and the rounded float pair misses it by about cond(S) * eps: its
        # exact conjugation error, over max(1, |a|, |b|) = 2, is 2.5e-9 at
        # kappa 1.0001 and 9.9e-13 at 1.01, where it sits at the tolerance
        # and the test, conservative by cond(S), fails it.  The trace/det
        # criterion passes, and the exact pair of the same t = +-2 and kappa
        # is swapped.
        mset = example_main(kappa, phi)
        error = exact_conjugation_error(mset.a, mset.b, mset.tau_s)
        assert error > (1e-9 if kappa == 1.0001 else 9e-13)
        assert not verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
        assert friedland_permutable(mset.a, mset.b)
        t = round(2 * math.cos(phi))
        exact = swap_pair(Scalar.exact(t), Scalar.exact(Fraction(kappa)))
        assert verify_tau(exact.a, exact.b, TauMap(exact.tau_s))

    @pytest.mark.parametrize("kappa, size", [(1.0001, 1e-5), (1.0001, 1e-6), (1.05, 1e-10)])
    def test_error_hidden_by_a_near_singular_s_is_rejected(self, kappa, size):
        # S = [[d, 1], [-1, -d]] maps u = (1, -d) near 0, and v = (1, 1) has
        # v^T S near 0.  b + size * u v^T keeps a S - S b and b S - S a
        # within the tolerance, but is off from S^-1 a S by size.
        mset = example_main(kappa, 1e-9)
        d = mset.tau_s.m11.value
        if kappa == 1.05:
            assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
        b11, b12, b21, b22 = mset.b._values()
        b = Mat2.flt(b11 + size, b12 + size, b21 - size * d, b22 - size * d)
        assert products_close(mset.a, b, mset.tau_s)
        assert exact_conjugation_error(mset.a, b, mset.tau_s) > size / 10
        assert not verify_tau(mset.a, b, TauMap(mset.tau_s))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_entry_fails(self, main_float, bad):
        s = main_float.tau_s
        assert not verify_tau(main_float.a, main_float.b, TauMap(Mat2.flt(bad, 1.0, -1.0, 0.5)))
        b11, b12, b21, b22 = main_float.b._values()
        assert not verify_tau(main_float.a, Mat2.flt(b11, b12, b21, bad), TauMap(s))

    @pytest.mark.parametrize("odd", [0, 1, 2])
    def test_mixed_backends_raise(self, main_exact, main_float, odd):
        args = [main_exact.a, main_exact.b, main_exact.tau_s]
        args[odd] = (main_float.a, main_float.b, main_float.tau_s)[odd]
        with pytest.raises(BackendMismatchError, match="cannot combine exact and float values"):
            verify_tau(args[0], args[1], TauMap(args[2]))


class TestSwapSpectrumReport:
    def test_odd_word_report(self, main_exact):
        tau = TauMap(main_exact.tau_s)
        rep = swap_spectrum_check(
            main_exact.a, main_exact.b, tau, Word.from_display("BAA")
        )
        assert rep.passed
        assert rep.counts == (2, 1) and rep.image_counts == (1, 2)
        assert rep.normal_forms_distinct

    def test_even_word_skips_count_clause(self, main_exact):
        tau = TauMap(main_exact.tau_s)
        rep = swap_spectrum_check(
            main_exact.a, main_exact.b, tau, Word.from_display("AB")
        )
        assert rep.passed
        assert rep.counts_differ is None and rep.normal_forms_distinct is None

    def test_longer_odd_word(self, main_exact):
        tau = TauMap(main_exact.tau_s)
        rep = swap_spectrum_check(
            main_exact.a, main_exact.b, tau, Word.from_display("BBABA")
        )
        assert rep.counts == (2, 3) and rep.image_counts == (3, 2)
        assert rep.passed

    def test_bad_tau_rejected(self, main_exact):
        eye = Mat2.identity_like(main_exact.a)
        with pytest.raises(ValueError):
            swap_spectrum_check(
                main_exact.a, main_exact.b, TauMap(eye), Word.from_display("BAA")
            )
