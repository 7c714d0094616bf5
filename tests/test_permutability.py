import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from smpverify.families import DISTINGUISHED_PHI, example_alt, example_main
from smpverify.matrix2 import Mat2, similarity
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
