import math
import random

import pytest

from smpverify.families import DISTINGUISHED_PHI, example_alt, example_main
from smpverify.matrix2 import Mat2
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
    def test_rotation_pair_irreducible_off_axis(self):
        assert is_irreducible(*alt_pair(1.2, math.pi / 3))

    def test_rotation_pair_reducible_at_zero(self):
        assert not is_irreducible(*alt_pair(1.2, 0.0))

    def test_identity_pair_reducible(self):
        eye = Mat2.exact(1, 0, 0, 1)
        assert not is_irreducible(eye, eye)

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

    def test_permutable_for_special_pair(self, main_exact):
        assert friedland_permutable(main_exact.a, main_exact.b)

    def test_permutable_for_rotation_pair(self):
        assert friedland_permutable(*alt_pair(1.2, math.pi / 3))

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
    def test_rotation_similarity_swaps(self, alt_float):
        assert verify_tau(alt_float.a, alt_float.b, TauMap(alt_float.tau_s))

    def test_zero_corner_similarity_swaps(self, main_exact):
        assert verify_tau(main_exact.a, main_exact.b, TauMap(main_exact.tau_s))

    def test_identity_does_not_swap(self, main_exact):
        eye = Mat2.identity_like(main_exact.a)
        assert not verify_tau(main_exact.a, main_exact.b, TauMap(eye))

    def test_tau_word_examples(self):
        assert tau_word(Word.from_display("BAA")).display == "ABB"
        assert tau_word(Word.from_display("AAA")).display == "BBB"
        assert tau_word(Word.from_display("AB")).display == "BA"

    def test_tau_is_multiplicative_on_products(self, main_exact):
        tau = TauMap(main_exact.tau_s)
        rng = random.Random(99)
        for _ in range(50):
            text = "".join(rng.choice("AB") for _ in range(rng.randint(1, 8)))
            w = Word.from_display(text)
            lhs = tau.apply(evaluate(w, main_exact.a, main_exact.b))
            rhs = evaluate(tau_word(w), main_exact.a, main_exact.b)
            assert lhs == rhs


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
