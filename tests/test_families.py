import inspect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smpverify.families import (
    DISTINGUISHED_PHI,
    NormalizedSet,
    custom_set,
    eigenvectors_from_products,
    eigenvectors_vw,
    example_alt,
    example_main,
    example_main_special,
    normalize,
    swap_pair,
)
from smpverify.matrix2 import EigenvectorError, Mat2, Vec2, spectral_radius
from smpverify.permutability import TauMap, is_irreducible, tau_word, verify_tau
from smpverify.scalar import KappaContext, Scalar
from smpverify.words import (
    Word,
    bounds_table,
    cyclic_normal_form,
    evaluate,
    factor_counts,
    necklaces,
)

C_GRID = (Fraction(11, 10), Fraction(6, 5), Fraction(13, 10))


class TestAltFamily:
    def test_entries_at_distinguished_angle(self):
        mset = example_alt(1.331, DISTINGUISHED_PHI)
        s = math.sqrt(3.0) / 2.0
        assert float(mset.a.m11) == -0.5
        assert math.isclose(float(mset.a.m12), -s / 1.331, rel_tol=1e-15)
        assert math.isclose(float(mset.a.m21), 1.331 * s, rel_tol=1e-15)

    def test_reducible_angles_flagged(self):
        # At phi = 1e-9 and 1e-12, A = [[1, -phi/kappa], [kappa phi, 1]] up to
        # rounding: its discriminant, about -4 phi^2, must not round to 0.
        for phi, reducible in (
            (0.0, True), (math.pi, True), (DISTINGUISHED_PHI, False),
            (1e-9, False), (1e-12, False),
        ):
            mset = example_alt(1.2, phi)
            assert is_irreducible(mset.a, mset.b) is not reducible

    def test_kappa_must_exceed_one(self):
        with pytest.raises(ValueError):
            example_alt(1.0, DISTINGUISHED_PHI)

    def test_tau_swaps(self):
        mset = example_alt(1.331, DISTINGUISHED_PHI)
        assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))

    def test_unit_determinant(self):
        for kappa in (1.05, 1.331, 1.9):
            for phi in (0.3, DISTINGUISHED_PHI, 2.5):
                mset = example_alt(kappa, phi)
                assert math.isclose(float(mset.a.det()), 1.0, rel_tol=1e-14)
                assert math.isclose(float(mset.b.det()), 1.0, rel_tol=1e-14)


class TestMainFamily:
    def test_matches_special_form_at_distinguished_angle(self, main_exact):
        flt = example_main(1.331, DISTINGUISHED_PHI)
        for got, want in zip(flt.a.entries(), main_exact.a.entries()):
            assert math.isclose(float(got), float(want), rel_tol=1e-14)

    def test_tau_swaps_on_general_angles(self):
        for phi in (0.5, DISTINGUISHED_PHI, 2.0):
            mset = example_main(1.25, phi)
            assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))

    def test_unit_determinant_any_parameters(self):
        for kappa in (1.1, 1.5, 3.0):
            for phi in (0.2, DISTINGUISHED_PHI):
                mset = example_main(kappa, phi)
                assert math.isclose(float(mset.a.det()), 1.0, rel_tol=1e-14)


class TestSwapPair:
    def test_exact_entries_and_swap_matrix(self):
        k = Scalar.exact(Fraction(3, 2))
        mset = swap_pair(Scalar.exact(0), k)
        assert mset.is_exact and mset.family == "main" and mset.ctx is None
        assert mset.a == Mat2.exact(0, Fraction(-2, 3), Fraction(3, 2), 0)
        assert mset.b == Mat2.exact(0, Fraction(-3, 2), Fraction(2, 3), 0)
        assert mset.tau_s == Mat2.exact(0, 1, -1, 0)
        assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))

    @pytest.mark.parametrize("t", [-2, -1, Fraction(1, 3), 1, 2])
    def test_exact_swap_identities_and_invariants(self, t):
        mset = swap_pair(Scalar.exact(t), Scalar.exact(Fraction(7, 5)))
        assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
        for m in (mset.a, mset.b):
            assert m.trace() == Scalar.exact(t) and m.det() == Scalar.exact(1)

    def test_float_unless_both_parameters_exact(self):
        for t, k in ((-1.0, 1.331), (Scalar.exact(-1), 1.331), (-1, Scalar.exact(2))):
            mset = swap_pair(t, k)
            assert not mset.is_exact
            assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))

    @pytest.mark.parametrize("k", [1.0, 0.5, float("nan"), Scalar.exact(1)])
    def test_kappa_must_exceed_one(self, k):
        with pytest.raises(ValueError, match="need kappa > 1"):
            swap_pair(Scalar.exact(-1), k)

    def test_float_pair_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="A @ B has a non-finite entry"):
            swap_pair(-1.0, 1e200)

    def test_family_constructors_are_one_call(self, ctx11, main_exact):
        assert main_exact == swap_pair(Scalar.exact(-1), ctx11.power(3), ctx11)
        for phi in (0.5, DISTINGUISHED_PHI, 2.0):
            t = -1.0 if phi == DISTINGUISHED_PHI else 2.0 * math.cos(phi)
            assert example_main(1.25, phi) == swap_pair(t, 1.25)

    def test_custom_set_takes_no_kappa(self):
        assert "kappa" not in inspect.signature(custom_set).parameters

    def test_custom_float_pair_takes_no_cube_root_context(self, ctx11, main_float):
        # kappa = c**3 would be exact on a float pair, and the certificate
        # would then fail at normalize on mixed backends.
        with pytest.raises(ValueError, match="--c applies to exact pairs only"):
            custom_set(main_float.a, main_float.b, ctx=ctx11)
        assert custom_set(main_float.a, main_float.b).ctx is None


def _reverse(w: Word) -> Word:
    return Word(tuple(reversed(w.symbols)))


class TestSwapPairTheorem:
    """The paper's claim on exact swap pairs, checked by the word oracle.

    A similarity that swaps A and B maps each word's product to that of
    its tau-image, and tr w = tr reverse(w) for any 2x2 pair, so every
    maximizer set is closed under both.  At odd length a tau-image has
    the other factor counts, so an odd SMP comes with a distinct partner.
    """

    @settings(max_examples=18, deadline=None)
    @given(
        st.sampled_from([-1, 0, 1]),
        st.fractions(min_value=1, max_value=4, max_denominator=12).filter(lambda k: k > 1),
    )
    @example(-1, Fraction(1331, 1000))
    def test_maximizers_closed_under_tau_and_reversal(self, t, k):
        mset = swap_pair(Scalar.exact(t), Scalar.exact(k))
        a, b = mset.a, mset.b
        assert mset.is_exact and verify_tau(a, b, TauMap(mset.tau_s))
        for row in bounds_table(a, b, 11):
            names = {w.display for w in row.maximizers}
            for w in row.maximizers:
                partner = cyclic_normal_form(tau_word(w))
                assert partner.display in names
                assert cyclic_normal_form(_reverse(w)).display in names
                if row.n % 2:
                    assert partner != w
                    assert factor_counts(partner) == factor_counts(w)[::-1]
        invariants = {}
        for n in range(1, 9):
            for letters in itertools.product("AB", repeat=n):
                w = Word(letters)
                p = evaluate(w, a, b)
                invariants[w] = (p.trace(), p.det())
        for w, trace_det in invariants.items():
            assert invariants[tau_word(w)] == trace_det
            assert invariants[_reverse(w)] == trace_det


class TestSpecialPair:
    def test_entries(self, main_exact):
        assert main_exact.a == Mat2.exact(
            0, Fraction(-1000, 1331), Fraction(1331, 1000), -1
        )
        assert main_exact.b == Mat2.exact(
            0, Fraction(-1331, 1000), Fraction(1000, 1331), -1
        )

    def test_requires_c_above_one(self):
        with pytest.raises(ValueError):
            example_main_special(KappaContext(Fraction(9, 10)))

    @pytest.mark.parametrize("c", C_GRID)
    def test_cube_identities(self, c):
        mset = example_main_special(KappaContext(c))
        eye = Mat2.identity_like(mset.a)
        assert mset.a @ mset.a @ mset.a == eye
        assert mset.b @ mset.b @ mset.b == eye

    @pytest.mark.parametrize("c", C_GRID)
    def test_triple_products_closed_forms(self, c):
        ctx = KappaContext(c)
        mset = example_main_special(ctx)
        kappa = ctx.power(3)
        zero = Scalar.exact(0)
        baa = evaluate(Word.from_display("BAA"), mset.a, mset.b)
        bba = evaluate(Word.from_display("BBA"), mset.a, mset.b)
        k2, inv_k2 = kappa * kappa, 1 / (kappa * kappa)
        assert baa == Mat2(k2, zero, kappa - 1 / kappa, inv_k2)
        assert bba == Mat2(k2, 1 / kappa - kappa, zero, inv_k2)
        assert baa.trace() == k2 + inv_k2
        assert baa.det() == Scalar.exact(1)

    @pytest.mark.parametrize("c", C_GRID)
    def test_lambda_annihilates_characteristic_polynomial(self, c):
        ctx = KappaContext(c)
        mset = example_main_special(ctx)
        lam = ctx.power(6)
        for display in ("BAA", "BBA"):
            m = evaluate(Word.from_display(display), mset.a, mset.b)
            assert lam * lam - m.trace() * lam + m.det() == 0

    def test_all_mixed_triples_isospectral(self, ctx11, main_exact):
        kappa = ctx11.power(3)
        expected_trace = kappa * kappa + 1 / (kappa * kappa)
        mixed = [w for w in necklaces(3) if w.display not in ("AAA", "BBB")]
        seen = set()
        for neck in mixed:
            d = neck.display
            for rotation in {d[i:] + d[:i] for i in range(3)}:
                m = evaluate(
                    Word.from_display(rotation), main_exact.a, main_exact.b
                )
                assert m.trace() == expected_trace
                assert m.det() == Scalar.exact(1)
                seen.add(rotation)
        assert len(seen) == 6


class TestNormalization:
    def test_normalized_entries_are_rational(self, ctx11, main_exact, norm_exact):
        scale_inv = Scalar.exact(Fraction(100, 121))
        assert norm_exact.at == main_exact.a.scale(scale_inv)
        assert norm_exact.lam == ctx11.power(6)

    @pytest.mark.parametrize("c", C_GRID)
    def test_normalized_cubes(self, c):
        norm = normalize(example_main_special(KappaContext(c)))
        eye = Mat2.identity_like(norm.at)
        assert norm.at @ norm.at @ norm.at == eye.scale(1 / norm.lam)
        assert norm.bt @ norm.bt @ norm.bt == eye.scale(1 / norm.lam)

    def test_normalized_triple_has_unit_radius(self, norm_exact):
        rho = spectral_radius(norm_exact.bt @ norm_exact.at @ norm_exact.at)
        assert math.isclose(float(rho), 1.0, rel_tol=1e-12)

    def test_alt_normalization_uses_its_own_lambda(self, alt_float):
        norm = normalize(alt_float)
        k2 = 1.331**2
        expected_trace = 0.5 + 0.75 * (k2 + 1 / k2)
        lam = float(norm.lam)
        assert math.isclose(
            lam * lam - expected_trace * lam + 1.0, 0.0, abs_tol=1e-12
        )
        assert math.isclose(float(norm.scale), lam ** (1 / 3), rel_tol=1e-15)

    def test_exact_needs_context(self, main_exact):
        bare = custom_set(main_exact.a, main_exact.b, tau_s=main_exact.tau_s)
        with pytest.raises(ValueError):
            normalize(bare)

    def test_non_cube_pair_rejected(self):
        a = Mat2.flt(2.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            normalize(custom_set(a, a.inverse()))


class TestFixedVectors:
    def test_closed_form_values(self, ctx11):
        v, w = eigenvectors_vw(ctx11)
        assert v == Vec2.exact(1, Fraction(1331000, 2771561))
        assert w == Vec2.exact(1, 0)

    @pytest.mark.parametrize("c", C_GRID)
    def test_residuals_vanish_exactly(self, c):
        ctx = KappaContext(c)
        norm = normalize(example_main_special(ctx))
        v, w = eigenvectors_vw(ctx)
        assert (norm.bt @ norm.at @ norm.at) @ v == v
        assert (norm.bt @ norm.bt @ norm.at) @ w == w

    @pytest.mark.parametrize("c", C_GRID)
    def test_generic_extraction_agrees_with_closed_form(self, c):
        ctx = KappaContext(c)
        norm = normalize(example_main_special(ctx))
        assert eigenvectors_from_products(norm) == eigenvectors_vw(ctx)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize(
        "entries, exact_message, float_message",
        [
            ((2, 0, 0, 2), "1 is not an eigenvalue",
             "1.0 is not an eigenvalue (residual too large)"),
            ((1, 0, 0, 1), "eigenvalue is not simple", "eigenvalue is not simple"),
            ((2, 0, 1, 1), "eigenvector is parallel to (0, 1)",
             "eigenvector is parallel to (0, 1)"),
        ],
    )
    def test_error_messages(self, exact, entries, exact_message, float_message):
        # A~ = I and a hand-made B~, so B~A~A~ = B~ and v fails first.
        make = Mat2.exact if exact else Mat2.flt
        one = Scalar.exact(1) if exact else Scalar.flt(1.0)
        norm = NormalizedSet(make(1, 0, 0, 1), make(*entries), one, one, None)
        with pytest.raises(EigenvectorError) as err:
            eigenvectors_from_products(norm)
        assert str(err.value) == (exact_message if exact else float_message)

    def test_alt_fixed_vectors_satisfy_identities(self, alt_float):
        norm = normalize(alt_float)
        v, w = eigenvectors_from_products(norm)
        image_v = (norm.bt @ norm.at @ norm.at) @ v
        image_w = (norm.bt @ norm.bt @ norm.at) @ w
        assert image_v.isclose(v, 1e-12) and image_w.isclose(w, 1e-12)
