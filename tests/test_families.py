import math
from fractions import Fraction

import pytest

from smpverify.families import (
    DISTINGUISHED_PHI,
    custom_set,
    eigenvectors_from_products,
    eigenvectors_vw,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from smpverify.matrix2 import Mat2, Vec2, spectral_radius
from smpverify.permutability import TauMap, is_irreducible, verify_tau
from smpverify.scalar import KappaContext, Scalar
from smpverify.words import Word, evaluate, necklaces

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

    def test_alt_fixed_vectors_satisfy_identities(self, alt_float):
        norm = normalize(alt_float)
        v, w = eigenvectors_from_products(norm)
        image_v = (norm.bt @ norm.at @ norm.at) @ v
        image_w = (norm.bt @ norm.bt @ norm.at) @ w
        assert image_v.isclose(v, 1e-12) and image_w.isclose(w, 1e-12)
