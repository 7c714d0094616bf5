import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smpverify.matrix2 import (
    EigenvectorError,
    Mat2,
    SingularMatrixError,
    Vec2,
    dot,
    eigenvector_unit_first,
    radius_from_invariants,
    radius_of_ratios,
    similarity,
    spectral_radius,
)
from smpverify.scalar import BackendMismatchError, Scalar

# The least positive normal float.
NORMAL = 2.0**-1022

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def exact_mats(draw_tuple):
    return Mat2.exact(*draw_tuple)


class TestProducts:
    def test_identity_neutral(self, main_exact):
        eye = Mat2.identity_like(main_exact.a)
        assert eye @ main_exact.a == main_exact.a

    def test_triple_product_closed_form(self, ctx11, main_exact):
        kappa = ctx11.power(3)
        baa = main_exact.b @ (main_exact.a @ main_exact.a)
        assert baa == Mat2(
            kappa * kappa, Scalar.exact(0), kappa - 1 / kappa, 1 / (kappa * kappa)
        )

    def test_backend_mismatch_rejected(self):
        with pytest.raises(TypeError):
            Mat2(Scalar.exact(1), Scalar.flt(0.0), Scalar.exact(0), Scalar.exact(1))

    @given(
        st.tuples(*(small_fractions,) * 4), st.tuples(*(small_fractions,) * 4)
    )
    def test_det_multiplicative_trace_commutes(self, me, ne):
        m, n = exact_mats(me), exact_mats(ne)
        assert (m @ n).det() == m.det() * n.det()
        assert (m @ n).trace() == (n @ m).trace()
        assert (m @ m).trace() == m.trace() * m.trace() - 2 * m.det()


class TestSpectralRadius:
    def test_identity(self):
        assert float(spectral_radius(Mat2.exact(1, 0, 0, 1))) == 1.0

    def test_triple_product_value(self, main_exact):
        rho = spectral_radius(main_exact.b @ main_exact.a @ main_exact.a)
        assert math.isclose(float(rho), 1.771561, rel_tol=1e-12)

    def test_complex_pair_on_unit_circle(self, main_exact):
        # trace -1, det 1: the characteristic polynomial is x^2 + x + 1.
        assert float(spectral_radius(main_exact.a)) == 1.0

    def test_radius_squared_is_det_for_complex_pairs(self):
        m = Mat2.exact(1, -3, 1, 1)  # trace 2, det 4, disc -12
        r = float(spectral_radius(m))
        assert math.isclose(r * r, float(m.det()), rel_tol=1e-12)

    def test_double_eigenvalue(self):
        shear = Mat2.exact(1, 1, 0, 1)
        assert float(spectral_radius(shear)) == 1.0

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(20240811)
        for _ in range(200):
            entries = rng.uniform(-3, 3, size=4)
            m = Mat2.flt(*entries)
            expected = max(abs(np.linalg.eigvals(entries.reshape(2, 2))))
            assert math.isclose(float(spectral_radius(m)), expected, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "entries, radius",
        [
            ((10**400, 0, 0, 1), None),
            ((0, 10**200, -(10**200), 0), 1e200),
            ((10**200, 0, 0, 1), 1e200),
        ],
        ids=["trace", "determinant", "discriminant"],
    )
    def test_exact_invariant_beyond_float_range_is_a_value_error(self, entries, radius):
        # Only a radius beyond float range is an error; an invariant beyond
        # it, with the radius in range, still gives the radius.
        if radius is None:
            with pytest.raises(ValueError, match="leaves the float range"):
                spectral_radius(Mat2.exact(*entries))
        else:
            assert float(spectral_radius(Mat2.exact(*entries))) == radius

    def test_float_radius_whose_square_overflows(self):
        # t * t = 1e400 is past the float range; the radius 1e200 is not.
        assert spectral_radius(Mat2.flt(1e200, 0.0, 0.0, 1.0)).value == 1e200

    def test_exact_determinant_below_float_range(self):
        # det = 3e-400 and the discriminant 1e-400 round to 0.0; the
        # scaled invariants keep them.
        tiny = Fraction(1, 10**200)
        assert spectral_radius(Mat2.exact(tiny, 0, 0, 3 * tiny)).value == 3e-200
        assert spectral_radius(Mat2.exact(0, -tiny, tiny, 0)).value == 1e-200

    # Quarter integers, so that every product and sum of the scaled
    # entries is exact, subnormal ones included.
    quarters = st.lists(st.integers(-12, 12).map(lambda x: x / 4), min_size=4, max_size=4)

    @settings(max_examples=80, deadline=None)
    @given(quarters, st.integers(-520, 509))
    @example([3.0, 3.0, 3.0, -3.0], 509)
    @example([0.25, 0.0, 0.0, 0.75], -520)
    def test_float_radius_scales_bit_for_bit(self, entries, k):
        # 2**k M has the trace and determinant of M times 2**k and 4**k,
        # exactly; where t * t or the discriminant over- or underflows, the
        # radius comes from invariants scaled back, with the bits of M's.
        m = Mat2.flt(*entries)
        scaled = Mat2.flt(*(math.ldexp(x, k) for x in entries))
        assert spectral_radius(scaled).value == math.ldexp(spectral_radius(m).value, k)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e200, 1e200, allow_subnormal=False), min_size=4, max_size=4))
    @example([1e-100, 2.0, -3.0, 1e100])
    def test_float_radius_keeps_the_plain_formula_bits(self, entries):
        # Where no step of the plain formula leaves the normal float range,
        # the scaled formula gives its bits.
        m = Mat2.flt(*entries)
        t, d = m.trace().value, m.det().value
        disc = t * t - 4 * d
        # t * t is the one step that can round below the normal range: 4 d
        # is exact there, and so is a difference that lands there.
        if (t == 0 or NORMAL <= t * t) and abs(4 * d) < math.inf and abs(disc) < math.inf:
            plain = radius_from_invariants(t, d, disc if disc >= 0 else None)
            assert spectral_radius(m).value == plain

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-(2**1100), 2**1100), st.integers(-(2**1100), 2**1100),
           st.integers(1, 2**600))
    @example(3, -(2**900), 2**400)
    def test_ratio_radius_keeps_the_plain_formula_bits(self, t, d, f):
        # Where each quotient t / f, d / f**2 and disc / f**2 is exactly 0
        # or a normal float, the scaled ratios give the bits of the plain ones.
        f2, disc = f * f, t * t - 4 * d
        try:
            quotients = (t / f, d / f2, disc / f2)
        except OverflowError:
            return
        if all(n == 0 or NORMAL <= abs(x) for n, x in zip((t, d, disc), quotients)):
            plain = radius_from_invariants(t / f, d / f2, disc / f2 if disc >= 0 else None)
            assert radius_of_ratios(t, d, f, f2) == plain

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-12, 12).map(lambda x: x / 4), min_size=2, max_size=2),
           st.booleans(), st.integers(-1072, 509))
    @example([0.25, 0.0], True, -1072)
    @example([3.0, -1.0], False, -566)
    def test_float_singular_radius_scales_bit_for_bit(self, row, first, k):
        # With one zero row the determinant is exactly 0 at every scale, and
        # each entry times 2**k is exact down to 2**-1074, so the radius,
        # |trace|, stays exact where t * t underflows to 0.
        entries = [*row, 0.0, 0.0] if first else [0.0, 0.0, *row]
        m = Mat2.flt(*entries)
        scaled = Mat2.flt(*(math.ldexp(x, k) for x in entries))
        assert spectral_radius(m).value == abs(m.trace().value)
        assert spectral_radius(scaled).value == math.ldexp(spectral_radius(m).value, k)

    @settings(max_examples=80, deadline=None)
    @given(quarters, st.integers(-1000, 1000))
    @example([3.0, 3.0, 3.0, -3.0], 1000)
    @example([0.25, 0.0, 0.0, 0.75], -1000)
    def test_exact_radius_scales_bit_for_bit(self, entries, k):
        m = Mat2.exact(*(Fraction(x) for x in entries))
        scaled = Mat2.exact(*(Fraction(x) * Fraction(2) ** k for x in entries))
        assert spectral_radius(scaled).value == math.ldexp(spectral_radius(m).value, k)

    def test_exact_branch_against_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            nums = rng.integers(-9, 10, size=4)
            m = Mat2.exact(*(Fraction(int(x), 3) for x in nums))
            arr = np.array([[float(e) for e in row] for row in
                            ((m.m11, m.m12), (m.m21, m.m22))])
            expected = max(abs(np.linalg.eigvals(arr)))
            assert math.isclose(
                float(spectral_radius(m)), expected, rel_tol=1e-9, abs_tol=1e-12
            )


class TestSimilarity:
    def test_singular_rejected(self, main_exact):
        with pytest.raises(SingularMatrixError):
            similarity(Mat2.exact(1, 2, 2, 4), main_exact.a)


class TestEigenvectorUnitFirst:
    def test_fixed_vector_of_baa(self, ctx11, norm_exact):
        m = norm_exact.bt @ norm_exact.at @ norm_exact.at
        v = eigenvector_unit_first(m, Scalar.exact(1))
        kappa = ctx11.power(3)
        assert v == Vec2(Scalar.exact(1), kappa / (1 + kappa * kappa))
        assert v.x2.as_fraction() == Fraction(1331000, 2771561)

    def test_fixed_vector_of_bba(self, norm_exact):
        m = norm_exact.bt @ norm_exact.bt @ norm_exact.at
        w = eigenvector_unit_first(m, Scalar.exact(1))
        assert w == Vec2.exact(1, 0)

    def test_non_simple_eigenvalue_rejected(self):
        with pytest.raises(EigenvectorError):
            eigenvector_unit_first(Mat2.exact(1, 0, 0, 1), Scalar.exact(1))

    def test_not_an_eigenvalue_rejected(self, main_exact):
        with pytest.raises(EigenvectorError):
            eigenvector_unit_first(main_exact.a, Scalar.exact(5))

    def test_degenerate_direction_rejected(self):
        m = Mat2.exact(2, 0, 1, 1)  # eigenvector for 1 is (0, 1)
        with pytest.raises(EigenvectorError):
            eigenvector_unit_first(m, Scalar.exact(1))

    @pytest.mark.parametrize("make", [Mat2.exact, Mat2.flt])
    @pytest.mark.parametrize(
        "entries, lam, exact_message, float_message",
        [
            ((2, 0, 0, 2), 1, "1 is not an eigenvalue",
             "1.0 is not an eigenvalue (residual too large)"),
            ((1, 0, 0, 2), Fraction(3, 2), "3/2 is not an eigenvalue",
             "1.5 is not an eigenvalue (residual too large)"),
            ((1, 0, 0, 1), 1, "eigenvalue is not simple", "eigenvalue is not simple"),
            ((1, 5, 0, 1), 1, "eigenvalue is not simple", "eigenvalue is not simple"),
            ((2, 0, 1, 1), 1, "eigenvector is parallel to (0, 1)",
             "eigenvector is parallel to (0, 1)"),
        ],
    )
    def test_error_messages(self, make, entries, lam, exact_message, float_message):
        m = make(*entries)
        message = exact_message if m.is_exact else float_message
        lam = Scalar.exact(lam) if m.is_exact else Scalar.flt(lam)
        with pytest.raises(EigenvectorError) as err:
            eigenvector_unit_first(m, lam)
        assert str(err.value) == message

    def test_float_backend(self, main_float):
        lam = float(spectral_radius(main_float.b @ main_float.a @ main_float.a))
        m = (main_float.b @ main_float.a @ main_float.a).scale(
            Scalar.flt(1.0 / lam)
        )
        v = eigenvector_unit_first(m, Scalar.flt(1.0))
        assert math.isclose(float(v.x2), 1.331 / (1 + 1.331**2), rel_tol=1e-12)


class TestSerialization:
    def test_row_major_strings(self, main_exact):
        strings = main_exact.a.as_strings()
        assert strings == ("0", "-1000/1331", "1331/1000", "-1")
        assert Mat2.exact(*strings) == main_exact.a


class NoArithmetic(Fraction):
    """A Fraction that fails any product it enters."""

    def __mul__(self, other):
        raise AssertionError("arithmetic ran")

    __rmul__ = __mul__


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _hex(values):
    return tuple(float.hex(v) for v in values)


class TestBackendContract:
    def test_mixed_entries_rejected(self):
        with pytest.raises(TypeError):
            Mat2(Scalar.flt(1.0), Scalar.flt(0.0), Scalar.flt(0.0), Scalar.exact(1))
        with pytest.raises(TypeError):
            Vec2(Scalar.exact(1), Scalar.flt(0.0))

    def test_mixed_products_raise_before_arithmetic(self):
        guarded = Mat2(*(Scalar(NoArithmetic(v)) for v in (1, 2, 3, 4)))
        assert guarded.is_exact
        with pytest.raises(BackendMismatchError):
            guarded @ Mat2.flt(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(BackendMismatchError):
            Mat2.flt(1.0, 0.0, 0.0, 1.0) @ guarded
        with pytest.raises(BackendMismatchError):
            guarded @ Vec2.flt(1.0, 0.0)
        with pytest.raises(BackendMismatchError):
            Mat2.flt(1.0, 0.0, 0.0, 1.0) @ Vec2(*(Scalar(NoArithmetic(v)) for v in (1, 2)))

    def test_mixed_dot_raises(self):
        with pytest.raises(BackendMismatchError):
            dot(Vec2.exact(1, 2), Vec2.flt(1.0, 2.0))

    def test_product_with_other_types(self):
        with pytest.raises(TypeError):
            Mat2.exact(1, 0, 0, 1) @ 2

    @given(st.tuples(*(finite_floats,) * 4), st.tuples(*(finite_floats,) * 6))
    def test_float_products_match_the_scalar_formula_bit_for_bit(self, me, ne):
        a11, a12, a21, a22 = me
        b11, b12, b21, b22, x1, x2 = ne
        got = Mat2.flt(*me) @ Mat2.flt(b11, b12, b21, b22)
        want = (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
        assert not got.is_exact
        assert _hex(e.value for e in got.entries()) == _hex(want)
        v = Mat2.flt(*me) @ Vec2.flt(x1, x2)
        assert _hex((v.x1.value, v.x2.value)) == _hex(
            (a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)
        )

    @given(st.tuples(*(small_fractions,) * 4), st.tuples(*(small_fractions,) * 6))
    def test_exact_products_match_the_fraction_formula(self, me, ne):
        a11, a12, a21, a22 = me
        b11, b12, b21, b22, x1, x2 = ne
        got = Mat2.exact(*me) @ Mat2.exact(b11, b12, b21, b22)
        assert got.is_exact
        assert tuple(e.value for e in got.entries()) == (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
        assert all(type(e.value) is Fraction for e in got.entries())
        v = Mat2.exact(*me) @ Vec2.exact(x1, x2)
        assert (v.x1.value, v.x2.value) == (a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)


huge_ints = st.integers(2**300, 2**340)
signs = st.sampled_from((-1, 1))
# Zeros, small entries, and entries whose numerator, denominator or both
# have 300 bits or more, of either sign.
wide_fractions = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(lambda s, p, q: Fraction(s * p, q), signs, huge_ints, huge_ints),
    st.builds(lambda s, p: Fraction(s * p), signs, huge_ints),
    st.builds(lambda s, q: Fraction(s, q), signs, huge_ints),
    st.builds(lambda s, p, q: Fraction(s * p, q), signs, huge_ints, st.integers(1, 99)),
)

P301 = 2**301 + 1
WIDE = (Fraction(-P301, 3**190), Fraction(0), Fraction(7, P301), Fraction(-(3**200), 5))


def _reduced(q):
    return type(q) is Fraction and q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1


class TestExactKernel:
    """Exact products go through mul_entries and apply_entries on the
    Fraction entries, and dot through Scalar arithmetic; each entry must be
    the rational, in lowest terms, that plain Fraction arithmetic gives."""

    @given(st.tuples(*(wide_fractions,) * 4), st.tuples(*(wide_fractions,) * 6))
    @example(WIDE, WIDE + WIDE[:2])
    @example((Fraction(0),) * 4, (Fraction(0),) * 6)
    def test_products_and_dot_equal_the_fraction_formula(self, me, ne):
        a11, a12, a21, a22 = me
        b11, b12, b21, b22, x1, x2 = ne
        got = Mat2.exact(*me) @ Mat2.exact(b11, b12, b21, b22)
        want = (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )
        assert got.is_exact
        assert tuple(e.value for e in got.entries()) == want
        assert all(_reduced(e.value) for e in got.entries())
        v = Mat2.exact(*me) @ Vec2.exact(x1, x2)
        assert v.is_exact
        assert (v.x1.value, v.x2.value) == (a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)
        assert _reduced(v.x1.value) and _reduced(v.x2.value)
        d = dot(Vec2.exact(a11, a12), Vec2.exact(x1, x2))
        assert d.is_exact
        assert d.value == a11 * x1 + a12 * x2 and _reduced(d.value)

    def test_wide_example_reaches_300_bits(self):
        got = Mat2.exact(*WIDE) @ Mat2.exact(*WIDE)
        assert max(e.value.numerator.bit_length() for e in got.entries()) >= 300
        assert max(e.value.denominator.bit_length() for e in got.entries()) >= 300

    @given(st.tuples(*(finite_floats,) * 4))
    def test_float_dot_matches_the_scalar_formula_bit_for_bit(self, e):
        x1, x2, y1, y2 = e
        got = dot(Vec2.flt(x1, x2), Vec2.flt(y1, y2))
        assert not got.is_exact
        assert _hex((got.value,)) == _hex((x1 * y1 + x2 * y2,))
