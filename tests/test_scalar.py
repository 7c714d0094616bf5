import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smpverify.families import MatrixSet, custom_set, normalize
from smpverify.matrix2 import Mat2, Vec2, eigenvector_unit_first, scaled_entries
from smpverify.permutability import is_irreducible
from smpverify.polytope import build_polygon, polygon_gauge, verify_inclusions
from smpverify.scalar import (
    BackendMismatchError,
    FloatKappa,
    KappaContext,
    Scalar,
    ge,
    isclose,
    le,
    parse_scalar,
)
from smpverify.words import Word, bounds_table, evaluate


class TestScalarArithmetic:
    def test_exact_closure(self):
        a = Scalar.exact(Fraction(2, 3))
        b = Scalar.exact(Fraction(5, 7))
        assert (a + b).as_fraction() == Fraction(29, 21)
        assert (a * b).as_fraction() == Fraction(10, 21)
        assert (a / b).as_fraction() == Fraction(14, 15)
        assert (a - b) < 0

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.exact(1) / Scalar.exact(0)
        with pytest.raises(ZeroDivisionError):
            Scalar.flt(1.0) / Scalar.flt(0.0)

    def test_mixed_backends_refuse_to_combine(self):
        e = Scalar.exact(1)
        f = Scalar.flt(1.0)
        for op in (lambda: e + f, lambda: e * f, lambda: e / f, lambda: f - e):
            with pytest.raises(BackendMismatchError):
                op()
        assert not (e == f)

    def test_int_operands_stay_in_backend(self):
        assert (Scalar.exact(Fraction(1, 2)) + 1).as_fraction() == Fraction(3, 2)
        assert float(Scalar.flt(0.5) * 2) == 1.0

    def test_pow(self):
        assert Scalar.exact(Fraction(11, 10)) ** 3 == Scalar.exact(
            Fraction(1331, 1000)
        )
        with pytest.raises(ZeroDivisionError):
            Scalar.exact(0) ** -1


class HalfFraction(Fraction):
    """A Fraction subclass: not caught by the exact type test."""


class TestBackendAtConstruction:
    @pytest.mark.parametrize("value", [True, False, 1, 0, "1", None, 1j])
    def test_rejects_everything_but_fraction_and_float(self, value):
        with pytest.raises(TypeError):
            Scalar(value)

    def test_plain_types(self):
        assert Scalar(Fraction(1, 3)).is_exact is True
        assert Scalar(0.5).is_exact is False

    def test_fraction_subclass_is_exact(self):
        s = Scalar(HalfFraction(1, 2))
        assert s.is_exact is True
        assert s.backend == "exact"
        assert (s + Scalar.exact(Fraction(1, 2))).as_fraction() == 1
        with pytest.raises(BackendMismatchError):
            s * Scalar.flt(2.0)

    def test_numpy_float64_is_float(self):
        s = Scalar(np.float64(0.25))
        assert s.is_exact is False
        assert s.backend == "float"
        assert float(s * Scalar.flt(4.0)) == 1.0
        with pytest.raises(BackendMismatchError):
            s + Scalar.exact(1)

    def test_results_keep_the_backend(self):
        e, f = Scalar.exact(Fraction(2, 3)), Scalar.flt(1.5)
        for r in (e + 1, e - e, e * e, e / 2, 2 / e, e**-2, -e, abs(e)):
            assert r.is_exact is True and type(r.value) is Fraction
        for r in (f + 1, f - f, f * f, f / 2, 2 / f, f**-2, -f, abs(f)):
            assert r.is_exact is False and type(r.value) is float

    def test_hash_and_str_unchanged(self):
        assert hash(Scalar.exact(Fraction(1, 2))) == hash((True, Fraction(1, 2)))
        assert hash(Scalar.flt(0.5)) == hash((False, 0.5))
        assert repr(Scalar.flt(0.5)) == "Scalar(0.5)"
        assert repr(Scalar.exact(Fraction(1, 2))) == "Scalar(Fraction(1, 2))"


class TestToleranceComparisons:
    def test_exact_comparisons_are_exact(self):
        tiny = Scalar.exact(Fraction(1, 10**30))
        assert not tiny.isclose(Scalar.exact(0))
        assert tiny.ge(0)

    def test_float_comparisons_use_relative_tolerance(self):
        a = Scalar.flt(1.0 + 1e-13)
        assert a.isclose(Scalar.flt(1.0))
        assert a.le(1)
        assert not Scalar.flt(1.0 + 1e-9).le(1)
        assert Scalar.flt(1.0 + 1e-9).le(1, rel_tol=1e-8)

    def test_raw_comparisons_are_exact_unless_an_operand_is_a_float(self):
        tiny = Fraction(1, 10**30)
        assert not isclose(tiny, 0) and not isclose(1, 1 + tiny)
        assert not le(1 + tiny, 1) and not ge(1, 1 + tiny)
        assert isclose(1.0 + 1e-13, 1) and le(1.0 + 1e-13, 1) and ge(1, 1.0 + 1e-13)
        assert not le(1.0 + 1e-9, 1) and le(1.0 + 1e-9, 1, rel_tol=1e-8)
        # A float subclass counts as a float.
        assert isclose(np.float64(1.0 + 1e-13), 1) and le(1, np.float64(1.0 - 1e-13))
        assert not isclose(1.0 + 1e-13, 1, rel_tol=0.0)


# One exact and one float operand for every entry point that checks the
# backends; fx is request.getfixturevalue.
_E, _F = Scalar.exact(1), Scalar.flt(1.0)
_ME, _MF = Mat2.exact(1, 2, 3, 4), Mat2.flt(1.0, 2.0, 3.0, 4.0)
_VE, _VF = Vec2.exact(1, 2), Vec2.flt(1.0, 2.0)
MIXED_CALLS = {
    "Scalar +": lambda fx: _E + _F,
    "Vec2": lambda fx: Vec2(_E, _F),
    "Mat2": lambda fx: Mat2(_E, _E, _F, _E),
    "Mat2 @ Mat2": lambda fx: _ME @ _MF,
    "Mat2 @ Vec2": lambda fx: _MF @ _VE,
    "scaled_entries": lambda fx: scaled_entries((_ME, _MF)),
    # One letter only: the check is evaluate's, not that of Mat2 @.
    "evaluate": lambda fx: evaluate(Word.from_display("AAA"), _ME, _MF),
    "bounds_table": lambda fx: bounds_table(_ME, _MF, 2),
    "custom_set": lambda fx: custom_set(_ME, _MF),
    "is_irreducible": lambda fx: is_irreducible(_MF, _ME),
    "eigenvector_unit_first": lambda fx: eigenvector_unit_first(_ME, _F),
    "normalize": lambda fx: normalize(
        MatrixSet(_ME, _MF, None, "custom", _F, fx("ctx11"))
    ),
    "build_polygon": lambda fx: build_polygon(fx("norm_exact"), _VF, _VF, Fraction(5, 4)),
    "polygon_gauge": lambda fx: polygon_gauge(fx("poly_exact"), _VF),
    "Polygon.matrix_norm": lambda fx: fx("poly_exact").matrix_norm(_MF),
    "verify_inclusions": lambda fx: verify_inclusions(
        fx("poly_exact"), normalize(fx("main_float"))
    ),
}


@pytest.mark.parametrize("call", MIXED_CALLS.values(), ids=MIXED_CALLS.keys())
def test_mixed_backends_raise_the_one_error(request, call):
    with pytest.raises(BackendMismatchError, match="^cannot combine exact and float values$"):
        call(request.getfixturevalue)


class TestSerialization:
    def test_exact_serializes_decimal_free(self):
        assert str(Scalar.exact(Fraction(5, 4))) == "5/4"
        assert str(Scalar.exact(3)) == "3"

    def test_float_serializes_shortest_roundtrip(self):
        assert str(Scalar.flt(1.331)) == "1.331"

    def test_to_float_examples(self):
        assert float(Scalar.exact(Fraction(1331, 1000))) == 1.331
        assert float(Scalar.exact(Fraction(1, 3))) == 0.3333333333333333
        assert float(Scalar.exact(0)) == 0.0

    def test_parse_scalar(self):
        assert parse_scalar("11/10").as_fraction() == Fraction(11, 10)
        assert parse_scalar("-3").as_fraction() == -3
        assert not parse_scalar("1.25").is_exact
        with pytest.raises(ValueError):
            parse_scalar("spam")


class TestKappaContext:
    def test_requires_c_above_one(self):
        with pytest.raises(ValueError):
            KappaContext(Fraction(1, 1))
        with pytest.raises(ValueError):
            FloatKappa(0.9)

    def test_power_examples(self):
        ctx = KappaContext(Fraction(11, 10))
        assert ctx.power(3).as_fraction() == Fraction(1331, 1000)
        assert ctx.power(0).as_fraction() == 1
        assert ctx.power(2).as_fraction() == Fraction(121, 100)
        assert ctx.power(-3).as_fraction() == Fraction(1000, 1331)

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_power_is_additive(self, j, k):
        ctx = KappaContext(Fraction(13, 10))
        assert ctx.power(j) * ctx.power(k) == ctx.power(j + k)

    def test_float_kappa_mirrors_powers(self):
        ctx = KappaContext(Fraction(11, 10))
        fk = FloatKappa(1.331)
        for k in (-6, -2, 0, 1, 2, 3, 7, 12):
            assert math.isclose(
                float(ctx.power(k)), float(fk.power(k)), rel_tol=1e-12
            )
