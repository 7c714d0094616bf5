"""Contract of the immutable value records of the base modules.

KappaContext, FloatKappa, Vec2, Mat2, Word, BoundsRow, MatrixSet and
NormalizedSet behave as frozen records: constructed positionally or by
keyword, compared and hashed as the tuple of their fields, read-only, and
validated at construction with the messages pinned here.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from smpverify.families import MatrixSet, NormalizedSet, example_main_special, normalize
from smpverify.matrix2 import Mat2, Vec2
from smpverify.scalar import FloatKappa, KappaContext, Scalar
from smpverify.words import BoundsRow, Word


def _mset(c=Fraction(11, 10)):
    return example_main_special(KappaContext(c))


# name -> (factory of an instance from a key, its field names)
RECORDS = {
    "KappaContext": (lambda k: KappaContext(Fraction(10 + k, 10)), ("c",)),
    "FloatKappa": (lambda k: FloatKappa(1.5 + k), ("kappa_value",)),
    "Vec2": (lambda k: Vec2.exact(k, 2), ("x1", "x2")),
    "Mat2": (lambda k: Mat2.flt(k, 2, 3, 4), ("m11", "m12", "m21", "m22")),
    "Word": (lambda k: Word.from_display("AB" * k), ("symbols",)),
    "BoundsRow": (
        lambda k: BoundsRow(n=k, rho_bar=1.21, rho=None, maximizers=(Word(("A",)),)),
        ("n", "rho_bar", "rho", "maximizers"),
    ),
    "MatrixSet": (
        lambda k: _mset(Fraction(10 + k, 10)),
        ("a", "b", "tau_s", "family", "kappa", "phi", "ctx", "reducible"),
    ),
    "NormalizedSet": (
        lambda k: normalize(_mset(Fraction(10 + k, 10))),
        ("at", "bt", "lam", "scale", "source"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


class TestFrozenRecord:
    def test_equal_fields_compare_equal(self, record):
        make, _ = record
        assert make(1) == make(1)
        assert not make(1) != make(1)
        assert make(1) != make(2)

    def test_other_types_never_compare_equal(self, record):
        make, names = record
        obj = make(1)
        assert obj != _fields(obj, names)
        assert obj.__eq__(object()) is NotImplemented

    def test_hash_is_the_hash_of_the_field_tuple(self, record):
        make, names = record
        obj = make(1)
        assert hash(obj) == hash(make(1)) == hash(_fields(obj, names))
        assert len({make(1), make(1), make(2)}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, record):
        make, names = record
        obj = make(1)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert make(1) == obj

    def test_keyword_construction_matches_positional(self, record):
        make, names = record
        obj = make(1)
        values = _fields(obj, names)
        cls = type(obj)
        assert cls(*values) == obj
        assert cls(**dict(zip(names, values))) == obj

    def test_missing_field_is_a_type_error(self, record):
        make, _ = record
        with pytest.raises(TypeError):
            type(make(1))()

    def test_repr_names_every_field(self, record):
        make, names = record
        obj = make(1)
        inner = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
        assert repr(obj) == f"{type(obj).__qualname__}({inner})"

    def test_copy_and_pickle_round_trip(self, record):
        make, _ = record
        obj = make(1)
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


class TestDefaults:
    def test_matrix_set_ctx_and_reducible_default(self):
        m = Mat2.exact(0, -1, 1, -1)
        mset = MatrixSet(m, m, None, "custom", Scalar.exact(1), None)
        assert mset.ctx is None
        assert mset.reducible is False
        assert mset.is_exact

    def test_normalized_set_keeps_its_source(self):
        mset = _mset()
        norm = normalize(mset)
        assert isinstance(norm, NormalizedSet)
        assert norm.source is mset
        assert norm.scale == Scalar.exact(Fraction(121, 100))


class TestValidation:
    def test_vec2_mixed_backends(self):
        with pytest.raises(TypeError, match="all entries must share one backend"):
            Vec2(Scalar.exact(1), Scalar.flt(1.0))

    @pytest.mark.parametrize("odd", range(4))
    def test_mat2_mixed_backends(self, odd):
        entries = [Scalar.exact(1)] * 4
        entries[odd] = Scalar.flt(1.0)
        with pytest.raises(TypeError, match="all entries must share one backend"):
            Mat2(*entries)

    def test_word_needs_a_symbol(self):
        with pytest.raises(ValueError, match=r"words must have length >= 1"):
            Word(())

    def test_word_alphabet(self):
        with pytest.raises(ValueError, match=r"symbols must be 'A' or 'B', got \('A', 'C'\)"):
            Word(("A", "C"))

    @pytest.mark.parametrize(
        "raw, want",
        [(2, Fraction(2)), ("11/10", Fraction(11, 10)), (Fraction(3, 2), Fraction(3, 2))],
    )
    def test_kappa_context_coerces_c_to_fraction(self, raw, want):
        ctx = KappaContext(raw)
        assert type(ctx.c) is Fraction and ctx.c == want
        assert ctx == KappaContext(want)

    @pytest.mark.parametrize("raw, shown", [(1, "1"), (Fraction(9, 10), "9/10"), ("-2", "-2")])
    def test_kappa_context_rejects_c_at_most_one(self, raw, shown):
        with pytest.raises(ValueError, match=f"^need c > 1, got {shown}$"):
            KappaContext(raw)

    def test_float_kappa_coerces_to_float(self):
        fk = FloatKappa(2)
        assert type(fk.kappa_value) is float and fk == FloatKappa(2.0)

    @pytest.mark.parametrize("raw, shown", [(1, "1.0"), (0.5, "0.5"), (float("nan"), "nan")])
    def test_float_kappa_rejects_kappa_at_most_one(self, raw, shown):
        with pytest.raises(ValueError, match=f"^need kappa > 1, got {shown}$"):
            FloatKappa(raw)
