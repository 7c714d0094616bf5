"""Contract of the package's immutable value records.

KappaContext, FloatKappa, Vec2, Mat2, Word, BoundsRow, MatrixSet,
NormalizedSet, the polygon and certificate records of polytope, TauMap,
SwapSpectrumReport and FigureSpec behave as frozen records: constructed
positionally or by keyword, compared and hashed as the tuple of their
fields, read-only, and validated at construction with the messages pinned
here.
"""

import copy
import functools
import pickle
from fractions import Fraction

import pytest

from smpverify import polytope
from smpverify.families import (
    MatrixSet,
    NormalizedSet,
    eigenvectors_from_products,
    example_main_special,
    normalize,
)
from smpverify.figures import FigureSpec
from smpverify.matrix2 import Mat2, Vec2
from smpverify.permutability import TauMap, swap_spectrum_check
from smpverify.polytope import (
    CheckResult,
    Polygon,
    SmpClass,
    build_polygon,
    certify_smp,
    convexity_values,
    images,
)
from smpverify.scalar import BackendMismatchError, FloatKappa, KappaContext, Scalar
from smpverify.words import BoundsRow, Word


def _mset(c=Fraction(11, 10)):
    return example_main_special(KappaContext(c))


@functools.cache
def _norm():
    return normalize(_mset())


def _poly(k):
    """The polygon of c = 11/10 at the scale mu = 5/4 + k/100."""
    norm = _norm()
    v, w = eigenvectors_from_products(norm)
    return build_polygon(norm, v, w, Fraction(125 + k, 100))


def _swap_report(k):
    mset = _mset()
    word = Word.from_display("AAB" * k)
    return swap_spectrum_check(mset.a, mset.b, TauMap(mset.tau_s), word)


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
        ("a", "b", "tau_s", "family", "kappa", "ctx"),
    ),
    "NormalizedSet": (
        lambda k: normalize(_mset(Fraction(10 + k, 10))),
        ("at", "bt", "lam", "scale", "source"),
    ),
    "Polygon": (_poly, ("vertices", "mu", "kappa", "ctx", "family")),
    "_EdgeTable": (
        lambda k: polytope._build_edge_table(_poly(k).vertices),
        ("scale", "vertices", "edges"),
    ),
    "ImagePoints": (lambda k: images(_poly(k), _norm()), ("a", "b")),
    "CheckResult": (
        lambda k: CheckResult(f"check{k}", k % 2 == 0, "why", (("k", str(k)),)),
        ("name", "passed", "detail", "data"),
    ),
    "SmpClass": (
        lambda k: SmpClass(Word.from_display("A" * k + "B"), k, 1),
        ("representative", "count_a", "count_b"),
    ),
    "Certificate": (
        lambda k: certify_smp(_mset(), Fraction(125 + k, 100)),
        ("family", "backend", "kappa", "c", "mu", "checks", "rho_bar", "smp_classes"),
    ),
    "TauMap": (lambda k: TauMap(Mat2.exact(k, 1, 1, 0)), ("s",)),
    "SwapSpectrumReport": (
        _swap_report,
        (
            "word", "image_word", "trace_equal", "det_equal", "counts",
            "image_counts", "odd_length", "counts_differ", "normal_forms_distinct",
        ),
    ),
    "FigureSpec": (
        lambda k: FigureSpec(_poly(k), images(_poly(k), _norm())),
        ("polygon", "images"),
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_each_factory_builds_the_record_it_names(name):
    make, _ = RECORDS[name]
    assert type(make(1)).__name__ == name


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
        # Reducibility is a property of the matrices (is_irreducible), not a field.
        assert not hasattr(mset, "reducible")
        assert mset.is_exact

    def test_normalized_set_keeps_its_source(self):
        mset = _mset()
        norm = normalize(mset)
        assert isinstance(norm, NormalizedSet)
        assert norm.source is mset
        assert norm.scale == Scalar.exact(Fraction(121, 100))

    def test_check_result_detail_and_data_default(self):
        check = CheckResult("build", True)
        assert check.detail == "" and check.data == ()
        assert check == CheckResult("build", True, "", ())
        assert CheckResult(name="build", passed=False).detail == ""


class TestPolygonCaches:
    def test_built_caches_are_not_fields(self):
        poly = _poly(0)
        fresh = Polygon(poly.vertices, poly.mu, poly.kappa, poly.ctx, poly.family)
        poly.gauge(poly.v(1))
        convexity_values(poly)
        assert poly == fresh and hash(poly) == hash(fresh)
        assert repr(poly) == repr(fresh)
        assert pickle.dumps(poly) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(poly)), copy.copy(poly)):
            assert clone == fresh
            assert clone.gauge(poly.v(1)) == poly.gauge(poly.v(1))
            assert convexity_values(clone) == convexity_values(poly)


class TestValidation:
    @pytest.mark.parametrize("count", [0, 11, 13])
    def test_polygon_has_twelve_vertices(self, count):
        poly = _poly(0)
        with pytest.raises(ValueError, match="^the polygon has exactly 12 vertices$"):
            Polygon(poly.vertices[:1] * count, poly.mu, poly.kappa, poly.ctx, "main")

    def test_vec2_mixed_backends(self):
        with pytest.raises(BackendMismatchError, match="^cannot combine exact and float values$"):
            Vec2(Scalar.exact(1), Scalar.flt(1.0))

    @pytest.mark.parametrize("odd", range(4))
    def test_mat2_mixed_backends(self, odd):
        entries = [Scalar.exact(1)] * 4
        entries[odd] = Scalar.flt(1.0)
        with pytest.raises(BackendMismatchError, match="^cannot combine exact and float values$"):
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
