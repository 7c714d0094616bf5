import copy
import gc
import math
import pickle
import weakref
from collections import defaultdict
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smpverify import matrix2, words
from smpverify.families import (
    DISTINGUISHED_PHI,
    eigenvectors_from_products,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from smpverify.matrix2 import Mat2, Vec2
from smpverify.polytope import Polygon, build_polygon
from smpverify.scalar import BackendMismatchError, KappaContext, Scalar
from smpverify.words import (
    BoundsRow,
    BoxNorm,
    Word,
    bounds_table,
    cyclic_normal_form,
    evaluate,
    factor_counts,
    format_bounds_csv,
    format_bounds_text,
    necklaces,
    rho_bar_n,
    rho_n,
)

word_strategy = st.text(alphabet="AB", min_size=1, max_size=10)


def brute_necklaces(n):
    """Independent oracle: canonicalize all 2**n strings by least rotation."""
    seen = set()
    for k in range(2**n):
        s = "".join("AB"[(k >> i) & 1] for i in range(n))
        seen.add(min(s[i:] + s[:i] for i in range(n)))
    return sorted(seen)


class TestWord:
    def test_display_is_reverse_of_application_order(self):
        w = Word.from_display("BAA")
        assert w.symbols == ("A", "A", "B")
        assert w.display == "BAA"

    def test_rejects_empty_and_junk(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ValueError):
            Word.from_display("AXB")

    def test_maximizers_built_from_codes_are_whole_words(self):
        # The oracle builds its maximizers from their codes, unchecked; each
        # is the word its display names, and copies and pickles as one.
        mset = example_main_special(KappaContext(Fraction(233, 224)))
        rows = bounds_table(mset.a, mset.b, 11)
        maximizers = [w for row in rows for w in row.maximizers]
        assert rows[-1].maximizers == tuple(necklaces(11))
        assert len(maximizers) == 377
        for w in maximizers:
            checked = Word.from_display(w.display)
            assert w == checked and hash(w) == hash(checked)
            assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
            assert type(w.symbols) is tuple and len(w) == len(w.symbols)

    def test_tied_maximizers_are_built_with_their_display(self):
        # At c = 233/224 every necklace of length 11 ties: each maximizer is
        # built from its code with its display and equals the word of that
        # display.
        mset = _exact_main(233, 224)
        maximizers = bounds_table(mset.a, mset.b, 11)[-1].maximizers
        assert [w.display for w in maximizers] == brute_necklaces(11)
        for w in maximizers:
            assert "display" in w.__dict__
            assert w == Word.from_display(w.display)

    def test_display_is_cached_outside_the_fields(self, main_exact):
        rows = bounds_table(main_exact.a, main_exact.b, 9)
        built = [
            Word(("A", "A", "B")),
            Word.from_display("ABABB"),
            cyclic_normal_form(Word.from_display("BABAA")),
            *necklaces(6),
            *(w for row in rows for w in row.maximizers),
        ]
        for w in built:
            assert w.display == "".join(reversed(w.symbols)) == str(w)
            # A word whose display was never read sees none of the cache.
            fresh = Word(w.symbols)
            assert "display" not in fresh.__dict__ and w.__dict__["display"] == w.display
            assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
            assert pickle.dumps(w) == pickle.dumps(fresh)
            for clone in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
                assert clone == w and clone.display == w.display


class TestEvaluate:
    def test_display_order_is_juxtaposition(self, main_exact):
        a, b = main_exact.a, main_exact.b
        assert evaluate(Word.from_display("AB"), a, b) == a @ b
        assert evaluate(Word.from_display("BA"), a, b) == b @ a

    def test_cube_is_identity(self, main_exact):
        a, b = main_exact.a, main_exact.b
        assert evaluate(Word.from_display("AAA"), a, b) == Mat2.identity_like(a)

    def test_triple_closed_form(self, ctx11, main_exact):
        kappa = ctx11.power(3)
        got = evaluate(Word.from_display("BAA"), main_exact.a, main_exact.b)
        assert got == Mat2(
            kappa * kappa, Scalar.exact(0), kappa - 1 / kappa, 1 / (kappa * kappa)
        )

    def test_single_factor(self, main_exact):
        assert evaluate(Word.from_display("A"), main_exact.a, main_exact.b) == (
            main_exact.a
        )


class TestCyclicMachinery:
    def test_normal_form_examples(self):
        assert cyclic_normal_form(Word.from_display("ABA")).display == "AAB"
        assert cyclic_normal_form(Word.from_display("AAB")).display == "AAB"
        assert cyclic_normal_form(Word.from_display("BBB")).display == "BBB"

    def test_necklace_examples(self):
        assert [w.display for w in necklaces(1)] == ["A", "B"]
        assert [w.display for w in necklaces(2)] == ["AA", "AB", "BB"]
        assert [w.display for w in necklaces(3)] == ["AAA", "AAB", "ABB", "BBB"]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_necklaces_match_brute_force(self, n):
        assert [w.display for w in necklaces(n)] == brute_necklaces(n)

    def test_counts_examples(self):
        assert factor_counts(Word.from_display("BAA")) == (2, 1)
        assert factor_counts(Word.from_display("BBA")) == (1, 2)
        assert factor_counts(Word.from_display("AABABB")) == (3, 3)

    @given(word_strategy, st.integers(0, 9))
    def test_rotation_preserves_spectrum_exactly(self, main_exact, text, shift):
        a, b = main_exact.a, main_exact.b
        rotated = text[shift % len(text):] + text[: shift % len(text)]
        m = evaluate(Word.from_display(text), a, b)
        r = evaluate(Word.from_display(rotated), a, b)
        assert m.trace() == r.trace() and m.det() == r.det()


class TestBruteForceBounds:
    def test_rho_bar_3_hits_the_certified_value(self, main_exact):
        row = rho_bar_n(main_exact.a, main_exact.b, 3)
        assert math.isclose(row.rho_bar, 1.21, rel_tol=1e-12)
        assert [w.display for w in row.maximizers] == ["AAB", "ABB"]

    def test_rho_bar_1_is_one(self, main_exact):
        row = rho_bar_n(main_exact.a, main_exact.b, 1)
        assert row.rho_bar == 1.0

    def test_rho_bar_6_attained_by_squares(self, main_exact):
        row = rho_bar_n(main_exact.a, main_exact.b, 6)
        assert math.isclose(row.rho_bar, 1.21, rel_tol=1e-12)
        reps = [w.display for w in row.maximizers]
        assert "AABAAB" in reps and "ABBABB" in reps

    def test_word_length_cap(self, main_exact):
        with pytest.raises(ValueError):
            rho_bar_n(main_exact.a, main_exact.b, 21)
        with pytest.raises(ValueError):
            rho_n(main_exact.a, main_exact.b, 0)

    def test_rho_n_with_polygon_gauge_is_flat(self, main_exact, poly_exact):
        for n in range(1, 5):
            val = float(rho_n(main_exact.a, main_exact.b, n, norm=poly_exact))
            assert math.isclose(val, 1.21, rel_tol=1e-12)

    def test_rho_n_with_float_polygon_gauge(self, main_float):
        from smpverify.families import eigenvectors_from_products, normalize
        from smpverify.polytope import build_polygon

        norm = normalize(main_float)
        v, w = eigenvectors_from_products(norm)
        poly = build_polygon(norm, v, w, 1.25)
        val = float(rho_n(main_float.a, main_float.b, 1, norm=poly))
        assert math.isclose(val, 1.21, rel_tol=1e-9)

    def test_rho_n_box_norm_upper_bounds(self, main_exact):
        # Any sub-multiplicative norm keeps rho_n above the certified value.
        assert float(rho_n(main_exact.a, main_exact.b, 2)) >= 1.21
        assert math.isclose(
            float(rho_n(main_exact.a, main_exact.b, 1)), 2.331, rel_tol=1e-12
        )

    def test_sandwich_rho_bar_below_rho(self, main_exact):
        rows = bounds_table(main_exact.a, main_exact.b, 5)
        for row in rows:
            assert row.rho_bar <= row.rho + 1e-12

    def test_monotone_sandwich_to_length_nine(self, main_exact, poly_exact):
        # With the certificate norm the sandwich pinches completely:
        # rho_bar_n <= 1.21 <= rho_n, and rho_n is exactly flat.
        for n in range(1, 10):
            lower = rho_bar_n(main_exact.a, main_exact.b, n).rho_bar
            upper = float(rho_n(main_exact.a, main_exact.b, n, norm=poly_exact))
            assert lower <= 1.21 + 1e-12 <= upper + 2e-12
            assert math.isclose(upper, 1.21, rel_tol=1e-9)

    def test_box_norm_is_induced_infinity_norm(self):
        m = Mat2.flt(1.0, -2.0, 3.0, 0.5)
        assert float(BoxNorm().matrix_norm(m)) == 3.5


class TestFormatting:
    def test_text_and_csv(self, main_exact):
        rows = bounds_table(main_exact.a, main_exact.b, 3)
        text = format_bounds_text(rows)
        assert text.splitlines()[0].split() == [
            "n", "rho_bar_n", "rho_n", "maximizers"
        ]
        csv = format_bounds_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == "n,rho_bar_n,rho_n,maximizers"
        assert lines[3].startswith("3,1.21,") and lines[3].endswith("AAB;ABB")


def brute_bounds(a, b, n, tie_rel_tol=1e-9, norm=None):
    """Independent oracle on Mat2: (rho_bar, float(rho_n), maximizers).

    Walks all 2**n words; rho_bar scores the words that are their own least
    rotation (the necklace representatives), rho_n scores every word with
    `norm` (the box norm by default).
    """
    norm = BoxNorm() if norm is None else norm
    scored, best_norm = [], None
    for k in range(2**n):
        s = "".join("AB"[(k >> i) & 1] for i in range(n))
        m = evaluate(Word.from_display(s), a, b)
        v = norm.matrix_norm(m)
        if best_norm is None or v > best_norm:
            best_norm = v
        if s == min(s[i:] + s[:i] for i in range(n)):
            r = float(matrix2.spectral_radius(m)) ** (1.0 / n)
            scored.append((r, s))
    best = max(r for r, _ in scored)
    cut = best - tie_rel_tol * max(1.0, abs(best))
    maximizers = tuple(sorted(s for r, s in scored if r >= cut))
    return best, float(best_norm) ** (1.0 / n), maximizers


def dyadic(m):
    """The matrix read exactly: a float entry as the dyadic rational it is."""
    return Mat2.exact(*(Fraction(x) for x in m._values()))


def dyadic_polygon(poly):
    """The polygon with its vertices read exactly, as dyadic."""
    if poly.is_exact:
        return poly
    vertices = tuple(Vec2.exact(v.x1.value, v.x2.value) for v in poly.vertices)
    return Polygon(vertices, poly.mu, poly.kappa, poly.ctx, poly.family)


def assert_matches_brute_force(a, b, n):
    # The oracle reads a float pair as the exact pair of its entries, so the
    # reference is the exact brute force of that pair, rounded once.
    row = rho_bar_n(a, b, n)
    got = (row.rho_bar, float(rho_n(a, b, n)), tuple(w.display for w in row.maximizers))
    assert got == brute_bounds(dyadic(a), dyadic(b), n)


class CountingNorm:
    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def matrix_norm(self, m):
        self.calls += 1
        return self.inner.matrix_norm(m)


fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)
pair_st = st.tuples(*([fractions_st] * 8))
float_entry_st = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
float_pair_st = st.tuples(*([float_entry_st] * 8))

# pair_st draws pairs of unequal determinants, one of them negative, about
# two times in three, so the necklaces of one length fall into groups of
# several determinants.  Two such pairs are pinned as examples.  det A =
# 11/8 and det B = -5/6, with maximizers that change with n (the pair of
# tests/data/unequal_det_pair.txt):
UNEQUAL_DET_PAIR = (Fraction(3, 4), 1, -1, Fraction(1, 2), 1, Fraction(1, 3), 1, Fraction(-1, 2))
# det A = 3/2 and det B = -7/6: A**n, elliptic, ties (AB)**(n/2), whose
# eigenvalues are real, at every even n.
CROSS_TIE_PAIR = (1, 1, -1, Fraction(1, 2), Fraction(1, 2), 1, 1, Fraction(-1, 3))
# det A = 0 and det B = -4 (the pair of tests/data/singular_negdet_pair.txt).
SINGULAR_NEGDET_PAIR = (
    Fraction(-3, 2), -1, 4, Fraction(8, 3), 2, 4, Fraction(3, 5), Fraction(-4, 5)
)


class TestScaledOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_main_at_233_224(self, n):
        mset = example_main_special(KappaContext(Fraction(233, 224)))
        assert_matches_brute_force(mset.a, mset.b, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_float_main(self, main_float, n):
        assert_matches_brute_force(main_float.a, main_float.b, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_float_alt(self, alt_float, n):
        assert_matches_brute_force(alt_float.a, alt_float.b, n)

    @settings(max_examples=25, deadline=None)
    @given(pair_st, st.integers(1, 6))
    @example(
        (Fraction(-2, 3), Fraction(1, 4), Fraction(5, 7), Fraction(-1, 2),
         Fraction(3, 5), Fraction(-7, 11), Fraction(1, 9), Fraction(2)),
        5,
    )
    @example(UNEQUAL_DET_PAIR, 7)
    @example(CROSS_TIE_PAIR, 6)
    def test_random_exact_pair(self, entries, n):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        assert_matches_brute_force(a, b, n)

    @settings(max_examples=25, deadline=None)
    @given(float_pair_st, st.integers(1, 6))
    def test_random_float_pair(self, entries, n):
        a, b = Mat2.flt(*entries[:4]), Mat2.flt(*entries[4:])
        assert_matches_brute_force(a, b, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counting_norm_sees_every_word(self, main_exact, n):
        counter = CountingNorm(BoxNorm())
        got = rho_n(main_exact.a, main_exact.b, n, norm=counter)
        assert counter.calls == 2**n
        assert got == rho_n(main_exact.a, main_exact.b, n)

    def test_mixed_backends_raise(self, main_exact, main_float):
        for fn in (rho_n, rho_bar_n):
            with pytest.raises(TypeError):
                fn(main_exact.a, main_float.b, 3)
            with pytest.raises(TypeError):
                fn(main_float.a, main_exact.b, 3)

    def test_box_oracle_does_not_use_mat2_products(self, monkeypatch, main_exact):
        expected = (rho_bar_n(main_exact.a, main_exact.b, 6), rho_n(main_exact.a, main_exact.b, 6))

        def no_matmul(self, other):
            raise AssertionError("Mat2 @ called")

        monkeypatch.setattr(Mat2, "__matmul__", no_matmul)
        got = (rho_bar_n(main_exact.a, main_exact.b, 6), rho_n(main_exact.a, main_exact.b, 6))
        assert got == expected


def _polygon(mset, mu):
    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    return build_polygon(norm, v, w, mu)


def _exact_main(p, q):
    return example_main_special(KappaContext(Fraction(p, q)))


# Each case gives a pair and the norm of the rho_n column; None is the box norm.
WALK_CASES = {
    "exact 11/10, box": lambda: (_exact_main(11, 10), None),
    "exact 11/10, polygon": lambda: (
        _exact_main(11, 10), Scalar.exact(Fraction(5, 4))
    ),
    "exact 233/224, box": lambda: (_exact_main(233, 224), None),
    "exact 233/224, polygon": lambda: (
        _exact_main(233, 224), Scalar.exact(Fraction(217, 200))
    ),
    "float main, box": lambda: (example_main(1.331, DISTINGUISHED_PHI), None),
    "float main, polygon": lambda: (example_main(1.331, DISTINGUISHED_PHI), 1.25),
    "float alt, box": lambda: (example_alt(1.331, DISTINGUISHED_PHI), None),
    "float alt, polygon": lambda: (example_alt(1.331, DISTINGUISHED_PHI), 1.07),
}


def bit_rows(rows):
    """Rows as tuples with every float as its hex form, so == is bit equality."""
    return [
        (row.n, row.rho_bar.hex(), row.rho.hex(), tuple(w.display for w in row.maximizers))
        for row in rows
    ]


def per_n_rows(a, b, n_max, norm=None):
    """The table from one rho_bar_n and one rho_n walk per length."""
    rows = []
    for n in range(1, n_max + 1):
        lower = rho_bar_n(a, b, n)
        upper = float(rho_n(a, b, n, norm=norm))
        rows.append(BoundsRow(n=n, rho_bar=lower.rho_bar, rho=upper, maximizers=lower.maximizers))
    return rows


def brute_rows(a, b, n_max, norm=None):
    rows = []
    for n in range(1, n_max + 1):
        rho_bar, rho, maximizers = brute_bounds(a, b, n, norm=norm)
        rows.append((n, rho_bar.hex(), rho.hex(), maximizers))
    return rows


def assert_one_walk_matches(a, b, n_max, norm=None):
    table = bit_rows(bounds_table(a, b, n_max, norm=norm))
    assert table == bit_rows(per_n_rows(a, b, n_max, norm=norm))
    exact_norm = None if norm is None else dyadic_polygon(norm)
    assert table == brute_rows(dyadic(a), dyadic(b), n_max, norm=exact_norm)


class TestOneWalk:
    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_table_matches_per_length_walks_and_brute_force(self, case):
        mset, mu = WALK_CASES[case]()
        norm = None if mu is None else _polygon(mset, mu)
        assert_one_walk_matches(mset.a, mset.b, 9, norm=norm)

    @settings(max_examples=10, deadline=None)
    @given(pair_st, st.integers(1, 9))
    @example(UNEQUAL_DET_PAIR, 9)
    @example(CROSS_TIE_PAIR, 8)
    def test_random_exact_pair(self, entries, n_max):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        assert_one_walk_matches(a, b, n_max)

    @settings(max_examples=10, deadline=None)
    @given(float_pair_st, st.integers(1, 8))
    def test_random_float_pair(self, entries, n_max):
        a, b = Mat2.flt(*entries[:4]), Mat2.flt(*entries[4:])
        assert_one_walk_matches(a, b, n_max)

    def test_necklace_codes_match_brute_force(self):
        codes = words._necklace_codes(14)
        for n in range(1, 15):
            brute = [int(s.translate(str.maketrans("AB", "01")), 2) for s in brute_necklaces(n)]
            assert codes[n] == brute
            assert [words._display(c, n) for c in codes[n]] == brute_necklaces(n)

    @pytest.mark.parametrize("n_max", [1, 2, 5, 8])
    def test_counting_norm_sees_every_node_once(self, main_exact, n_max):
        counter = CountingNorm(BoxNorm())
        rows = bounds_table(main_exact.a, main_exact.b, n_max, norm=counter)
        assert counter.calls == 2 ** (n_max + 1) - 2
        assert [row.rho for row in rows] == [
            row.rho for row in bounds_table(main_exact.a, main_exact.b, n_max)
        ]

    @pytest.mark.parametrize("case", sorted(c for c in WALK_CASES if c.endswith("box")))
    def test_explicit_box_norm_is_the_default(self, monkeypatch, case):
        # Bit for bit the default's rows, and by the default's route: no
        # matrix_norm call.
        mset, _ = WALK_CASES[case]()
        a, b = mset.a, mset.b
        expected = (bit_rows(bounds_table(a, b, 9)), rho_n(a, b, 9).value.hex())

        def no_matrix_norm(self, m):
            raise AssertionError("BoxNorm.matrix_norm called")

        monkeypatch.setattr(BoxNorm, "matrix_norm", no_matrix_norm)
        box = BoxNorm()
        got = (bit_rows(bounds_table(a, b, 9, norm=box)), rho_n(a, b, 9, norm=box).value.hex())
        assert got == expected

    def test_table_does_not_use_mat2_products(self, monkeypatch, main_exact):
        a, b = main_exact.a, main_exact.b
        expected = (bounds_table(a, b, 7), rho_bar_n(a, b, 7))

        def no_matmul(self, other):
            raise AssertionError("Mat2 @ called")

        monkeypatch.setattr(Mat2, "__matmul__", no_matmul)
        assert (bounds_table(a, b, 7), rho_bar_n(a, b, 7)) == expected


def _singular(entries):
    """The pair with A's second row replaced by a multiple of its first."""
    a11, a12, _, _, *rest = entries
    k = rest[0]
    return (a11, a12, k * a11, k * a12, *rest)


# Exact pairs for the hull and the necklace recursion, including pairs
# whose hull collapses to a segment or to 0 at some depth: singular,
# nilpotent and zero.
EDGE_PAIRS = {
    "singular": _singular((Fraction(-2, 3), Fraction(1, 4), 0, 0, Fraction(3, 5),
                           Fraction(-7, 11), Fraction(1, 9), Fraction(2))),
    "nilpotent_product": (0, 1, 0, 0, 0, 0, 1, 0),
    "nilpotent_pair": (0, 1, 0, 0, 0, 2, 0, 0),
    "zero": (0,) * 8,
    "zero_A": (0, 0, 0, 0, Fraction(3, 5), Fraction(-7, 11), Fraction(1, 9), Fraction(2)),
}
exact_pair_st = st.one_of(
    pair_st,
    pair_st.map(_singular),
    st.just((0, 1, 0, 0, 0, 0, 1, 0)),
    st.just((0, 1, 0, 0, 0, 2, 0, 0)),
    st.just((0,) * 8),
    pair_st.map(lambda e: (0, 0, 0, 0, *e[4:])),
)


@st.composite
def main_c_st(draw):
    """c = p/q in (1, 1.125] with p and q of 8 to 96 bits."""
    bits = draw(st.integers(8, 96))
    q = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    return Fraction(draw(st.integers(q + 1, q + q // 8)), q)


def count_kernel_calls(monkeypatch):
    """Wrap words' mul_entries, apply_entries and trace_entries with
    counters; returns the dict of counts, which the calls fill in."""
    calls = {"mul_entries": 0, "apply_entries": 0, "trace_entries": 0}

    def counting(name):
        real = getattr(matrix2, name)

        def kernel(*args):
            calls[name] += 1
            return real(*args)

        return kernel

    for name in calls:
        monkeypatch.setattr(words, name, counting(name), raising=False)
    return calls


def assert_pruned_walk_matches(a, b, n):
    # A wrapped BoxNorm is the same norm through matrix_norm, which expands
    # every node.
    pruned = bit_rows(bounds_table(a, b, n))
    assert pruned == bit_rows(bounds_table(a, b, n, norm=CountingNorm(BoxNorm())))
    assert rho_n(a, b, n) == rho_n(a, b, n, norm=CountingNorm(BoxNorm()))


class TestPrunedWalk:
    """Exact box-norm walks take rho_n from the hull of images and rho_bar_n
    from the necklace recursion, forming far fewer products than the full
    walk; their results are those of the full walk."""

    @settings(max_examples=40, deadline=None)
    @given(exact_pair_st, st.integers(1, 11))
    def test_random_exact_pair(self, entries, n):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        assert_pruned_walk_matches(a, b, n)

    @settings(max_examples=15, deadline=None)
    @given(main_c_st(), st.integers(1, 11))
    def test_random_main_c(self, c, n):
        mset = example_main_special(KappaContext(c))
        assert_pruned_walk_matches(mset.a, mset.b, n)

    def test_exact_main_visits_fewer_than_half_the_nodes(self):
        # 110 hull images, 294 prenecklace products of length 1..9, the
        # four pair products, and the traces of the 108 necklaces of
        # length 10 and the 188 of length 11; the branch and bound walk
        # this replaced formed 1734 products.
        mset = _exact_main(233, 224)
        _, _, visits = words._walk(mset.a, mset.b, 1, 11)
        assert visits == 110 + 294 + 4 + 108 + 188
        _, _, visits = words._walk(mset.a, mset.b, 1, 11, norm=CountingNorm(BoxNorm()))
        assert visits == 2**12 - 2

    def test_exact_oracle_forms_every_product_through_the_kernels(self, monkeypatch):
        # Each hull image is one apply_entries, each prefix product and
        # pair product one mul_entries and each necklace of length 10 or
        # 11 one trace_entries: the kernel calls are the visits of the
        # walk above.
        mset = _exact_main(233, 224)
        expected = bounds_table(mset.a, mset.b, 11)
        calls = count_kernel_calls(monkeypatch)
        assert bounds_table(mset.a, mset.b, 11) == expected
        assert calls == {"mul_entries": 298, "apply_entries": 110, "trace_entries": 296}

    def test_explicit_box_norm_takes_the_hull_and_necklace_route(self, monkeypatch):
        # BoxNorm() is the default norm spelled out: the same kernel calls,
        # not the 4094 nodes of the full tree.
        mset = _exact_main(233, 224)
        expected = bounds_table(mset.a, mset.b, 11)
        calls = count_kernel_calls(monkeypatch)
        assert bounds_table(mset.a, mset.b, 11, norm=BoxNorm()) == expected
        assert calls == {"mul_entries": 298, "apply_entries": 110, "trace_entries": 296}

    def test_hull_scores_are_divided_without_a_fraction(self, monkeypatch):
        # A hull score (num, den) becomes its float by int / int, which
        # rounds as float() of the reduced Fraction does.
        mset = _exact_main(11, 10)
        norms = (None, _polygon(mset, Fraction(5, 4)))
        expected = [bit_rows(bounds_table(mset.a, mset.b, 11, norm=n)) for n in norms]

        def refuse(*args):
            raise AssertionError("a Fraction formed in the word oracle")

        monkeypatch.setattr(words, "Fraction", refuse)
        got = [bit_rows(bounds_table(mset.a, mset.b, 11, norm=n)) for n in norms]
        assert got == expected

    @pytest.mark.parametrize("case", ["main_11_10", *EDGE_PAIRS])
    def test_hull_tops_equal_the_largest_box_norm(self, case):
        if case == "main_11_10":
            mset = _exact_main(11, 10)
            a, b = mset.a, mset.b
        else:
            entries = EDGE_PAIRS[case]
            a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        # The box norm is the polygon norm of the unit square: tops[m] is
        # (D**m times the largest box norm of the 2**m products, D**m).
        d, (ta, tb) = matrix2.scaled_entries((a, b))
        tops, _ = words._hull_tops(ta, tb, *words._SQUARE, d, 9)
        level = [Mat2.identity_like(a)]
        for m in range(1, 10):
            level = [f @ p for p in level for f in (a, b)]
            largest = max(BoxNorm().matrix_norm(p).value for p in level)
            assert tops[m] == (d**m * largest, d**m)


def reference_hull_levels(ta, tb, half, hi):
    """V_1..V_hi of the hull of images, each from every image of the level
    below and its negation, sorted."""
    levels = []
    for _ in range(hi):
        points = set()
        for u in half:
            (ax, ay), (bx, by) = matrix2.apply_entries(ta, u), matrix2.apply_entries(tb, u)
            points.update(((ax, ay), (-ax, -ay), (bx, by), (-bx, -by)))
        half = words._half_hull(sorted(points))
        levels.append(half)
    return levels


def record_hull_levels(monkeypatch):
    """Wrap words._half_hull; returns the list of (points handed in, level
    returned) of each call."""
    calls = []
    real = words._half_hull

    def recording(points):
        half = real(points)
        calls.append((len(points), half))
        return half

    monkeypatch.setattr(words, "_half_hull", recording)
    return calls


class TestHullChains:
    """From level 2 on, the hull sorts only the lower chain of each image
    polygon, read off the vertex cycle of the level below; its levels are
    those of a hull that sorts every image."""

    @settings(max_examples=60, deadline=None)
    @given(exact_pair_st)
    @example(_singular(UNEQUAL_DET_PAIR))
    @example(EDGE_PAIRS["nilpotent_pair"])
    def test_levels_equal_the_sort_of_every_image(self, entries):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        d, (ta, tb) = matrix2.scaled_entries((a, b))
        expected = reference_hull_levels(ta, tb, words._SQUARE[0], 10)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = record_hull_levels(monkeypatch)
            words._hull_tops(ta, tb, *words._SQUARE, d, 10)
        assert [half for _, half in calls] == expected

    def test_levels_under_a_polygon_with_a_clockwise_seed(self, monkeypatch):
        # The exact polygon's six half-vertices run clockwise, so the seed
        # level sorts every image; the levels above read the chains.
        mset = _exact_main(11, 10)
        half, score = _polygon(mset, Fraction(5, 4))._hull()
        cross = [(x1 * y2 - y1 * x2) for (x1, y1), (x2, y2) in zip(half, half[1:])]
        assert all(c < 0 for c in cross)
        d, (ta, tb) = matrix2.scaled_entries((mset.a, mset.b))
        expected = reference_hull_levels(ta, tb, half, 12)
        calls = record_hull_levels(monkeypatch)
        words._hull_tops(ta, tb, half, score, d, 12)
        assert [h for _, h in calls] == expected

    def test_points_sorted_at_233_224(self, monkeypatch):
        # 2h + 2 chain points per level from level 2 on, against the 220
        # distinct images that sorting every image hands in; the seed level
        # hands in all 8 images of the square.
        mset = _exact_main(233, 224)
        expected = bounds_table(mset.a, mset.b, 11)
        calls = record_hull_levels(monkeypatch)
        assert bounds_table(mset.a, mset.b, 11) == expected
        assert [n for n, _ in calls] == [8, 8, 8, 10, 12, 12, 12, 14, 16, 16, 18]
        assert [n for n, _ in calls][1:] == [2 * len(h) + 2 for _, h in calls[:-1]]
        assert sum(n for n, _ in calls) == 134


def count_radius_evaluations(monkeypatch):
    """Wrap matrix2.radius_from_invariants with a counter; returns the list
    whose length is the number of calls."""
    calls = []
    real = matrix2.radius_from_invariants

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matrix2, "radius_from_invariants", counting)
    return calls


class TestTraceScoring:
    """The necklaces are grouped by length and determinant, so within a
    group the radius does not decrease as |trace| grows: a float radius is
    formed for each group's largest |trace|, once for its elliptic members,
    and for the members near the cut."""

    def test_elliptic_blocks_list_every_necklace(self):
        # At c = 233/224 every length-11 product has complex eigenvalues:
        # each group is one elliptic block of radius 1, and all 188
        # necklaces tie.
        mset = _exact_main(233, 224)
        a, b = mset.a, mset.b
        for w in necklaces(11):
            m = evaluate(w, a, b)
            assert m.trace().value ** 2 < 4 * m.det().value
        row = rho_bar_n(a, b, 11)
        assert row.rho_bar == 1.0
        assert len(row.maximizers) == 188
        assert row.maximizers == tuple(necklaces(11))

    def test_elliptic_members_tie_with_real_ones_above_them(self):
        # A quarter turn and a shear by 1/4, both of det 1: at n = 8 and 9
        # no product has a radius above 1, and a group can hold products
        # of trace +-2, scanned first, and elliptic ones, of the same
        # radius 1: every necklace is listed.
        a, b = Mat2.exact(0, -1, 1, 0), Mat2.exact(1, Fraction(1, 4), 0, 1)
        for n in (8, 9):
            row = rho_bar_n(a, b, n)
            assert row.rho_bar == 1.0
            assert row.maximizers == tuple(necklaces(n))
        assert_matches_brute_force(a, b, 8)

    def test_real_ties_past_the_first_eight_members(self, monkeypatch):
        # With A = B every product is a power of A, whose eigenvalues are
        # real: all 36 necklaces of length 8 tie, so the scan runs past the
        # eight largest members into the sorted rest of the group, and
        # forms one radius per member.
        a = Mat2.exact(2, 1, 1, 1)
        calls = count_radius_evaluations(monkeypatch)
        row = rho_bar_n(a, a, 8)
        assert row.maximizers == tuple(necklaces(8))
        assert len(calls) == 36
        assert_matches_brute_force(a, a, 8)

    def test_a_necklace_and_its_reversal_tie_in_one_group(self):
        # A 2x2 product and its reversal have one trace, so a necklace that
        # is not its own reversal ties with that reversal in its group
        # (det A = 11/4, det B = 9/2): the scan past the group's largest
        # |trace| lists both.
        entries = (1, Fraction(-3, 2), Fraction(1, 2), 2, Fraction(-1, 2), -4, 1, -1)
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        row = rho_bar_n(a, b, 7)
        assert [w.display for w in row.maximizers] == ["AABABBB", "AABBBAB"]
        assert_matches_brute_force(a, b, 7)

    def test_radius_evaluations_at_251_236(self, monkeypatch):
        # det A = det B, so the 188 necklaces of length 11 are one group:
        # one radius for its largest |trace|, one for the second maximizer,
        # which ties with it, and one for the next |trace|, which falls
        # below the cut.  Grouped by count of B, the 12 groups took 14; a
        # radius for every necklace would take 32: its 20 products with
        # real eigenvalues and one per elliptic group.
        mset = _exact_main(251, 236)
        expected = rho_bar_n(mset.a, mset.b, 11)
        calls = count_radius_evaluations(monkeypatch)
        row = rho_bar_n(mset.a, mset.b, 11)
        assert row == expected
        assert [w.display for w in row.maximizers] == ["AABAABABBAB", "AABABBABBAB"]
        assert len(calls) == 3

    def test_radius_evaluations_with_opposite_determinants(self, monkeypatch):
        # det A = 3/2 = -det B: the necklaces of length 11 fall into two
        # groups by the parity of their count of B, one radius each, and one
        # more for the next |trace| in the maximizer's group, below the cut.
        # Grouped by count of B, the 12 groups took 13.
        a = Mat2.exact(Fraction(1, 2), 1, Fraction(-3, 2), 0)
        b = Mat2.exact(1, Fraction(1, 3), Fraction(3, 2), -1)
        assert a.det().value == -b.det().value
        expected = rho_bar_n(a, b, 11)
        calls = count_radius_evaluations(monkeypatch)
        row = rho_bar_n(a, b, 11)
        assert row == expected
        assert [w.display for w in row.maximizers] == ["AAAABABABAB"]
        assert len(calls) == 3
        assert_matches_brute_force(a, b, 9)

    def test_radius_evaluations_with_unequal_determinants(self, monkeypatch):
        # det A = 11/8 and det B = -5/6 differ in absolute value, so each of
        # the 12 counts of B at n = 11 has a determinant of its own: one
        # radius per group, and one more in the maximizer's group.
        entries = UNEQUAL_DET_PAIR
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        expected = rho_bar_n(a, b, 11)
        calls = count_radius_evaluations(monkeypatch)
        row = rho_bar_n(a, b, 11)
        assert row == expected
        assert [w.display for w in row.maximizers] == ["AAAABABABAB"]
        assert len(calls) == 13


def record_scores():
    """(patch, kept): while the patch is active, each words._Scores a walk
    makes is appended to the list kept."""
    kept = []

    class Recording(words._Scores):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    return mock.patch.object(words, "_Scores", Recording), kept


def denominators_lcm(a, b):
    return math.lcm(*(Fraction(x).denominator for x in (*a._values(), *b._values())))


def brute_groups(a, b, k):
    """The necklaces of length k by determinant, apart from the walk: each
    necklace's (|trace|, code), its product's trace and determinant scaled
    by D**k and D**(2k), D the lcm of the pair's entry denominators."""
    d = denominators_lcm(a, b)
    groups = defaultdict(list)
    for w in necklaces(k):
        m = evaluate(w, a, b)
        trace, det = m.trace().value * d**k, m.det().value * d ** (2 * k)
        assert trace.denominator == det.denominator == 1
        code = int(w.display.translate(str.maketrans("AB", "01")), 2)
        groups[int(det)].append((abs(int(trace)), code))
    return {det: sorted(g) for det, g in groups.items()}


def assert_recorded_groups_match(a, b, n_max):
    patch, kept = record_scores()
    with patch:
        bounds_table(a, b, n_max)
        rho_bar_n(a, b, n_max)
    table, single = kept
    da, db = (m.det().value for m in (a, b))
    d = denominators_lcm(a, b)
    for k in range(1, n_max + 1):
        expected = brute_groups(a, b, k)
        assert {det: sorted(g) for det, g in table.groups[k].items()} == expected
        # lists[k][nb] is the group of the count nb of B.
        for nb in range(k + 1):
            det = da ** (k - nb) * db**nb * d ** (2 * k)
            assert table.lists[k][nb] is table.groups[k][det]
        # rho_bar_n records its own length only.
        recorded = {det: sorted(g) for det, g in single.groups[k].items() if g}
        assert recorded == (expected if k == n_max else {})


def enumerated_lists(a, b, n, lo):
    """lists[k][nb] of _prenecklaces with factors, apart from the walk:
    for each length k = lo..n, the (|trace|, code) of every word that is
    its own least rotation, in code order, its trace D**k times that of
    evaluate() on the pair read as Fractions."""
    a, b = dyadic(a), dyadic(b)
    d = denominators_lcm(a, b)
    lists = [[[] for _ in range(k + 1)] for k in range(n + 1)]
    for k in range(max(lo, 1), n + 1):
        for code in range(2**k):
            s = format(code, f"0{k}b").translate(str.maketrans("01", "AB"))
            if s == min(s[i:] + s[:i] for i in range(k)):
                trace = evaluate(Word.from_display(s), a, b).trace().value * d**k
                assert trace.denominator == 1
                lists[k][s.count("B")].append((abs(int(trace)), code))
    return lists


walk_pair_st = st.one_of(
    pair_st,  # unequal determinants, one negative, about two times in three
    pair_st.map(_singular),  # det A = 0
    float_pair_st,
)


class TestNecklaceGroups:
    """The walk appends each necklace's (|trace|, code) straight to the
    group of its length and determinant; the groups are those of a brute
    force over necklaces(k), and the walk leaves no reference cycle."""

    @settings(max_examples=40, deadline=None)
    @given(walk_pair_st, st.integers(1, 10), st.sampled_from([1, -2, -1, 0]))
    @example(UNEQUAL_DET_PAIR, 10, -2)
    @example(SINGULAR_NEGDET_PAIR, 10, -1)
    @example(CROSS_TIE_PAIR, 3, -2)
    @example(SINGULAR_NEGDET_PAIR, 2, 1)
    @example(UNEQUAL_DET_PAIR, 1, 0)
    def test_prenecklace_lists_match_an_enumeration(self, entries, n, lo):
        # lo is 1 or n - 2, n - 1 or n: the last two lengths, which are
        # formed from the prefixes of length n - 2 inline, cut by lo or not.
        lo = max(1, lo if lo == 1 else n + lo)
        make = Mat2.flt if isinstance(entries[0], float) else Mat2.exact
        a, b = make(*entries[:4]), make(*entries[4:])
        _, flat = matrix2.common_scale((*a._values(), *b._values()))
        lists = [[[] for _ in range(k + 1)] for k in range(n + 1)]
        words._prenecklaces(n, lists, lo, (tuple(flat[:4]), tuple(flat[4:])))
        expected = enumerated_lists(a, b, n, lo)
        assert lists == expected
        # Without factors, the same necklaces as bare codes.
        codes = [[[] for _ in range(k + 1)] for k in range(n + 1)]
        words._prenecklaces(n, codes, lo)
        assert codes == [[[c for _, c in g] for g in row] for row in expected]

    @pytest.mark.parametrize(
        "case", ["main_233_224", "main_251_236", "unequal_det", "singular_negdet"]
    )
    def test_recorded_groups_match_brute_force(self, case):
        if case.startswith("main"):
            mset = _exact_main(*map(int, case.split("_")[1:]))
            a, b = mset.a, mset.b
        else:
            entries = {"unequal_det": UNEQUAL_DET_PAIR, "singular_negdet": SINGULAR_NEGDET_PAIR}
            a, b = Mat2.exact(*entries[case][:4]), Mat2.exact(*entries[case][4:])
        assert_recorded_groups_match(a, b, 10)

    @settings(max_examples=10, deadline=None)
    @given(pair_st, st.integers(1, 8))
    def test_random_exact_pair(self, entries, n_max):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        assert_recorded_groups_match(a, b, n_max)

    def test_tree_walk_records_the_same_groups(self, main_exact):
        patch, kept = record_scores()
        with patch:
            bounds_table(main_exact.a, main_exact.b, 7)
            bounds_table(main_exact.a, main_exact.b, 7, norm=CountingNorm(BoxNorm()))
        necklace, tree = kept
        for k in range(1, 8):
            assert {det: sorted(g) for det, g in tree.groups[k].items()} == {
                det: sorted(g) for det, g in necklace.groups[k].items()
            }

    @pytest.mark.parametrize("norm", [None, "tree"])
    def test_scores_are_freed_on_return(self, main_exact, norm):
        # The recursion refers to itself; with that cycle broken, the
        # scores of a walk, which hold every necklace's trace, are freed
        # without a cyclic collection, and the walk leaves no cyclic
        # garbage.
        norm = CountingNorm(BoxNorm()) if norm else None
        patch, kept = record_scores()
        with patch:
            gc.collect()
            gc.disable()
            try:
                bounds_table(main_exact.a, main_exact.b, 9, norm=norm)
                (scores,) = (weakref.ref(x) for x in kept)
                kept.clear()
                freed = scores() is None
                garbage = gc.collect()
            finally:
                gc.enable()
        assert freed and garbage == 0


# Exact polygons whose gauge is a norm: (c, mu) of the main pair.
CONVEX_POLYGONS = [
    ((11, 10), Fraction(121, 100)),
    ((11, 10), Fraction(5, 4)),
    ((11, 10), Fraction(129, 100)),
    ((11, 10), Fraction(13, 10)),
    ((11, 10), Fraction(34, 25)),
    ((233, 224), Fraction(217, 200)),
]


def count_polygon_norms(monkeypatch):
    """Wrap Polygon.matrix_norm with a counter; returns the list whose
    length is the number of calls."""
    calls = []
    real = Polygon.matrix_norm

    def counting(self, m, *args):
        calls.append(m)
        return real(self, m, *args)

    monkeypatch.setattr(Polygon, "matrix_norm", counting)
    return calls


class TestPolygonHull:
    """A pair under a polygon whose gauge, read exactly, is a norm takes the
    hull of images, as under the box norm; every other norm object walks
    the tree."""

    @pytest.mark.parametrize(
        "c, mu", CONVEX_POLYGONS, ids=[f"{p}/{q}-{mu}" for (p, q), mu in CONVEX_POLYGONS]
    )
    def test_hull_rows_equal_the_tree_walk(self, c, mu):
        mset = _exact_main(*c)
        poly = _polygon(mset, mu)
        counter = CountingNorm(poly)
        tree = bit_rows(bounds_table(mset.a, mset.b, 12, norm=counter))
        assert counter.calls == 2**13 - 2
        assert bit_rows(bounds_table(mset.a, mset.b, 12, norm=poly)) == tree

    def test_convex_polygon_forms_no_mat2_product_and_no_matrix_norm(self, monkeypatch):
        mset = _exact_main(11, 10)
        poly = _polygon(mset, Fraction(5, 4))
        expected = bit_rows(bounds_table(mset.a, mset.b, 10, norm=CountingNorm(poly)))

        def refuse(*args):
            raise AssertionError("a Mat2 product or a matrix_norm call")

        monkeypatch.setattr(Polygon, "matrix_norm", refuse)
        monkeypatch.setattr(Mat2, "__matmul__", refuse)
        assert bit_rows(bounds_table(mset.a, mset.b, 10, norm=poly)) == expected
        assert float(rho_n(mset.a, mset.b, 10, norm=poly)).hex() == expected[-1][2] == (1.21).hex()
        _, _, visits = words._walk(mset.a, mset.b, 1, 10, norm=poly)
        assert visits < 2**11 - 2

    def test_non_convex_polygon_walks_the_tree(self, monkeypatch):
        mset = _exact_main(11, 10)
        poly = _polygon(mset, Fraction(26, 25))
        expected = bit_rows(bounds_table(mset.a, mset.b, 8, norm=CountingNorm(poly)))
        calls = count_polygon_norms(monkeypatch)
        assert bit_rows(bounds_table(mset.a, mset.b, 8, norm=poly)) == expected
        assert len(calls) == 2**9 - 2

    def test_box_norm_subclass_and_wrapper_walk_the_tree(self, main_exact):
        class Box(BoxNorm):
            pass

        a, b = main_exact.a, main_exact.b
        expected = bit_rows(bounds_table(a, b, 8))
        counter = CountingNorm(Box())
        assert bit_rows(bounds_table(a, b, 8, norm=counter)) == expected
        assert counter.calls == 2**9 - 2
        _, _, visits = words._walk(a, b, 1, 8, norm=Box())
        assert visits == 2**9 - 2

    def test_wrapped_polygon_walks_the_tree(self, monkeypatch):
        mset = _exact_main(11, 10)
        counter = CountingNorm(_polygon(mset, Fraction(5, 4)))
        calls = count_polygon_norms(monkeypatch)
        rho_n(mset.a, mset.b, 6, norm=counter)
        assert counter.calls == len(calls) == 2**6

    def test_mixed_backends_raise_under_a_polygon(self, main_exact, main_float):
        poly = _polygon(main_exact, Fraction(5, 4))
        float_poly = _polygon(main_float, 1.25)
        for norm in (poly, float_poly):
            with pytest.raises(BackendMismatchError):
                rho_n(main_exact.a, main_float.b, 3, norm=norm)
            with pytest.raises(BackendMismatchError):
                rho_n(main_float.a, main_exact.b, 3, norm=norm)
        # A float polygon is refused with an exact pair, before either is
        # read as ints.
        with pytest.raises(BackendMismatchError):
            rho_n(main_exact.a, main_exact.b, 3, norm=float_poly)


# A real number rounds to a float past the largest, inf, from here on.
FLOAT_OVERFLOW = Fraction(2**1024 - 2**970)


def least_overflow_length(a, b, lo, hi, radii=True, norms=True):
    """Apart from the walk: the least length k = lo..hi at which, on the
    pair read exactly, some product's spectral radius (when `radii`) or box
    norm (when `norms`) rounds past the float range, or None.  The radius
    is compared on Fractions: with disc = t**2 - 4 det, it is sqrt(det)
    when disc < 0 and (|t| + sqrt(disc)) / 2 otherwise."""
    a, b = dyadic(a), dyadic(b)
    level = [Mat2.identity_like(a)]
    for k in range(1, hi + 1):
        level = [f @ p for p in level for f in (a, b)]
        if k < lo:
            continue
        for m in level:
            t, det = m.trace().value, m.det().value
            disc, s = t * t - 4 * det, 2 * FLOAT_OVERFLOW - abs(t)
            radius_over = det >= FLOAT_OVERFLOW**2 if disc < 0 else s <= 0 or disc >= s * s
            if (radii and radius_over) or (norms and BoxNorm().matrix_norm(m).value >= FLOAT_OVERFLOW):
                return k
    return None


class TestFloatOverflow:
    """A float pair is read exactly: a score past the float range is an
    error naming the least word length, and a non-finite entry is refused
    up front."""

    @pytest.mark.parametrize(
        "call, length",
        [
            (lambda a, b: rho_bar_n(a, b, 5), 5),
            (lambda a, b: rho_n(a, b, 4), 4),
            (lambda a, b: rho_n(a, b, 4, norm=BoxNorm()), 4),
            (lambda a, b: rho_bar_n(a, b, 4), 4),
            (lambda a, b: bounds_table(a, b, 5), 4),
        ],
    )
    def test_raises_naming_the_least_word_length(self, call, length):
        mset = example_main(1e100, DISTINGUISHED_PHI)
        with pytest.raises(ValueError, match=f"float range at word length {length}:"):
            call(mset.a, mset.b)

    @pytest.mark.parametrize(
        "lo, hi, radii, norms, length",
        [(5, 5, True, False, 5), (4, 4, False, True, 4), (4, 4, True, False, 4),
         (1, 5, True, True, 4), (2, 2, True, True, None), (3, 3, True, False, None)],
    )
    def test_overflow_lengths_match_a_fraction_brute_force(self, lo, hi, radii, norms, length):
        # The lengths above, recomputed on Fractions: the largest radius at
        # length 2 is about 1e200, whose square is not a float, and at
        # length 3 about 1e200 too; the first to leave the float range are
        # the radii and the box norms at length 4.
        mset = example_main(1e100, DISTINGUISHED_PHI)
        assert least_overflow_length(mset.a, mset.b, lo, hi, radii, norms) == length

    def test_finite_rows_below_the_overflow_are_unchanged(self):
        mset = example_main(1e100, DISTINGUISHED_PHI)
        assert float(rho_n(mset.a, mset.b, 3)) == 9.999999999999872e99
        assert bounds_table(mset.a, mset.b, 1)[0].rho == 1e100
        # A radius whose square leaves the float range is still a float.
        assert rho_bar_n(mset.a, mset.b, 2).rho_bar == 1e100
        assert [row.rho_bar for row in bounds_table(mset.a, mset.b, 3)][1:] == [
            1e100, 4.6415888336127394e66
        ]

    def test_radius_whose_square_overflows_is_a_float(self):
        big, eye = Mat2.flt(1e200, 0.0, 0.0, 1.0), Mat2.flt(1.0, 0.0, 0.0, 1.0)
        row = bounds_table(big, eye, 1)[0]
        assert (row.rho_bar, row.rho) == (1e200, 1e200)
        with pytest.raises(ValueError, match="float range at word length 2:"):
            bounds_table(big, eye, 2)

    def test_nan_row_does_not_hide_behind_a_finite_row(self):
        # A nan entry has no exact value, so the pair is refused before any
        # product is formed.
        nan_first_row = Mat2.flt(math.nan, 0.0, 1.0, 1.0)
        eye = Mat2.flt(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="entries must be finite, got nan$"):
            rho_n(nan_first_row, eye, 1)

    @pytest.mark.parametrize(
        "norm", [BoxNorm(), CountingNorm(BoxNorm())], ids=["box", "wrapped box"]
    )
    def test_nan_row_raises_under_an_explicit_box_norm(self, norm):
        nan_first_row = Mat2.flt(math.nan, 0.0, 1.0, 1.0)
        eye = Mat2.flt(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="entries must be finite, got nan$"):
            rho_n(nan_first_row, eye, 1, norm=norm)

    def test_wrapped_norm_past_the_float_range_raises(self):
        # The entries are finite, but the wrapped box norm's float row sum
        # 2e308 is inf.
        a, eye = Mat2.flt(1e308, 1e308, 0.0, 0.0), Mat2.flt(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="at word length 1:"):
            rho_n(a, eye, 1, norm=CountingNorm(BoxNorm()))

    @pytest.mark.parametrize("m", [
        Mat2.flt(math.nan, 0.0, 1.0, 1.0), Mat2.flt(1.0, 1.0, math.nan, 0.0),
    ], ids=["first row", "second row"])
    def test_box_norm_of_a_nan_row_is_nan(self, m):
        assert math.isnan(BoxNorm().matrix_norm(m).value)


class TestFloatPairIsDyadic:
    """A float pair is the exact pair of its entries, each the dyadic
    rational it stands for: its table is that pair's, bit for bit."""

    @pytest.mark.parametrize("mu", [None, 1.25], ids=["box", "polygon"])
    @settings(max_examples=25, deadline=None)
    @given(float_pair_st, st.integers(1, 8))
    def test_random_float_pair_is_its_exact_pair(self, mu, entries, n_max):
        a, b = Mat2.flt(*entries[:4]), Mat2.flt(*entries[4:])
        norm = exact_norm = None
        if mu is not None:
            norm = _polygon(example_main(1.331, DISTINGUISHED_PHI), mu)
            exact_norm = dyadic_polygon(norm)
        got = bit_rows(bounds_table(a, b, n_max, norm=norm))
        assert got == bit_rows(bounds_table(dyadic(a), dyadic(b), n_max, norm=exact_norm))

    def test_powers_of_one_class_print_one_value(self):
        # AAB, AABAAB and AABAABAAB are powers of one class, so their
        # rooted radii are one number.
        mset = example_alt(1.331, DISTINGUISHED_PHI)
        rows = bounds_table(mset.a, mset.b, 9)
        assert {rows[n - 1].rho_bar for n in (3, 6, 9)} == {1.1801381103921764}

    def test_infinite_entry_is_refused(self):
        eye = Mat2.flt(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="entries must be finite, got -inf$"):
            bounds_table(eye, Mat2.flt(1.0, -math.inf, 0.0, 1.0), 2)


class TestExactOverflow:
    """An exact score too large for a float is an error naming the least
    word length, as on the float backend, not an OverflowError."""

    C40 = 10**40  # A has the entries 10**120 and 10**-120

    @pytest.mark.parametrize(
        "call, length",
        [
            (lambda a, b, poly: rho_bar_n(a, b, 4), 4),
            (lambda a, b, poly: rho_bar_n(a, b, 5), 5),
            (lambda a, b, poly: rho_n(a, b, 3), 3),
            (lambda a, b, poly: rho_n(a, b, 4, norm=BoxNorm()), 4),
            (lambda a, b, poly: rho_n(a, b, 3, norm=poly), 3),
            (lambda a, b, poly: bounds_table(a, b, 4), 3),
            (lambda a, b, poly: bounds_table(a, b, 4, norm=poly), 3),
        ],
        ids=[
            "rho_bar_n 4", "rho_bar_n 5", "rho_n 3", "rho_n 4 box", "rho_n 3 polygon",
            "bounds_table 4", "bounds_table 4 polygon",
        ],
    )
    def test_raises_naming_the_least_word_length(self, call, length):
        mset = _exact_main(self.C40, 1)
        poly = _polygon(mset, Scalar.exact(Fraction(5, 4)))
        with pytest.raises(ValueError, match=f"float range at word length {length}:"):
            call(mset.a, mset.b, poly)

    @pytest.mark.parametrize(
        "lo, hi, radii, norms, length",
        [(4, 4, True, False, 4), (5, 5, True, False, 5), (3, 3, False, True, 3),
         (1, 4, True, True, 3), (1, 3, True, False, None)],
    )
    def test_overflow_lengths_match_a_fraction_brute_force(self, lo, hi, radii, norms, length):
        # The box-norm lengths above, recomputed on Fractions: the radii
        # fit a float to length 3 (about 1e240 at length 2), the box norms
        # to length 2.
        mset = _exact_main(self.C40, 1)
        assert least_overflow_length(mset.a, mset.b, lo, hi, radii, norms) == length

    def test_rows_below_the_overflow_are_unchanged(self):
        mset = _exact_main(self.C40, 1)
        a, b = mset.a, mset.b
        products = (evaluate(Word.from_display(s), a, b) for s in ("AA", "AB", "BA", "BB"))
        box = max(BoxNorm().matrix_norm(m) for m in products)
        assert float(rho_n(a, b, 2)) == float(box) ** 0.5
        assert bounds_table(a, b, 1)[0].rho == 1e120
        assert rho_bar_n(a, b, 1).rho_bar == 1.0
        # The largest radius at length 2 is 1e240, whose square is not a
        # float.
        assert rho_bar_n(a, b, 2).rho_bar == 1e120

    def test_radius_whose_square_is_below_the_float_range(self):
        # det A = 3e-400 and the discriminants round to 0.0; the radii
        # 3e-200 of A and 2e-200 of B do not.
        tiny = Fraction(1, 10**200)
        a, b = Mat2.exact(tiny, 0, 0, 3 * tiny), Mat2.exact(2 * tiny, 0, 0, 0)
        assert rho_bar_n(a, b, 1).rho_bar == 3e-200
