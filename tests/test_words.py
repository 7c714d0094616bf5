import math
from fractions import Fraction

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
    def test_random_exact_pair(self, entries, n):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
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
    def test_random_exact_pair(self, entries, n_max):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
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
    """Wrap words' mul_entries and apply_entries with counters; returns the
    dict of counts, which the calls fill in."""
    calls = {"mul_entries": 0, "apply_entries": 0}

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
        # 110 hull images and 932 prenecklace products; the branch and
        # bound walk this replaced formed 1734 products.
        mset = _exact_main(233, 224)
        _, _, visits = words._walk(mset.a, mset.b, 1, 11)
        assert visits == 110 + 932
        _, _, visits = words._walk(mset.a, mset.b, 1, 11, norm=CountingNorm(BoxNorm()))
        assert visits == 2**12 - 2

    def test_exact_oracle_forms_every_product_through_the_kernels(self, monkeypatch):
        # Each hull image is one apply_entries and each prefix product one
        # mul_entries: the kernel calls are the visits of the walk above.
        mset = _exact_main(233, 224)
        expected = bounds_table(mset.a, mset.b, 11)
        calls = count_kernel_calls(monkeypatch)
        assert bounds_table(mset.a, mset.b, 11) == expected
        assert calls == {"mul_entries": 932, "apply_entries": 110}

    def test_explicit_box_norm_takes_the_hull_and_necklace_route(self, monkeypatch):
        # BoxNorm() is the default norm spelled out: the same kernel calls,
        # not the 4094 nodes of the full tree.
        mset = _exact_main(233, 224)
        expected = bounds_table(mset.a, mset.b, 11)
        calls = count_kernel_calls(monkeypatch)
        assert bounds_table(mset.a, mset.b, 11, norm=BoxNorm()) == expected
        assert calls == {"mul_entries": 932, "apply_entries": 110}

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


class TestFloatOverflow:
    """A float pair is read exactly: a score past the float range is an
    error naming the least word length, and a non-finite entry is refused
    up front."""

    @pytest.mark.parametrize(
        "call, length",
        [
            (lambda a, b: rho_bar_n(a, b, 2), 2),
            (lambda a, b: rho_bar_n(a, b, 5), 5),
            (lambda a, b: rho_n(a, b, 4), 4),
            (lambda a, b: rho_n(a, b, 4, norm=BoxNorm()), 4),
            (lambda a, b: bounds_table(a, b, 3), 2),
        ],
    )
    def test_raises_naming_the_least_word_length(self, call, length):
        mset = example_main(1e100, DISTINGUISHED_PHI)
        with pytest.raises(ValueError, match=f"float range at word length {length}:"):
            call(mset.a, mset.b)

    def test_finite_rows_below_the_overflow_are_unchanged(self):
        mset = example_main(1e100, DISTINGUISHED_PHI)
        assert float(rho_n(mset.a, mset.b, 3)) == 9.999999999999872e99
        assert bounds_table(mset.a, mset.b, 1)[0].rho == 1e100

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


float_entry_st = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
float_pair_st = st.tuples(*([float_entry_st] * 8))


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
            (lambda a, b, poly: rho_bar_n(a, b, 2), 2),
            (lambda a, b, poly: rho_bar_n(a, b, 5), 5),
            (lambda a, b, poly: rho_n(a, b, 3), 3),
            (lambda a, b, poly: rho_n(a, b, 4, norm=BoxNorm()), 4),
            (lambda a, b, poly: rho_n(a, b, 3, norm=poly), 3),
            (lambda a, b, poly: bounds_table(a, b, 4), 2),
            (lambda a, b, poly: bounds_table(a, b, 4, norm=poly), 2),
        ],
        ids=[
            "rho_bar_n 2", "rho_bar_n 5", "rho_n 3", "rho_n 4 box", "rho_n 3 polygon",
            "bounds_table 4", "bounds_table 4 polygon",
        ],
    )
    def test_raises_naming_the_least_word_length(self, call, length):
        mset = _exact_main(self.C40, 1)
        poly = _polygon(mset, Scalar.exact(Fraction(5, 4)))
        with pytest.raises(ValueError, match=f"float range at word length {length}:"):
            call(mset.a, mset.b, poly)

    def test_rows_below_the_overflow_are_unchanged(self):
        mset = _exact_main(self.C40, 1)
        a, b = mset.a, mset.b
        products = (evaluate(Word.from_display(s), a, b) for s in ("AA", "AB", "BA", "BB"))
        box = max(BoxNorm().matrix_norm(m) for m in products)
        assert float(rho_n(a, b, 2)) == float(box) ** 0.5
        assert bounds_table(a, b, 1)[0].rho == 1e120
        assert rho_bar_n(a, b, 1).rho_bar == 1.0
