"""The exact certificate's int paths against their Mat2 references.

verify_tau, normalize, eigenvectors_from_products, build_polygon,
vertex_order_check and verify_inclusions decide every exact check on
scaled ints and build a Fraction only for a value the certificate stores.
These tests compare each int path with the same computation on Mat2 @,
similarity, eigenvector_unit_first, Scalar arithmetic and the index-order
polygon_gauge, on seeded random inputs and the certify_exact benchmark
inputs (tests/data/certify_exact_inputs.txt), check that certify_smp runs
no exact Mat2 @, and pin how many Fractions the inclusions reduce.  The
float build_polygon, on the same tuple kernels, is checked bit for bit
against the Mat2 @ construction, and the one normalize body, on floats,
against the Mat2 @ and Mat2.isclose normalize it replaced.  The one
eigenvector routine, matrix2.unit_first_vector, is checked against a copy
of the Scalar body it replaced, on scaled ints and on floats (hex for hex),
and the float fixed vectors and is_irreducible run no Mat2 @.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_words import exact_pair_st

from smpverify import families, polytope
from smpverify.families import (
    DISTINGUISHED_PHI,
    custom_set,
    eigenvectors_from_products,
    example_alt,
    example_main,
    example_main_special,
    normalize,
    swap_pair,
)
from smpverify.matrix2 import (
    EigenvectorError,
    Mat2,
    SingularMatrixError,
    Vec2,
    dot,
    eigenvector_unit_first,
    rot90,
    scaled_entries,
    similarity,
    spectral_radius,
    unit_first_vector,
)
from smpverify.permutability import TauMap, is_irreducible, verify_tau
from smpverify.polytope import (
    CheckResult,
    Polygon,
    build_polygon,
    certify_smp,
    convexity_check,
    images,
    mu_thresholds,
    polygon_gauge,
    verify_inclusions,
    vertex_order_check,
)
from smpverify.scalar import REL_TOL, BackendMismatchError, KappaContext, Scalar

small = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def main_c_mu(draw):
    """(c, mu): c in [1.001, 1.14] with a denominator of 10, 32 or 96 bits, mu
    inside [mu1, mu2] or within 20% of it, of the same size (at least 1/2)."""
    bits = draw(st.sampled_from((10, 32, 96)))
    c = draw(st.fractions(Fraction(1001, 1000), Fraction(114, 100), max_denominator=2**bits))
    _, mu1, mu2, _ = mu_thresholds(KappaContext(c))
    lo, hi = sorted((mu1.value, mu2.value))
    t = draw(st.fractions(Fraction(-1, 5), Fraction(6, 5), max_denominator=2**bits))
    return c, max(lo + (hi - lo) * t, Fraction(1, 2))


def outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_tau(a: Mat2, b: Mat2, s: Mat2) -> bool:
    try:
        return similarity(s, a) == b and similarity(s, b) == a
    except SingularMatrixError:
        return False


class TestVerifyTau:
    @settings(max_examples=80, deadline=None)
    @given(exact_pair_st, st.tuples(small, small, small, small))
    def test_random_pairs_and_matrices(self, entries, s):
        a, b = Mat2.exact(*entries[:4]), Mat2.exact(*entries[4:])
        tau = Mat2.exact(*s)
        assert verify_tau(a, b, TauMap(tau)) == reference_tau(a, b, tau)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(small, small, small, small), small, small, small)
    def test_traceless_swaps(self, entries, p, q, r):
        # A traceless S squares to -det(S) I, so S swaps A with S^-1 A S.
        a, s = Mat2.exact(*entries), Mat2.exact(p, q, r, -p)
        b = similarity(s, a) if p * p + q * r else a
        assert verify_tau(a, b, TauMap(s)) == reference_tau(a, b, s)

    @settings(max_examples=30, deadline=None)
    @given(main_c_mu())
    def test_main_pairs(self, case):
        mset = example_main_special(KappaContext(case[0]))
        eye, singular = Mat2.exact(1, 0, 0, 1), Mat2.exact(2, 3, 4, 6)
        for s in (mset.tau_s, -mset.tau_s, eye, singular, mset.a):
            expected = reference_tau(mset.a, mset.b, s)
            assert verify_tau(mset.a, mset.b, TauMap(s)) == expected
        assert verify_tau(mset.a, mset.b, TauMap(mset.tau_s))
        assert not verify_tau(mset.a, mset.b, TauMap(eye))
        assert not verify_tau(mset.a, mset.b, TauMap(singular))


def eigenvalue_one_st():
    """Matrices with eigenvalue 1, simple or not, and some without it."""

    def with_one(e):
        m11, m12, m21, m22 = e
        if m11 != 1:
            m22 = 1 + m12 * m21 / (m11 - 1)
        return m11, m12, m21, m22

    quads = st.tuples(small, small, small, small)
    return st.one_of(
        quads,
        quads.map(with_one),
        st.tuples(st.just(1), small, st.just(0), small),
        st.tuples(small, st.just(0), small, st.just(1)),
        st.tuples(st.just(1), st.just(0), small, st.just(1)),
    )


def reference_eigenvector_unit_first(m: Mat2, lam, rel_tol=REL_TOL) -> Vec2:
    """eigenvector_unit_first as a body of Scalar arithmetic on the entries
    of m, with the same tests, messages and row choice: the reference of
    the one routine on scaled entries, matrix2.unit_first_vector."""
    if isinstance(lam, int):
        lam = Scalar.exact(lam) if m.is_exact else Scalar.flt(lam)
    exact = m.is_exact
    if exact is not lam.is_exact:
        raise BackendMismatchError("cannot combine exact and float values")
    t, d = m.trace(), m.det()
    residual = lam * lam - t * lam + d
    simple = lam * 2 - t
    if exact:
        if residual != 0:
            raise EigenvectorError(f"{lam} is not an eigenvalue")
        if simple == 0:
            raise EigenvectorError("eigenvalue is not simple")
    else:
        lam_f = float(lam)
        if abs(float(residual)) > rel_tol * max(1.0, lam_f * lam_f):
            raise EigenvectorError(f"{lam} is not an eigenvalue (residual too large)")
        if abs(float(simple)) <= rel_tol * max(1.0, abs(lam_f)):
            raise EigenvectorError("eigenvalue is not simple")
    rows = ((m.m11 - lam, m.m12), (m.m21, m.m22 - lam))
    if exact:
        row = rows[0] if (rows[0][0] != 0 or rows[0][1] != 0) else rows[1]
    else:
        row = max(rows, key=lambda r: abs(float(r[0])) + abs(float(r[1])))
    a, b = row
    x1, x2 = b, -a
    if exact:
        first_zero = x1 == 0
    else:
        first_zero = abs(float(x1)) <= rel_tol * abs(float(x2))
    if first_zero:
        raise EigenvectorError("eigenvector is parallel to (0, 1)")
    return Vec2(Scalar.one_like(x1), x2 / x1)


def hex_outcome(fn, *args):
    """outcome, with float vector entries as hex strings."""
    got = outcome(fn, *args)
    if isinstance(got, Vec2):
        got = (got,)
    if isinstance(got[0], type):
        return got
    return [(x.x1.value.hex(), x.x2.value.hex()) for x in got]


class TestFixedVectors:
    @settings(max_examples=150, deadline=None)
    @given(eigenvalue_one_st(), st.integers(1, 7), st.sampled_from((1, Fraction(3, 2), -2)))
    def test_int_extraction_matches_eigenvector_unit_first(self, entries, scale, lam):
        # The one routine on the scaled ints, times an extra scale, against
        # the Scalar body.
        m = Mat2.exact(*entries)
        expected = outcome(reference_eigenvector_unit_first, m, Scalar.exact(lam))
        s, (ints,) = scaled_entries((m,))
        s, ints = s * scale, tuple(e * scale for e in ints)
        assert outcome(unit_first_vector, ints, s, lam) == expected
        assert outcome(eigenvector_unit_first, m, Scalar.exact(lam)) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        eigenvalue_one_st(),
        st.sampled_from((0.0, 1e-15, -3e-13, 1e-9)),
        st.sampled_from((1, 1.0, 1.5, -2.0)),
        st.sampled_from((REL_TOL, 1e-16, 0.0, 1e-6)),
    )
    def test_float_extraction_matches_scalar_body(self, entries, shift, lam, rel_tol):
        # Rounded and shifted entries put the tests near their tolerances.
        m = Mat2.flt(*(float(e) + shift for e in entries))
        lam = lam if isinstance(lam, int) else Scalar.flt(lam)
        expected = hex_outcome(reference_eigenvector_unit_first, m, lam, rel_tol)
        assert hex_outcome(eigenvector_unit_first, m, lam, rel_tol) == expected

    @settings(max_examples=30, deadline=None)
    @given(main_c_mu())
    def test_main_pairs(self, case):
        norm = normalize(example_main_special(KappaContext(case[0])))
        at, bt = norm.at, norm.bt
        expected = tuple(
            reference_eigenvector_unit_first(m, 1) for m in (bt @ at @ at, bt @ bt @ at)
        )
        assert eigenvectors_from_products(norm) == expected

    def test_error_paths_match(self, main_exact, ctx11):
        # B and A exchanged: the fixed direction of B~A~A~ is then (0, 1).
        norm = normalize(custom_set(main_exact.b, main_exact.a, ctx=ctx11))
        at, bt = norm.at, norm.bt
        expected = outcome(reference_eigenvector_unit_first, bt @ at @ at, 1)
        assert expected == (EigenvectorError, "eigenvector is parallel to (0, 1)")
        assert outcome(eigenvectors_from_products, norm) == expected


def float_reference_fixed_vectors(norm, rel_tol=REL_TOL):
    """v, w of eigenvectors_from_products on the float backend, through
    Mat2 @ and the Scalar body."""
    at, bt = norm.at, norm.bt
    return tuple(
        reference_eigenvector_unit_first(m, Scalar.flt(1.0), rel_tol)
        for m in (bt @ at @ at, bt @ bt @ at)
    )


class TestFloatFixedVectors:
    """The float fixed vectors come from the tuple products and the one
    routine; they are those of Mat2 @ and the Scalar body bit for bit,
    with the same errors."""

    @settings(max_examples=80, deadline=None)
    @example("main", 1.331, REL_TOL)
    @example("alt", 1.331, REL_TOL)
    @given(
        st.sampled_from(("main", "alt")),
        st.one_of(st.floats(1.0001, 50.0), st.floats(1 + 1e-9, 1 + 1e-5)),
        st.sampled_from((REL_TOL, 1e-16, 0.0)),
    )
    def test_drawn_main_and_alt_pairs(self, family, kappa, rel_tol):
        # Pairs that fail normalize are TestFloatNormalize's.
        norm = outcome(normalize, FAMILIES[family](kappa, DISTINGUISHED_PHI))
        assume(not isinstance(norm, tuple))
        expected = hex_outcome(float_reference_fixed_vectors, norm, rel_tol)
        assert hex_outcome(eigenvectors_from_products, norm, rel_tol) == expected


def reference_vertices(norm, v, w, mu):
    """The base vertices of build_polygon through Mat2 @, with its checks."""
    at, bt = norm.at, norm.bt
    for vec, m3, name in ((v, bt @ at @ at, "v"), (w, bt @ bt @ at, "w")):
        if m3 @ vec != vec:
            raise ValueError(f"{name} is not fixed by its triple product")
    v1 = v.scale(mu)
    v3 = -(at @ v1)
    v4 = -(at @ w)
    base = (v1, w, v3, v4, -(at @ v3), -(bt @ v4))
    return base + tuple(-x for x in base)


class TestBuildPolygon:
    @settings(max_examples=40, deadline=None)
    @given(main_c_mu())
    def test_vertices_match_mat2_construction(self, case):
        c, mu = case
        norm = normalize(example_main_special(KappaContext(c)))
        v, w = eigenvectors_from_products(norm)
        mu = Scalar.exact(mu)
        poly = build_polygon(norm, v, w, mu)
        assert poly.vertices == reference_vertices(norm, v, w, mu)

    @settings(max_examples=20, deadline=None)
    @given(main_c_mu(), small, st.sampled_from("vw"))
    def test_wrong_fixed_vector_fails_alike(self, case, shift, which):
        c, mu = case
        norm = normalize(example_main_special(KappaContext(c)))
        v, w = eigenvectors_from_products(norm)
        if which == "v":
            v = Vec2(v.x1, v.x2 + Scalar(shift))
        else:
            w = Vec2(w.x1, w.x2 + Scalar(shift))
        expected = outcome(reference_vertices, norm, v, w, Scalar.exact(mu))
        got = outcome(lambda: build_polygon(norm, v, w, mu).vertices)
        assert got == expected

    def test_mixed_backends_are_refused(self, main_exact):
        norm = normalize(main_exact)
        v, w = eigenvectors_from_products(norm)
        fv = Vec2.flt(float(v.x1), float(v.x2))
        fw = Vec2.flt(float(w.x1), float(w.x2))
        for args in ((fv, w), (v, fw), (fv, fw)):
            with pytest.raises(BackendMismatchError):
                build_polygon(norm, *args, Scalar.exact(Fraction(5, 4)))


def float_reference_vertices(norm, v, w, mu, rel_tol=REL_TOL):
    """v1..v12 of build_polygon on the float backend, built through Mat2 @
    with the same checks: the reference of the tuple construction."""
    at, bt = norm.at, norm.bt
    for vec, m3, name in ((v, bt @ at @ at, "v"), (w, bt @ bt @ at, "w")):
        if not (m3 @ vec).isclose(vec, rel_tol):
            raise ValueError(f"{name} is not fixed by its triple product")
    v1 = v.scale(mu)
    v2 = w
    v3 = -(at @ v1)
    v4 = -(at @ v2)
    v5 = -(at @ v3)
    v6 = -(bt @ v4)
    # Cross-check the unrolled forms of the same vertices.
    direct = (
        (v3, (at @ v).scale(-mu), "v3"),
        (v5, (at @ (at @ v)).scale(mu), "v5"),
        (v6, bt @ (at @ w), "v6"),
    )
    for built, unrolled, name in direct:
        if not built.isclose(unrolled, rel_tol):
            raise RuntimeError(f"vertex cross-check failed for {name}")
    base = (v1, v2, v3, v4, v5, v6)
    return base + tuple(-x for x in base)


def hex_vertices(vertices):
    return [(x.x1.value.hex(), x.x2.value.hex()) for x in vertices]


FAMILIES = {"main": example_main, "alt": example_alt}


class TestFloatBuildPolygon:
    """The float polygon runs on the tuple kernels; its vertices are those
    of the Mat2 @ construction bit for bit."""

    @staticmethod
    def check(family, kappa, mu, rel_tol=REL_TOL):
        """Same vertices, hex for hex, or the same error."""
        norm = normalize(FAMILIES[family](kappa, DISTINGUISHED_PHI))
        v, w = eigenvectors_from_products(norm)
        mu = Scalar.flt(mu)

        def run(build):
            try:
                return hex_vertices(build(norm, v, w, mu, rel_tol))
            except (ValueError, RuntimeError) as exc:
                return type(exc), str(exc)

        got = run(lambda *args: build_polygon(*args).vertices)
        assert got == run(float_reference_vertices)
        return got

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.floats(1.01, 2.0),
        st.floats(0.2, 3.0),
    )
    def test_drawn_kappa_and_mu(self, family, kappa, mu):
        assert isinstance(self.check(family, kappa, mu), list)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.floats(1.01, 2.0),
        st.floats(0.2, 3.0),
        st.sampled_from((0.0, 1e-17, 1e-16)),
    )
    def test_tolerance_below_rounding(self, family, kappa, mu, rel_tol):
        # At rel_tol = 0 the checks are float equalities, so the verdict
        # follows the rounding of each product.
        self.check(family, kappa, mu, rel_tol)

    @pytest.mark.parametrize(
        "family, mu",
        # b3 escapes (float_b3_escapes), not convex (float_not_convex), and
        # the certified alt golden.
        [("main", 1.36), ("main", 1.04), ("alt", 1.07)],
    )
    def test_golden_scales(self, family, mu):
        assert isinstance(self.check(family, 1.331, mu), list)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.floats(-0.5, 0.5), st.sampled_from("vw"))
    def test_wrong_fixed_vector_fails_alike(self, family, shift, which):
        norm = normalize(FAMILIES[family](1.331, DISTINGUISHED_PHI))
        v, w = eigenvectors_from_products(norm)
        if which == "v":
            v = Vec2(v.x1, v.x2 + Scalar.flt(shift))
        else:
            w = Vec2(w.x1, w.x2 + Scalar.flt(shift))
        mu = Scalar.flt(1.25)
        expected = outcome(float_reference_vertices, norm, v, w, mu)
        got = outcome(lambda: build_polygon(norm, v, w, mu).vertices)
        assert got == expected


def float_reference_normalize(mset, rel_tol=REL_TOL):
    """(A~, B~, lam, scale) of normalize on the float backend, built on
    Mat2 @ and Mat2.isclose with the same checks in the same order: the
    reference of the one tuple body."""
    a, b = mset.a, mset.b
    lam = spectral_radius(b @ a @ a)
    scale = Scalar.flt(float(lam) ** (1.0 / 3.0))
    if not (math.isfinite(lam.value) and math.isfinite(scale.value)):
        raise ValueError(f"lam = {lam} is out of float range; cannot normalize")
    for m, name in ((a, "A"), (b, "B")):
        if not (m @ m @ m).isclose(Mat2.identity_like(m), rel_tol):
            raise ValueError(f"{name}**3 is not the identity; cannot normalize")
    inv = 1 / scale
    at, bt = a.scale(inv), b.scale(inv)
    cube = at @ at @ at
    if not cube.isclose(Mat2.identity_like(at).scale(1 / lam), rel_tol):
        raise ValueError("normalization failed the cube identity")
    return at, bt, lam, scale


def hex_normalized(at, bt, lam, scale):
    entries = at.entries() + bt.entries() + (lam, scale)
    return [x.value.hex() for x in entries]


class TestFloatNormalize:
    """The float normalize runs the tuple body of the exact one; its A~,
    B~, lam and scale are those of the Mat2 @ normalize bit for bit, and
    it raises the same errors."""

    @staticmethod
    def check(mset, rel_tol=REL_TOL):
        def run(fn):
            try:
                return hex_normalized(*fn(mset, rel_tol))
            except ValueError as exc:
                return type(exc), str(exc)

        def merged(mset, rel_tol):
            norm = normalize(mset, rel_tol)
            return norm.at, norm.bt, norm.lam, norm.scale

        got = run(merged)
        assert got == run(float_reference_normalize)
        return got

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.floats(1.01, 50.0),
        st.sampled_from((REL_TOL, 1e-15, 1e-16, 0.0)),
    )
    def test_drawn_main_and_alt_pairs(self, family, kappa, rel_tol):
        self.check(FAMILIES[family](kappa, DISTINGUISHED_PHI), rel_tol)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_golden_pairs_pass(self, family):
        assert isinstance(self.check(FAMILIES[family](1.331, DISTINGUISHED_PHI)), list)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.floats(1.01, 2.0),
        st.integers(0, 7),
        st.floats(-1e-6, 1e-6),
    )
    def test_custom_pairs_off_the_cube_identity(self, family, kappa, entry, shift):
        # One entry of A or B moved: A**3 or B**3 misses I, or only just.
        mset = FAMILIES[family](kappa, DISTINGUISHED_PHI)
        values = [float(e) for m in (mset.a, mset.b) for e in m.entries()]
        values[entry] += shift
        pair = custom_set(Mat2.flt(*values[:4]), Mat2.flt(*values[4:]))
        self.check(pair)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))
    def test_drawn_custom_pairs(self, values):
        a, b = Mat2.flt(*values[:4]), Mat2.flt(*values[4:])
        try:
            pair = custom_set(a, b)
        except ValueError:
            return
        self.check(pair)

    def test_infinite_lam(self):
        # A and B are finite, but the spectral radius of BAA = B is
        # 1.5e308 times the golden ratio.
        eye, big = Mat2.flt(1.0, 0.0, 0.0, 1.0), Mat2.flt(1.5e308, 1.5e308, 1.5e308, 0.0)
        got = self.check(custom_set(eye, big))
        assert got == (ValueError, "lam = inf is out of float range; cannot normalize")


class TestOrderClosedForms:
    def test_ratio_evaluation_matches_scalar_closed_forms(self):
        rng = random.Random(2024)
        for _ in range(200):
            bits = rng.choice((8, 32, 96))
            q = rng.randrange(2 ** (bits - 1), 2**bits)
            c = Fraction(rng.randrange(q + 1, q + q // 7), q)
            mu = Fraction(rng.randrange(1, 2**bits), rng.randrange(1, 2**bits))
            ctx = KappaContext(c)
            expected = polytope._order_products_closed(ctx.power, Scalar.exact(mu))
            got = polytope._order_products_closed(
                lambda k: polytope._Ratio(c.numerator**k, c.denominator**k),
                polytope._Ratio(mu.numerator, mu.denominator),
            )
            assert got.keys() == expected.keys()
            for pair, ratio in got.items():
                assert Fraction(ratio.num, ratio.den) == expected[pair].value


def reference_order(poly):
    """vertex_order_check on Vec2 dot products and Scalar closed forms."""
    pairs = polytope._ORDER_PAIRS
    products = [dot(poly.v(i), rot90(poly.v(j))) for i, j in pairs]
    passed = all(val > 0 for val in products)
    nonpositive = [f"v{i},Tv{j} <= 0" for (i, j), val in zip(pairs, products) if not val > 0]
    detail = nonpositive[0] if nonpositive else ""
    data = [(f"order.v{i}_Tv{j}", val) for (i, j), val in zip(pairs, products)]
    data.append(("order.all_positive", passed))
    if poly.family == "main":
        closed = polytope._order_products_closed(poly.ctx.power, poly.mu)
        match = all(val == closed[pair] for pair, val in zip(pairs, products))
        data.append(("order.closed_form_match", match))
        if passed and not match:
            detail = "closed forms differ"
        passed = passed and match
    return CheckResult("vertex_order", passed, detail, tuple(data))


def rebuilt(poly, vertices, family):
    return Polygon(vertices, poly.mu, poly.kappa, poly.ctx, family)


class TestVertexOrder:
    @settings(max_examples=30, deadline=None)
    @given(main_c_mu(), st.sampled_from(("built", "scaled", "swapped", "reversed")))
    def test_matches_reference(self, case, change):
        # Scaled vertices keep the order but miss the closed forms; swapped
        # or reversed ones break the order too.
        c, mu = case
        norm = normalize(example_main_special(KappaContext(c)))
        poly = build_polygon(norm, *eigenvectors_from_products(norm), mu)
        verts = poly.vertices
        verts = {
            "built": verts,
            "scaled": tuple(x.scale(Scalar.exact(2)) for x in verts),
            "swapped": (verts[0], verts[2], verts[1], *verts[3:]),
            "reversed": verts[::-1],
        }[change]
        for family in ("main", "custom"):
            other = rebuilt(poly, verts, family)
            expected = reference_order(other)
            assert vertex_order_check(other) == expected
            assert expected.passed is (change == "built" or change == "scaled" and family == "custom")


def exact_runs():
    """Exact certify_smp inputs that stop at each check in turn."""
    ctx = KappaContext(Fraction(11, 10))
    main = example_main_special(ctx)
    quarter = swap_pair(Scalar.exact(0), main.kappa)
    mu = Fraction(5, 4)
    return [
        (main, mu),  # certified
        (main, Fraction(34, 25)),  # b3, b9 escape
        (main, Fraction(26, 25)),  # not convex
        (example_main_special(KappaContext(Fraction(233, 224))), Fraction(1)),
        (custom_set(main.a, main.b, ctx=ctx), mu),  # trace/det criterion
        (custom_set(main.a, main.b, main.tau_s, KappaContext(Fraction(6, 5))), mu),
        (custom_set(main.a, main.b, Mat2.exact(1, 0, 0, 1), ctx), mu),
        (custom_set(quarter.a, quarter.b, quarter.tau_s, ctx), mu),  # A**3 != I
        (custom_set(main.b, main.a, ctx=ctx), mu),  # fixed direction (0, 1)
    ]


def test_certify_smp_runs_no_exact_matmul(monkeypatch):
    runs = exact_runs()
    expected = [certify_smp(mset, mu) for mset, mu in runs]
    real = Mat2.__matmul__

    def float_only(self, other):
        if self.is_exact:
            raise AssertionError("exact Mat2 @ inside certify_smp")
        return real(self, other)

    monkeypatch.setattr(Mat2, "__matmul__", float_only)
    with pytest.raises(AssertionError):
        Mat2.exact(1, 0, 0, 1) @ Mat2.exact(1, 0, 0, 1)
    assert [certify_smp(mset, mu) for mset, mu in runs] == expected
    assert [c.first_failure and c.first_failure.name for c in expected] == [
        None, "inclusions", "convexity", "convexity", None, "normalize",
        "permutable", "normalize", "eigenvectors",
    ]


def float_runs():
    """Float fixed vectors and irreducibility verdicts, certified and failing."""
    fixed = [
        normalize(FAMILIES[family](kappa, DISTINGUISHED_PHI))
        for family in sorted(FAMILIES) for kappa in (1.331, 1.05, 1.000001)
    ]
    pairs = [
        (m.a, m.b) for phi in (DISTINGUISHED_PHI, 1e-9, 0.0, math.pi)
        for m in (example_alt(1.2, phi), example_main(1.2, phi))
    ]
    near_scalar = Mat2.flt(1.0, 1e-14, 0.0, 1.0)
    pairs += [(near_scalar, Mat2.flt(2.0, 1.0, 0.0, 3.0)), (near_scalar, near_scalar)]
    return fixed, pairs


def test_float_fixed_vectors_and_irreducibility_run_no_matmul(monkeypatch):
    fixed, pairs = float_runs()
    expected = (
        [outcome(eigenvectors_from_products, norm) for norm in fixed],
        [is_irreducible(a, b) for a, b in pairs],
    )

    def refuse(self, other):
        raise AssertionError("Mat2 @ inside the float fixed vectors or is_irreducible")

    monkeypatch.setattr(Mat2, "__matmul__", refuse)
    got = (
        [outcome(eigenvectors_from_products, norm) for norm in fixed],
        [is_irreducible(a, b) for a, b in pairs],
    )
    assert got == expected
    # alt degenerates to {I, I} and {-I, -I} at phi = 0 and pi; main does not.
    assert expected[1] == [True, True, True, True, False, True, False, True, False, False]


BENCHMARK_INPUTS = Path(__file__).resolve().parent / "data" / "certify_exact_inputs.txt"
GOLDEN_96BIT = Path(__file__).resolve().parent / "golden" / "exact_96bit_certified.txt"


def benchmark_inputs():
    """(c, mu) of the 80 certify_exact benchmark inputs of seeds 1-5."""
    lines = BENCHMARK_INPUTS.read_text(encoding="utf-8").splitlines()
    return [tuple(map(Fraction, line.split())) for line in lines if not line.startswith("#")]


def golden_96bit():
    """(c, mu) of the certified 96-bit golden report."""
    argv = GOLDEN_96BIT.read_text(encoding="utf-8").split("\n", 1)[0].split()
    return Fraction(argv[argv.index("--c") + 1]), Fraction(argv[argv.index("--mu") + 1])


def main_polygon(c, mu):
    norm = normalize(example_main_special(KappaContext(c)))
    return build_polygon(norm, *eigenvectors_from_products(norm), mu), norm


def largest_index_order_gauge(poly, m):
    """The largest polygon_gauge of the Mat2 @ images of the vertices."""
    return max(polygon_gauge(poly, m @ v).value for v in poly.vertices)


def assert_gauges_match_index_order(poly, norm):
    """Every inclusion.gauge value of verify_inclusions is polygon_gauge (the
    index-order search) of the Mat2 @ image, and passes iff it is <= 1."""
    data = dict(verify_inclusions(poly, norm).data)
    gauges = [key for key in data if key.startswith("inclusion.gauge.")]
    assert len(gauges) == (48 if convexity_check(poly) else 0)
    points = images(poly, norm)
    for kind in "ab":
        for idx, z in enumerate(getattr(points, kind), start=1):
            key = f"inclusion.gauge.{kind}{idx}"
            if key in data:
                expected = polygon_gauge(poly, z)
                assert data[key].value == expected.value
                assert data[f"{key}.passed"] is (expected.value <= 1)
    return data


class TestInclusionGauges:
    def test_benchmark_inputs(self):
        cases = benchmark_inputs()
        assert len(cases) == 80
        for c, mu in cases:
            assert_gauges_match_index_order(*main_polygon(c, mu))

    @settings(max_examples=40, deadline=None)
    @given(main_c_mu())
    def test_drawn_main_pairs(self, case):
        # Certified, escaping and not convex: main_c_mu strays 20% past [mu1, mu2].
        assert_gauges_match_index_order(*main_polygon(*case))

    @pytest.mark.parametrize("case", [(Fraction(11, 10), Fraction(5, 4)), golden_96bit()])
    def test_images_on_vertex_rays(self, case):
        # a1 = v9 and b5 = v1 have gauge 1, a5 = v1/lam and b2 = v10/lam
        # gauge 1/lam: each lies on the ray shared by two sectors.
        poly, norm = main_polygon(*case)
        data = assert_gauges_match_index_order(poly, norm)
        inv_lam = 1 / norm.lam.value
        expected = {"a1": 1, "a5": inv_lam, "b2": inv_lam, "b5": 1}
        assert {k: data[f"inclusion.gauge.{k}"].value for k in expected} == expected

    @settings(max_examples=25, deadline=None)
    @given(main_c_mu(), st.lists(small, min_size=4, max_size=4))
    def test_matrix_norm_is_largest_index_order_gauge(self, case, entries):
        poly, norm = main_polygon(*case)
        if not convexity_check(poly):
            return
        m = Mat2.exact(*entries)
        assert poly.matrix_norm(m).value == largest_index_order_gauge(poly, m)


class CountingFraction(Fraction):
    """A Fraction that counts its constructions."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


class TestReductions:
    @pytest.mark.parametrize("case", [(Fraction(11, 10), Fraction(5, 4)), golden_96bit()])
    def test_fractions_built_by_the_inclusions(self, monkeypatch, case):
        # 12 for the sector tests' s, t, h, which the report prints, and one
        # for the gauge of b1 (= b7's, which no other value equals).  The
        # other 23 gauges reuse 1, 1/lam, a sector test's h or the mirror's.
        poly, norm = main_polygon(*case)
        assert convexity_check(poly)
        expected = verify_inclusions(poly, norm)
        CountingFraction.made = 0
        monkeypatch.setattr(polytope, "Fraction", CountingFraction)
        assert verify_inclusions(poly, norm) == expected
        assert CountingFraction.made == 13
        assert expected.passed

    def test_matrix_norm_reduces_one_gauge(self, monkeypatch):
        poly, norm = main_polygon(Fraction(11, 10), Fraction(5, 4))
        expected = [poly.matrix_norm(m) for m in (norm.at, norm.bt, norm.at @ norm.bt)]
        CountingFraction.made = 0
        monkeypatch.setattr(polytope, "Fraction", CountingFraction)
        assert [poly.matrix_norm(m) for m in (norm.at, norm.bt, norm.at @ norm.bt)] == expected
        assert CountingFraction.made == 3

    @settings(max_examples=200, deadline=None)
    @given(
        small,
        st.integers(1, 5),
        st.lists(st.one_of(st.none(), small), max_size=4),
        st.lists(st.integers(0, 4), max_size=4),
    )
    def test_reuse_or_reduce(self, value, k, others, slots):
        # num / den is value times k / k, and the candidates hold some
        # Fractions equal to it (fresh objects) between the others.
        num, den = value.numerator * k, value.denominator * k
        known = list(others)
        for slot in slots:
            known.insert(min(slot, len(known)), Fraction(value.numerator, value.denominator))
        got = polytope._reduced(num, den, known)
        assert got == value and got.denominator == value.denominator
        equal = [q for q in known if q is not None and q == value]
        if equal:
            assert got is equal[0]
        else:
            assert all(got is not q for q in known)


def three_turn_polygon():
    """Twelve vertices a quarter turn apart, clockwise, with growing radii:
    every edge turns by less than a half turn, but the rays go round three
    times, so each point lies in three sectors, with three levels."""
    turns = ((1, 0), (0, -1), (-1, 0), (0, 1))
    verts = tuple(Vec2.exact(r * x, r * y) for r, (x, y) in zip(range(1, 13), turns * 3))
    return Polygon(verts, Scalar.exact(1), Scalar.exact(8), None, "custom")


class TestSweepGuard:
    def test_sectors_tile_on_built_polygons_only(self):
        poly, _ = main_polygon(Fraction(11, 10), Fraction(5, 4))
        assert poly._tiled
        verts = poly.vertices
        for other in (verts[::-1], (verts[1], verts[0], *verts[2:])):
            assert not rebuilt(poly, other, "main")._tiled
        assert not three_turn_polygon()._tiled

    @pytest.mark.parametrize("m", [(1, 0, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0), (3, 0, 1, -2)])
    def test_matrix_norm_searches_in_index_order_when_not_tiled(self, m):
        poly = three_turn_polygon()
        m = Mat2.exact(*m)
        assert poly.matrix_norm(m).value == largest_index_order_gauge(poly, m)


def swept_counts(monkeypatch):
    """The number of points of each gauge sweep run from here on."""
    counts, real = [], polytope._gauges

    def counting(poly, points, f, tol):
        points = list(points)
        counts.append(len(points))
        return real(poly, points, f, tol)

    monkeypatch.setattr(polytope, "_gauges", counting)
    return counts


class TestMirroredSweep:
    """On a balanced exact edge table whose sectors tile the plane once, the
    inclusion sweep searches a1..a6, b1..b6, and a_{i+6}, b_{i+6} take the
    gauge and the verdict of a_i, b_i."""

    def test_built_polygons_sweep_twelve_points(self, monkeypatch):
        # Certified and escaping: every benchmark input is convex.
        cases = benchmark_inputs() + [golden_96bit()]
        polygons = [main_polygon(c, mu) for c, mu in cases]
        assert all(poly._balanced and poly._tiled for poly, _ in polygons)
        counts = swept_counts(monkeypatch)
        for poly, norm in polygons:
            data = dict(verify_inclusions(poly, norm).data)
            for kind in "ab":
                for i in range(1, 7):
                    key, mirror = (f"inclusion.gauge.{kind}{j}" for j in (i, i + 6))
                    assert data[mirror] == data[key]
                    assert data[f"{mirror}.passed"] is data[f"{key}.passed"]
        assert counts == [12] * len(cases)

    def test_mirrored_images_are_the_images(self):
        poly, norm = main_polygon(*golden_96bit())
        _, (at, _) = norm.scaled
        table = poly._edge_table
        assert polytope._image_points(table, at, True) == polytope._image_points(table, at, False)
        assert not three_turn_polygon()._balanced

    def test_unbalanced_polygon_sweeps_24_points(self, monkeypatch):
        # v7..v12 pushed out by one part in 10**6: convex, with sectors that
        # tile the plane once, but not balanced.
        poly, norm = main_polygon(Fraction(11, 10), Fraction(5, 4))
        grow = Scalar.exact(Fraction(10**6 + 1, 10**6))
        verts = poly.vertices[:6] + tuple(v.scale(grow) for v in poly.vertices[6:])
        other = rebuilt(poly, verts, "main")
        assert convexity_check(other) and other._tiled and not other._balanced
        counts = swept_counts(monkeypatch)
        verify_inclusions(other, norm)
        assert counts == [24]
        assert_gauges_match_index_order(other, norm)

    @pytest.mark.parametrize("family, mu", [("main", 1.25), ("alt", 1.07)])
    def test_float_sweep_searches_24_points(self, monkeypatch, family, mu):
        norm = normalize(FAMILIES[family](1.331, DISTINGUISHED_PHI))
        poly = build_polygon(norm, *eigenvectors_from_products(norm), mu)
        assert convexity_check(poly) and not poly._balanced
        counts = swept_counts(monkeypatch)
        assert verify_inclusions(poly, norm).passed
        assert counts == [24]
