import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpverify import polytope
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
from smpverify.matrix2 import Mat2, Vec2, dot, rot90
from smpverify.polytope import (
    DegenerateSectorError,
    Polygon,
    admissible_mu_interval,
    alt_mu_thresholds,
    build_polygon,
    certify_smp,
    convexity_check,
    convexity_values,
    empirical_mu_thresholds,
    images,
    kappa_max,
    mu_thresholds,
    omega_thresholds,
    polygon_gauge,
    sector_coords,
    triangle_h,
    verify_inclusions,
    vertex_order_check,
)
from smpverify.scalar import REL_TOL, BackendMismatchError, FloatKappa, KappaContext, Scalar
from smpverify.selftest import check_closed_form_tables

MU54 = Scalar.exact(Fraction(5, 4))


def float_pipeline(kappa, mu, family="main"):
    build = example_main if family == "main" else example_alt
    mset = build(kappa, DISTINGUISHED_PHI)
    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    return norm, build_polygon(norm, v, w, mu)


class TestSectorPrimitives:
    def test_point_on_its_own_ray(self, poly_exact):
        x, y = poly_exact.v(1), poly_exact.v(2)
        assert sector_coords(x, y, x) == (Scalar.exact(1), Scalar.exact(0))
        assert triangle_h(x, y, x) == Scalar.exact(1)

    def test_degenerate_pair_rejected(self):
        x = Vec2.exact(1, 2)
        with pytest.raises(DegenerateSectorError):
            sector_coords(x, x.scale(Scalar.exact(3)), x)
        with pytest.raises(DegenerateSectorError):
            triangle_h(x, x.scale(Scalar.exact(-2)), x)

    def test_h_equals_s_plus_t(self, poly_exact, norm_exact):
        ipts = images(poly_exact, norm_exact)
        for z in (ipts.a[3], ipts.b[2], poly_exact.v(5)):
            s, t = sector_coords(poly_exact.v(11), poly_exact.v(12), z)
            assert s + t == triangle_h(poly_exact.v(11), poly_exact.v(12), z)

    def test_closed_form_sector_coordinates(self, ctx11, poly_exact, norm_exact):
        k4 = ctx11.power(12)
        a4 = norm_exact.at @ poly_exact.v(4)
        s, t = sector_coords(poly_exact.v(11), poly_exact.v(12), a4)
        assert s == (k4 - 1) / (k4 * MU54)
        assert t == 1 / k4
        a6 = norm_exact.at @ poly_exact.v(6)
        s, t = sector_coords(poly_exact.v(2), poly_exact.v(3), a6)
        assert s == 1 / k4
        assert t == (k4 - 1) / (ctx11.power(10) * MU54)

    def test_closed_form_levels(self, ctx11, poly_exact, norm_exact):
        k4 = ctx11.power(12)
        a4 = norm_exact.at @ poly_exact.v(4)
        assert triangle_h(poly_exact.v(11), poly_exact.v(12), a4) == (
            k4 + MU54 - 1
        ) / (k4 * MU54)
        assert triangle_h(poly_exact.v(12), poly_exact.v(2), poly_exact.v(1)) == (
            ctx11.power(4) + 1
        ) * MU54 / (ctx11.power(6) + 1)


class TestBuildPolygon:
    def test_v2_is_w(self, poly_exact):
        assert poly_exact.v(2) == Vec2.exact(1, 0)

    def test_central_symmetry(self, poly_exact):
        for i in range(1, 7):
            assert poly_exact.v(i + 6) == -poly_exact.v(i)

    def test_vertex_orbit(self, poly_exact, norm_exact):
        at, bt = norm_exact.at, norm_exact.bt
        assert at @ poly_exact.v(1) == poly_exact.v(9)
        assert at @ poly_exact.v(9) == poly_exact.v(5)
        assert bt @ poly_exact.v(5) == poly_exact.v(1)
        assert at @ poly_exact.v(2) == poly_exact.v(10)
        assert bt @ poly_exact.v(10) == poly_exact.v(6)
        assert bt @ poly_exact.v(6) == poly_exact.v(2)

    def test_rejects_nonpositive_mu(self, norm_exact, vw_exact):
        v, w = vw_exact
        with pytest.raises(ValueError):
            build_polygon(norm_exact, v, w, Scalar.exact(0))

    def test_mu_of_the_other_backend_is_a_backend_mismatch(
        self, norm_exact, vw_exact, main_float
    ):
        v, w = vw_exact
        with pytest.raises(BackendMismatchError, match="^cannot combine exact and float values$"):
            build_polygon(norm_exact, v, w, Scalar.flt(1.25))
        norm = normalize(main_float)
        with pytest.raises(BackendMismatchError, match="^cannot combine exact and float values$"):
            build_polygon(norm, *eigenvectors_from_products(norm), MU54)

    def test_rejects_wrong_fixed_vector(self, norm_exact, vw_exact):
        v, w = vw_exact
        bad = Vec2.exact(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            build_polygon(norm_exact, bad, w, MU54)

    def test_image_identities(self, poly_exact, norm_exact):
        ipts = images(poly_exact, norm_exact)
        lam = norm_exact.lam
        assert ipts.b[4] == poly_exact.v(1)
        assert ipts.a[4] == poly_exact.v(1).scale(1 / lam)
        assert ipts.b[1] == poly_exact.v(10).scale(1 / lam)

    def test_every_vertex_is_an_image_of_a_vertex(self, poly_exact, norm_exact):
        ipts = images(poly_exact, norm_exact)
        pool = list(ipts.a) + list(ipts.b)
        for i in range(1, 13):
            assert any(p == poly_exact.v(i) for p in pool)


class TestThresholds:
    def test_values_at_reference_kappa(self, ctx11):
        mu0, mu1, mu2, mu3 = mu_thresholds(ctx11)
        assert mu0 == Scalar.exact(1)
        assert mu1 == Scalar.exact(Fraction(121, 100))
        assert abs(float(mu2) - 1.299757) < 1e-6
        assert abs(float(mu3) - 1.572706) < 1e-6
        assert mu3 == ctx11.power(2) * mu2

    def test_ordering_below_kappa_max(self):
        mu0, mu1, mu2, mu3 = mu_thresholds(1.2)
        assert float(mu0) < float(mu1) and float(mu2) < float(mu3)

    def test_rejects_kappa_at_or_below_one(self):
        with pytest.raises(ValueError):
            mu_thresholds(1.0)
        with pytest.raises(ValueError):
            mu_thresholds(0.5)

    def test_exact_float_agreement(self):
        for c in (Fraction(11, 10), Fraction(6, 5), Fraction(13, 10),
                  Fraction(63, 50)):
            ctx = KappaContext(c)
            kappa = float(ctx.power(3))
            for exact, flt in zip(
                mu_thresholds(ctx) + omega_thresholds(ctx),
                mu_thresholds(kappa) + omega_thresholds(kappa),
            ):
                assert math.isclose(float(exact), float(flt), rel_tol=1e-10)

    def test_omega_symmetries_and_ordering(self, ctx11):
        w = omega_thresholds(ctx11)
        assert w[0] == w[4] and w[1] == w[3]
        _, mu1, mu2, _ = mu_thresholds(ctx11)
        assert w[2] <= w[0] <= mu1
        assert mu2 <= w[1] <= w[5]

    def test_omega_limits_toward_one(self):
        w = omega_thresholds(1.0 + 1e-9)
        for val, limit in zip(w, (1.0, 4 / 3, 1.0, 4 / 3, 1.0, 4 / 3)):
            assert abs(float(val) - limit) < 1e-6

    def test_admissible_interval(self, ctx11):
        lo, hi = admissible_mu_interval(ctx11)
        assert lo == Scalar.exact(Fraction(121, 100))
        assert abs(float(hi) - 1.299757) < 1e-6
        assert admissible_mu_interval(1.46) is None

    def test_admissible_interval_at_kappa_max_is_a_point(self):
        kmax = float(kappa_max("main"))
        interval = admissible_mu_interval(kmax)
        assert interval is not None
        lo, hi = interval
        assert abs(float(lo) - float(hi)) < 1e-6


class TestEmpiricalThresholds:
    def test_exact_extraction_matches_closed_forms(self, ctx11, main_exact):
        extracted = empirical_mu_thresholds(main_exact)
        closed = mu_thresholds(ctx11)
        for got, want in zip(extracted, closed):
            assert got == want

    def test_alt_values(self, alt_float):
        got = [float(x) for x in empirical_mu_thresholds(alt_float)]
        expected = (0.874539, 1.032076, 1.143460, 1.349441)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-5


class TestAltThresholds:
    # alt(k) is main(K) in other coordinates, so its thresholds have a
    # closed form; the polygon construction is the reference.
    @pytest.mark.parametrize("kappa", [1.02 + 0.12 * i for i in range(25)])
    def test_closed_form_matches_construction(self, kappa):
        got = alt_mu_thresholds(kappa)
        want = empirical_mu_thresholds(example_alt(kappa, DISTINGUISHED_PHI))
        for g, w in zip(got, want):
            assert math.isclose(float(g), float(w), rel_tol=1e-12)

    def test_rejects_kappa_at_or_below_one(self):
        with pytest.raises(ValueError):
            alt_mu_thresholds(1.0)

    def test_kappa_max_is_admissible_for_the_construction(self):
        kmax = float(kappa_max("alt"))
        _, mu1, mu2, _ = empirical_mu_thresholds(example_alt(kmax, DISTINGUISHED_PHI))
        assert float(mu1) <= float(mu2) * (1 + 1e-9)


class TestKappaMax:
    def test_main_value(self):
        assert abs(float(kappa_max("main")) - 1.447892) < 1e-5

    def test_alt_value(self):
        assert abs(float(kappa_max("alt")) - 1.528580) < 1e-5

    def test_threshold_gap_changes_sign(self):
        _, lo1, lo2, _ = mu_thresholds(1.1)
        _, hi1, hi2, _ = mu_thresholds(1.5)
        assert float(lo1) < float(lo2) and float(hi1) > float(hi2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            kappa_max("spam")

    def test_main_value_is_the_edge_of_the_admissible_range(self):
        kmax = float(kappa_max("main"))
        assert admissible_mu_interval(kmax) is not None
        assert admissible_mu_interval(kmax * (1 + 1e-12)) is None


class TestVertexOrder:
    def test_exact_closed_forms(self, ctx11, poly_exact):
        report = vertex_order_check(poly_exact)
        table = dict(report.data)
        assert report.passed and "order.closed_form_match" in table
        denom = ctx11.power(6) + 1
        assert table["order.v1_Tv2"] == ctx11.power(3) * MU54 / denom
        assert table["order.v5_Tv6"] == ctx11.power(7) * MU54 / denom
        assert table["order.v2_Tv4"] == ctx11.power(1)

    def test_holds_outside_admissible_range(self):
        _, poly = float_pipeline(1.05, 0.5)
        assert vertex_order_check(poly).passed

    def test_holds_for_alt_family(self):
        _, poly = float_pipeline(1.331, 1.07, family="alt")
        data = dict(vertex_order_check(poly).data)
        assert data["order.all_positive"] is True
        assert "order.closed_form_match" not in data


class TestGaugeIsANorm:
    """polytope._norm_defect, the rule of `bounds --norm polygon` and of the
    words oracle's hull route: positive order products and convexity."""

    def test_rounded_closed_forms_do_not_matter(self):
        # Near kappa = 1 the float order products miss their closed forms
        # by about 5.6e-12 relative, but they are positive and the polygon
        # is convex.
        _, poly = float_pipeline(1.001, 1.167)
        data = dict(vertex_order_check(poly).data)
        assert data["order.all_positive"] is True
        assert data["order.closed_form_match"] is False
        assert convexity_check(poly)
        assert polytope._norm_defect(poly) is None

    def test_defects(self, poly_exact):
        assert polytope._norm_defect(poly_exact) is None
        _, poly = float_pipeline(1.331, 1.04)
        assert polytope._norm_defect(poly) == "it is not convex"


class TestConvexity:
    def test_admissible_scale_is_convex(self, poly_exact):
        assert convexity_check(poly_exact)

    def test_small_scale_is_not_convex(self):
        _, poly = float_pipeline(1.331, 1.04)
        assert not convexity_check(poly)

    def test_lower_admissible_endpoint_is_convex(self, norm_exact, vw_exact):
        v, w = vw_exact
        poly = build_polygon(norm_exact, v, w, Scalar.exact(Fraction(121, 100)))
        assert convexity_check(poly)


class TestGauge:
    def test_vertices_on_unit_level(self, poly_exact):
        for i in range(1, 13):
            assert polygon_gauge(poly_exact, poly_exact.v(i)) == Scalar.exact(1)

    def test_contracted_vertex_image(self, poly_exact, norm_exact):
        g = polygon_gauge(poly_exact, norm_exact.at @ poly_exact.v(5))
        assert g == 1 / norm_exact.lam

    def test_homogeneity(self, poly_exact):
        half = poly_exact.v(2).scale(Scalar.exact(Fraction(1, 2)))
        assert polygon_gauge(poly_exact, half) == Scalar.exact(Fraction(1, 2))
        for i in (1, 4, 8):
            for alpha in (Fraction(3, 7), Fraction(-2, 5)):
                x = poly_exact.v(i).scale(Scalar.exact(alpha))
                assert polygon_gauge(poly_exact, x) == Scalar.exact(abs(alpha))

    def test_zero_maps_to_zero(self, poly_exact):
        assert polygon_gauge(poly_exact, Vec2.exact(0, 0)) == Scalar.exact(0)

    def test_triangle_inequality_on_samples(self, poly_exact):
        pts = [poly_exact.v(i) for i in (1, 3, 6, 9)] + [
            Vec2.exact(Fraction(1, 3), Fraction(-2, 5)),
            Vec2.exact(2, 1),
        ]
        for x in pts:
            for y in pts:
                lhs = polygon_gauge(poly_exact, x + y)
                rhs = polygon_gauge(poly_exact, x) + polygon_gauge(poly_exact, y)
                assert lhs <= rhs

    def test_nonconvex_polygon_is_not_subadditive(self):
        _, poly = float_pipeline(1.331, 1.04)
        x, y = poly.v(12), poly.v(2)
        g = float(polygon_gauge(poly, x + y))
        assert g > 2.0 + 1e-6  # gauges of the two vertices sum to 2

    def test_induced_matrix_norms_are_one(self, poly_exact, norm_exact):
        assert poly_exact.matrix_norm(norm_exact.at) == Scalar.exact(1)
        assert poly_exact.matrix_norm(norm_exact.bt) == Scalar.exact(1)


def reference_gauge(poly, z, rel_tol=REL_TOL):
    """The sector search on the public primitives: the first sector in
    index order whose s and t pass Scalar.ge(0), and its level h."""
    if z.x1 == 0 and z.x2 == 0:
        return Scalar.zero_like(z.x1)
    for i in range(1, 13):
        x, y = poly.v(i), poly.v(i + 1)
        s, t = sector_coords(x, y, z)
        if s.ge(0, rel_tol) and t.ge(0, rel_tol):
            return triangle_h(x, y, z)
    raise ValueError("no sector contains the point")


def reference_matrix_norm(poly, m, rel_tol=REL_TOL):
    best = None
    for vert in poly.vertices:
        g = reference_gauge(poly, m @ vert, rel_tol)
        if best is None or g > best:
            best = g
    return best


def same_value(a, b):
    """== on the exact backend, bit-equal floats on the float backend."""
    if a.is_exact or b.is_exact:
        return a.is_exact == b.is_exact and a == b
    return a.value.hex() == b.value.hex()


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateSectorError, ValueError) as exc:
        return type(exc)


def same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return same_value(a, b)


C96 = Fraction((2**95 + 3) * 107 // 100, 2**95 + 3)


def exact_case(c):
    ctx = KappaContext(c)
    mset = example_main_special(ctx)
    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    mu1, mu2 = admissible_mu_interval(ctx)
    return norm, build_polygon(norm, v, w, (mu1 + mu2) / 2)


GAUGE_CASES = {
    "exact c=11/10": lambda: exact_case(Fraction(11, 10)),
    "exact c=233/224": lambda: exact_case(Fraction(233, 224)),
    "exact 96-bit c": lambda: exact_case(C96),
    "float main": lambda: float_pipeline(1.331, 1.25),
    "float alt": lambda: float_pipeline(1.331, 1.07, family="alt"),
    "float main not convex": lambda: float_pipeline(1.331, 1.04),
}


@pytest.fixture(scope="module", params=sorted(GAUGE_CASES))
def gauge_case(request):
    return GAUGE_CASES[request.param]()


def probe_points(poly, norm):
    ipts = images(poly, norm)
    one = Scalar.one_like(poly.mu)
    pts = list(ipts.a) + list(ipts.b) + list(poly.vertices)
    for alpha in (Fraction(3, 7), Fraction(-2, 5), Fraction(2)):
        factor = Scalar.exact(alpha) if poly.is_exact else Scalar.flt(float(alpha))
        pts += [vert.scale(factor) for vert in poly.vertices]
    pts.append(Vec2(one - one, one - one))
    return pts


def hand_built(points, exact=True):
    """A polygon from twelve integer points, with no construction checks."""
    make = Vec2.exact if exact else Vec2.flt
    verts = tuple(make(x1, x2) for x1, x2 in points)
    one = Scalar.exact(1) if exact else Scalar.flt(1)
    return Polygon(vertices=verts, mu=one, kappa=one, ctx=None, family="custom")


DODECAGON = [
    (10, 0), (9, -5), (5, -9), (0, -10), (-5, -9), (-9, -5),
    (-10, 0), (-9, 5), (-5, 9), (0, 10), (5, 9), (9, 5),
]


class TestEdgeTableGauge:
    """polygon_gauge and matrix_norm against the sector search on
    sector_coords and triangle_h."""

    def test_probe_points_match_reference(self, gauge_case):
        norm, poly = gauge_case
        tols = (REL_TOL,) if poly.is_exact else (REL_TOL, 1e-15, 1e-6)
        for tol in tols:
            for z in probe_points(poly, norm):
                assert same_outcome(
                    outcome(polygon_gauge, poly, z, tol),
                    outcome(reference_gauge, poly, z, tol),
                ), (z, tol)

    def test_matrix_norm_matches_reference(self, gauge_case):
        norm, poly = gauge_case
        for m in (norm.at, norm.bt, norm.at @ norm.bt, -norm.bt):
            assert same_outcome(
                outcome(poly.matrix_norm, m), outcome(reference_matrix_norm, poly, m)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
        st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    )
    def test_exact_random_points(self, poly_exact, z1, z2):
        z = Vec2.exact(z1, z2)
        assert same_value(polygon_gauge(poly_exact, z), reference_gauge(poly_exact, z))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_float_random_points(self, z1, z2):
        _, poly = GAUGE_CASES["float alt"]()
        z = Vec2.flt(z1, z2)
        assert same_value(polygon_gauge(poly, z), reference_gauge(poly, z))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(-3, 3, max_denominator=10**9), min_size=4, max_size=4))
    def test_exact_random_matrices(self, poly_exact, entries):
        m = Mat2.exact(*entries)
        assert same_outcome(
            outcome(poly_exact.matrix_norm, m),
            outcome(reference_matrix_norm, poly_exact, m),
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=4))
    def test_float_random_matrices(self, entries):
        _, poly = GAUGE_CASES["float main"]()
        m = Mat2.flt(*entries)
        assert same_outcome(
            outcome(poly.matrix_norm, m), outcome(reference_matrix_norm, poly, m)
        )

    @pytest.mark.parametrize("exact", [True, False])
    def test_degenerate_sector_raises_where_the_search_reaches_it(self, exact):
        points = list(DODECAGON)
        points[5] = (-10, -18)  # v6 = 2 v5: the sector (v5, v6) is degenerate
        poly = hand_built(points, exact)
        make = Vec2.exact if exact else Vec2.flt
        before = make(7, -7)  # in the sector (v2, v3), reached first
        after = make(-7, 7)  # in the sector (v8, v9), past (v5, v6)
        assert same_value(polygon_gauge(poly, before), reference_gauge(poly, before))
        with pytest.raises(DegenerateSectorError):
            reference_gauge(poly, after)
        with pytest.raises(DegenerateSectorError):
            polygon_gauge(poly, after)
        with pytest.raises(DegenerateSectorError):
            poly.matrix_norm(Mat2.exact(1, 0, 0, 1) if exact else Mat2.flt(1, 0, 0, 1))

    @pytest.mark.parametrize("exact", [True, False])
    def test_point_in_no_sector_raises(self, exact):
        # Twelve rays between 0 and 110 degrees: the sectors miss the
        # lower-left quadrant.
        points = [
            (round(100 * math.cos(math.radians(a))), round(100 * math.sin(math.radians(a))))
            for a in range(110, -10, -10)
        ]
        poly = hand_built(points, exact)
        make = Vec2.exact if exact else Vec2.flt
        inside = make(30, 40)
        assert same_value(polygon_gauge(poly, inside), reference_gauge(poly, inside))
        for fn in (reference_gauge, polygon_gauge):
            with pytest.raises(ValueError, match="no sector contains the point"):
                fn(poly, make(-1, -1))

    def test_exact_paths_use_no_mat2_or_sector_primitives(self, monkeypatch):
        norm, poly = exact_case(Fraction(11, 10))
        points = probe_points(poly, norm)
        expected = [reference_gauge(poly, z) for z in points]
        expected_norms = [reference_matrix_norm(poly, m) for m in (norm.at, norm.bt)]

        def boom(*args, **kwargs):
            raise AssertionError("per-point Mat2/Scalar work in the gauge")

        monkeypatch.setattr(polytope, "sector_coords", boom)
        monkeypatch.setattr(polytope, "triangle_h", boom)
        monkeypatch.setattr(Mat2, "__matmul__", boom)
        assert [polygon_gauge(poly, z) for z in points] == expected
        assert [poly.matrix_norm(m) for m in (norm.at, norm.bt)] == expected_norms

    def test_edge_table_built_once_per_polygon(self, monkeypatch):
        builds = []
        real = polytope._build_edge_table

        def counting(vertices):
            builds.append(vertices)
            return real(vertices)

        monkeypatch.setattr(polytope, "_build_edge_table", counting)
        mset = example_main_special(KappaContext(Fraction(11, 10)))
        empirical_mu_thresholds(mset)
        norm, poly = exact_case(Fraction(11, 10))
        assert builds == []  # building a polygon takes no gauge
        for z in probe_points(poly, norm):
            polygon_gauge(poly, z)
        poly.matrix_norm(norm.at)
        poly.matrix_norm(norm.bt)
        verify_inclusions(poly, norm)
        assert len(builds) == 1
        _, other = exact_case(Fraction(233, 224))
        other.gauge(other.v(1))
        assert len(builds) == 2

    def test_convexity_levels_computed_once(self, monkeypatch):
        calls = []
        real = polytope._convexity_levels

        def counting(table, exact):
            calls.append(table)
            return real(table, exact)

        monkeypatch.setattr(polytope, "_convexity_levels", counting)
        _, poly = exact_case(Fraction(11, 10))
        levels = convexity_values(poly)
        assert convexity_check(poly) and convexity_check(poly, 1e-3)
        assert convexity_values(poly) == levels
        assert len(calls) == 1 and len(levels) == 6

    def test_convexity_tolerance_applies_at_call_time(self):
        w = omega_thresholds(FloatKappa(1.331))
        lower = max(float(w[0]), float(w[2]), float(w[4]))
        _, poly = float_pipeline(1.331, lower * (1 - 1e-9))
        assert convexity_check(poly, 1e-6)
        assert not convexity_check(poly, 1e-12)
        assert convexity_check(poly, 1e-6)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("orientation", ["clockwise", "counterclockwise"])
    def test_gauge_on_either_orientation_matches_reference(self, orientation, exact):
        """The exact gauge decides s, t >= 0 from the signs of (Z, Ty) and
        (x, Ty); a counterclockwise polygon makes every (x, Ty) negative and
        every (y, Tx) positive, the reverse of a clockwise one."""
        points = DODECAGON if orientation == "clockwise" else DODECAGON[::-1]
        poly = hand_built(points, exact)
        for i in range(1, 13):
            x_ty = float(dot(poly.v(i), rot90(poly.v(i + 1))))
            assert (x_ty > 0) if orientation == "clockwise" else (x_ty < 0)
        make = Vec2.exact if exact else Vec2.flt
        probes = [make(z1, z2) for z1 in range(-12, 13, 3) for z2 in range(-12, 13, 4)]
        for alpha in (Fraction(3, 7), Fraction(-2, 5), Fraction(2)):
            factor = Scalar.exact(alpha) if exact else Scalar.flt(float(alpha))
            probes += [vert.scale(factor) for vert in poly.vertices]
        half = Scalar.exact(Fraction(1, 2)) if exact else Scalar.flt(0.5)
        probes += [(poly.v(i) + poly.v(i + 1)).scale(half) for i in range(1, 13)]
        for z in probes:
            assert same_value(polygon_gauge(poly, z), reference_gauge(poly, z)), z
        make_m = Mat2.exact if exact else Mat2.flt
        for entries in ((1, 0, 0, 1), (2, -1, 1, 3), (0, -1, 1, 0), (-3, 2, 5, -1)):
            m = make_m(*entries)
            assert same_value(poly.matrix_norm(m), reference_matrix_norm(poly, m)), entries


# certify inputs of the benchmark workloads (seed 1) and of the README.
EXTREMAL_CASES = {
    "exact c=11/10": ("exact", Fraction(11, 10), Fraction(5, 4)),
    "exact 8-bit": ("exact", Fraction(187, 179), Fraction(199, 160)),
    "exact 32-bit": (
        "exact", Fraction(2871565111, 2779534860), Fraction(2031088220, 1746211629)
    ),
    "exact 96-bit": (
        "exact",
        Fraction(70785979157745727053458571264, 64850217601772588892838711231),
        Fraction(73222642098272525192820459026, 57481355634328442291876795687),
    ),
    "float alt 1.331": ("alt", 1.331, 1.07),
    "float alt 1.259015": ("alt", 1.259015, 1.042857241),
    "float main 1.248918": ("main", 1.248918, 1.258584838),
    "float alt 1.420795": ("alt", 1.420795, 1.121675232),
}


def extremal_case(name):
    kind, param, mu = EXTREMAL_CASES[name]
    if kind == "exact":
        return example_main_special(KappaContext(param)), Scalar.exact(mu)
    build = example_main if kind == "main" else example_alt
    return build(param, DISTINGUISHED_PHI), Scalar.flt(mu)


class TestExtremalNormReuse:
    """certify_smp reads the induced norms off the inclusion gauges."""

    @pytest.mark.parametrize("name", sorted(EXTREMAL_CASES))
    def test_reported_norms_equal_matrix_norm(self, name):
        mset, mu = extremal_case(name)
        cert = certify_smp(mset, mu)
        assert cert.passed
        kv = dict(cert.as_kv())
        norm = normalize(mset)
        v, w = eigenvectors_from_products(norm)
        poly = build_polygon(norm, v, w, mu)
        for key, m in (("norm.at", norm.at), ("norm.bt", norm.bt)):
            expected = poly.matrix_norm(m)
            if mset.is_exact:
                assert Fraction(kv[key]) == expected.value
            else:
                # repr round-trips, so the printed float is the float.
                assert float(kv[key]).hex() == expected.value.hex()

    @pytest.mark.parametrize("name", sorted(EXTREMAL_CASES))
    def test_certifies_without_matrix_norm(self, name, monkeypatch):
        mset, mu = extremal_case(name)
        expected = certify_smp(mset, mu).as_kv()

        def boom(*args, **kwargs):
            raise AssertionError("Polygon.matrix_norm called")

        monkeypatch.setattr(Polygon, "matrix_norm", boom)
        cert = certify_smp(mset, mu)
        assert cert.passed
        assert cert.as_kv() == expected


class TestInclusions:
    def test_exact_pass(self, poly_exact, norm_exact):
        report = verify_inclusions(poly_exact, norm_exact)
        data = dict(report.data)
        assert report.passed and "inclusion.gauge.a1" in data
        identities = [v for k, v in data.items() if k.startswith("inclusion.identity.")]
        assert len(identities) == 8 and all(v is True for v in identities)

    def test_float_pass(self):
        norm, poly = float_pipeline(1.331, 1.25)
        assert verify_inclusions(poly, norm).passed

    def test_b3_escapes_at_large_scale(self):
        norm, poly = float_pipeline(1.331, 1.36)
        report = verify_inclusions(poly, norm)
        assert not report.passed
        assert "b3" in report.detail.split(": ")[1].split(",")
        assert float(dict(report.data)["inclusion.b3.h"]) > 1.0

    def test_sector_membership_on_parameter_grid(self):
        for kappa in (1.05, 1.331, 1.9):
            for mu in (0.5, 1.0, 2.5):
                norm, poly = float_pipeline(kappa, mu)
                data = dict(verify_inclusions(poly, norm).data)
                labels = ("a4", "a6", "b3", "b7")
                assert all(data[f"inclusion.{x}.{c}"].ge(0) for x in labels for c in "st")

    def test_alt_automatic_identities_hold(self):
        # The image identities depend only on the normalized cube relation,
        # not on the specific pair.
        norm, poly = float_pipeline(1.331, 1.07, family="alt")
        report = verify_inclusions(poly, norm)
        identities = [v for k, v in report.data if k.startswith("inclusion.identity.")]
        assert len(identities) == 8 and all(v is True for v in identities)
        assert report.passed

    def test_report_kv_contains_audit_values(self, poly_exact, norm_exact):
        kv = dict(verify_inclusions(poly_exact, norm_exact).data)
        assert kv["inclusion.a4.sector"] == "v11,v12"
        assert "inclusion.a4.h" in kv and "inclusion.gauge.b3" in kv


# (key label, image list, image index, target vertex, divided by lam?)
IDENTITIES = (
    ("a1", "a", 1, 9, False), ("a2", "a", 2, 10, False), ("a3", "a", 3, 11, False),
    ("a5", "a", 5, 1, True), ("b2", "b", 2, 10, True), ("b4", "b", 4, 12, False),
    ("b5", "b", 5, 1, False), ("b6", "b", 6, 2, False),
)
SECTOR_TESTS = (("a4", "a", 4, 11), ("a6", "a", 6, 2), ("b3", "b", 3, 11), ("b7", "b", 7, 2))


def reference_levels(poly):
    return [(i, triangle_h(poly.v(i - 1), poly.v(i + 1), poly.v(i))) for i in range(1, 7)]


def reference_inclusions(poly, norm, rel_tol=REL_TOL):
    """verify_inclusions rebuilt on images, sector_coords, triangle_h and
    polygon_gauge: (passed, detail, data)."""
    ipts = images(poly, norm)
    lists = {"a": ipts.a, "b": ipts.b}
    data, failures, sector_ok = [], [], {}
    for label, kind, idx, target, scaled in IDENTITIES:
        expected = poly.v(target).scale(1 / norm.lam) if scaled else poly.v(target)
        ok = lists[kind][idx - 1].isclose(expected, rel_tol)
        data.append((f"inclusion.identity.{label}", ok))
        failures += [] if ok else [f"{label} == v{target}" + ("/lam" if scaled else "")]
    for label, kind, idx, i in SECTOR_TESTS:
        x, y, z = poly.v(i), poly.v(i + 1), lists[kind][idx - 1]
        s, t = sector_coords(x, y, z)
        h = triangle_h(x, y, z)
        ok = s.ge(0, rel_tol) and t.ge(0, rel_tol) and h.le(1, rel_tol)
        data += [
            (f"inclusion.{label}.sector", f"v{i},v{i + 1}"), (f"inclusion.{label}.s", s),
            (f"inclusion.{label}.t", t), (f"inclusion.{label}.h", h),
            (f"inclusion.{label}.passed", ok),
        ]
        sector_ok[label] = ok
        failures += [] if ok else [label]
    if all(h.ge(1, rel_tol) for _, h in reference_levels(poly)):
        for kind in "ab":
            for idx, z in enumerate(lists[kind], start=1):
                g = polygon_gauge(poly, z, rel_tol)
                ok = g.le(1, rel_tol)
                if sector_ok.get(f"{kind}{idx}", ok) != ok:
                    raise RuntimeError("sector test and gauge test disagree")
                data += [(f"inclusion.gauge.{kind}{idx}", g),
                         (f"inclusion.gauge.{kind}{idx}.passed", ok)]
                failures += [] if ok else [f"{kind}{idx}"]
    detail = "escaping points: " + ",".join(dict.fromkeys(failures)) if failures else ""
    return not failures, detail, tuple(data)


def inclusion_report(poly, norm, rel_tol=REL_TOL):
    report = verify_inclusions(poly, norm, rel_tol)
    return report.passed, report.detail, report.data


def assert_same_report(got, expected, exact):
    """Exactly equal values on the exact backend; on floats the same repr,
    which tells every float apart bit for bit (-0.0 from 0.0 too)."""
    if exact:
        assert got == expected
    assert repr(got) == repr(expected)


@st.composite
def exact_main_points(draw):
    """(norm, polygon) of an exact main pair: c in [1.001, 1.14] and mu
    inside [mu1, mu2], outside it but close, or well below it."""
    bits = draw(st.sampled_from((10, 32, 96)))
    c = draw(st.fractions(Fraction(1001, 1000), Fraction(114, 100), max_denominator=2**bits))
    ctx = KappaContext(c)
    _, mu1, mu2, _ = mu_thresholds(ctx)
    lo, hi = sorted((mu1.value, mu2.value))
    t = draw(st.fractions(0, 1, max_denominator=2**bits))
    where = draw(st.sampled_from(("in", "above", "below", "not convex")))
    mu = {
        "in": lo + (hi - lo) * t,
        "above": hi * (1 + t / 10),
        "below": lo * (1 - t / 20),
        "not convex": lo * (1 + t) / 2,
    }[where]
    norm = normalize(example_main_special(ctx))
    v, w = eigenvectors_from_products(norm)
    return norm, build_polygon(norm, v, w, mu)


class TestEdgeTableInclusions:
    """verify_inclusions and convexity_values, which read the edge table,
    against the same checks on images, sector_coords, triangle_h and
    polygon_gauge."""

    @settings(max_examples=40, deadline=None)
    @given(exact_main_points())
    def test_exact_main_pairs_match_reference(self, case):
        norm, poly = case
        assert_same_report(convexity_values(poly), reference_levels(poly), True)
        expected = outcome(reference_inclusions, poly, norm)
        assert_same_report(outcome(inclusion_report, poly, norm), expected, True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("main", "alt")),
        st.floats(1.01, 1.5),
        st.floats(0.5, 1.5),
        st.sampled_from((REL_TOL, 1e-15, 1e-6)),
    )
    def test_float_pairs_match_reference(self, family, kappa, share, tol):
        thresholds = (mu_thresholds if family == "main" else alt_mu_thresholds)(kappa)
        norm, poly = float_pipeline(kappa, float(thresholds[1]) * share, family)
        assert_same_report(convexity_values(poly), reference_levels(poly), False)
        expected = outcome(reference_inclusions, poly, norm, tol)
        assert_same_report(outcome(inclusion_report, poly, norm, tol), expected, False)

    @pytest.mark.parametrize("name", sorted(GAUGE_CASES))
    def test_gauge_cases_match_reference(self, name):
        norm, poly = GAUGE_CASES[name]()
        assert_same_report(convexity_values(poly), reference_levels(poly), poly.is_exact)
        assert_same_report(
            inclusion_report(poly, norm), reference_inclusions(poly, norm), poly.is_exact
        )

    @pytest.mark.parametrize("exact", [True, False])
    def test_collinear_chord_raises(self, exact, norm_exact):
        points = list(DODECAGON)
        points[2] = (-5, 0)  # v3 on the line of v1: the chord (v1, v3) is degenerate
        poly = hand_built(points, exact)
        for fn in (convexity_values, reference_levels, convexity_check):
            with pytest.raises(DegenerateSectorError):
                fn(poly)
        points = list(DODECAGON)
        points[11] = (-10, -18)  # v12 on the line of v11: sector (v11, v12) of a4, b3
        poly = hand_built(points, exact)
        norm = norm_exact if exact else float_pipeline(1.331, 1.25)[0]
        for fn in (verify_inclusions, reference_inclusions):
            with pytest.raises(DegenerateSectorError):
                fn(poly, norm)

    @pytest.mark.parametrize("name", ["exact 96-bit c", "float main", "float alt"])
    def test_inclusions_use_no_mat2_or_sector_primitives(self, name, monkeypatch):
        norm, poly = GAUGE_CASES[name]()
        expected = reference_inclusions(poly, norm)

        def boom(*args, **kwargs):
            raise AssertionError("per-point Mat2/Scalar work in the inclusions")

        for fn in ("sector_coords", "triangle_h", "polygon_gauge", "images"):
            monkeypatch.setattr(polytope, fn, boom)
        monkeypatch.setattr(Mat2, "__matmul__", boom)
        assert_same_report(inclusion_report(poly, norm), expected, poly.is_exact)


class TestCertify:
    def test_exact_certificate(self, main_exact):
        cert = certify_smp(main_exact, Fraction(5, 4))
        assert cert.passed
        assert cert.backend == "exact"
        assert cert.rho_bar == Scalar.exact(Fraction(121, 100))
        assert [s.representative.display for s in cert.smp_classes] == [
            "AAB",
            "ABB",
        ]
        assert cert.smp_classes[0].count_a == 2
        assert cert.smp_classes[1].count_b == 2

    def test_exact_certificate_at_both_endpoints(self, ctx11, main_exact):
        _, mu1, mu2, _ = mu_thresholds(ctx11)
        assert certify_smp(main_exact, mu1).passed
        assert certify_smp(main_exact, mu2).passed

    def test_certified_on_admissible_grid(self, ctx11, main_exact):
        _, mu1, mu2, _ = mu_thresholds(ctx11)
        lo, hi = mu1.as_fraction(), mu2.as_fraction()
        for k in range(10):
            mu = lo + (hi - lo) * k / 9
            assert certify_smp(main_exact, mu).passed

    def test_exact_certificates_at_other_parameters(self):
        # c**3 must stay below the admissible kappa ceiling (~1.4479).
        for c in (Fraction(9, 8), Fraction(28, 25)):
            ctx = KappaContext(c)
            mset = example_main_special(ctx)
            _, mu1, mu2, _ = mu_thresholds(ctx)
            mid = (mu1.as_fraction() + mu2.as_fraction()) / 2
            cert = certify_smp(mset, mid)
            assert cert.passed
            assert cert.rho_bar == ctx.power(2)

    def test_nonconvex_control_names_convexity(self):
        mset = example_main(1.331, DISTINGUISHED_PHI)
        cert = certify_smp(mset, 1.04)
        assert not cert.passed
        assert cert.first_failure.name == "convexity"

    def test_escaping_control_names_the_b_inclusion(self):
        mset = example_main(1.331, DISTINGUISHED_PHI)
        cert = certify_smp(mset, 1.36)
        assert not cert.passed
        assert cert.first_failure.name == "inclusions"
        assert "b3" in cert.first_failure.detail

    def test_exact_escaping_control(self, main_exact):
        cert = certify_smp(main_exact, Fraction(34, 25))
        assert not cert.passed and cert.first_failure.name == "inclusions"

    def test_alt_float_certificate(self, alt_float):
        cert = certify_smp(alt_float, 1.07, 1e-9)
        assert cert.passed
        lam = 1.6436089822564943
        assert math.isclose(float(cert.rho_bar), lam ** (1 / 3), rel_tol=1e-9)

    def test_reducible_set_fails_parameters(self):
        mset = example_alt(1.2, 0.0)
        cert = certify_smp(mset, 1.0)
        assert not cert.passed and cert.first_failure.name == "parameters"

    def test_float_mu_with_exact_set_is_a_parameter_failure(self, main_exact):
        cert = certify_smp(main_exact, 1.25)
        assert not cert.passed and cert.first_failure.name == "parameters"

    @pytest.mark.parametrize("exact_set", [True, False])
    def test_scalar_mu_of_the_other_backend_fails_parameters(
        self, main_exact, main_float, exact_set
    ):
        # BackendMismatchError is a TypeError: a failed check, not a crash.
        mset, mu = (main_exact, Scalar.flt(1.25)) if exact_set else (main_float, MU54)
        cert = certify_smp(mset, mu)
        assert [(c.name, c.passed, c.detail) for c in cert.checks] == [
            ("parameters", False, "cannot combine exact and float values"),
        ]

    @pytest.mark.parametrize(
        "exact_set, mu, header",
        [
            (True, 1.25, "family=main backend=exact kappa=1331/1000 mu=1.25"),
            (False, MU54, "family=main backend=float kappa=1.331 mu=5/4"),
            (False, "5/4", "family=main backend=float kappa=1.331 mu=nan"),
            (True, "5/4", "family=main backend=exact kappa=1331/1000 mu=0"),
        ],
    )
    def test_parameter_failure_records_mu_as_given(
        self, main_exact, main_float, exact_set, mu, header
    ):
        # A float or a Scalar of the other backend is kept in the header;
        # only a value that is not a number gets the placeholder.
        cert = certify_smp(main_exact if exact_set else main_float, mu)
        assert cert.as_text().splitlines()[0] == f"certificate: {header}"
        assert cert.first_failure.name == "parameters"

    def test_singular_swap_matrix_fails_permutable(self, ctx11, main_exact):
        singular = Mat2.exact(1, 1, 1, 1)
        mset = custom_set(main_exact.a, main_exact.b, tau_s=singular, ctx=ctx11)
        cert = certify_smp(mset, MU54)
        assert [(c.name, c.passed, c.detail) for c in cert.checks] == [
            ("parameters", True, ""),
            ("permutable", False, "tau does not swap the pair"),
        ]

    @pytest.mark.parametrize(
        "case, c, failed",
        [
            ("quarter-turn pair", Fraction(11, 10),
             ("normalize", False, "A**3 is not the identity; cannot normalize")),
            ("README pair", Fraction(6, 5),
             ("normalize", False, "kappa**2 is not an eigenvalue of B @ A @ A")),
            ("README pair, identity swap", Fraction(11, 10),
             ("permutable", False, "tau does not swap the pair")),
        ],
    )
    def test_exact_failure_paths(self, main_exact, case, c, failed):
        # Each exact custom set stops at its first failed check, with the
        # message of that check; every check before it passed.
        if case == "quarter-turn pair":
            pair = swap_pair(Scalar.exact(0), main_exact.kappa)
            a, b, tau_s = pair.a, pair.b, pair.tau_s
        else:
            a, b, tau_s = main_exact.a, main_exact.b, main_exact.tau_s
            if case.endswith("identity swap"):
                tau_s = Mat2.exact(1, 0, 0, 1)
        mset = custom_set(a, b, tau_s=tau_s, ctx=KappaContext(c))
        cert = certify_smp(mset, MU54)
        passed = [("parameters", True, ""), ("permutable", True, "")]
        expected = passed[: ["parameters", "permutable", "normalize"].index(failed[0])]
        assert [(ch.name, ch.passed, ch.detail) for ch in cert.checks] == [*expected, failed]

    def test_kv_report_carries_audit_trail(self, main_exact):
        cert = certify_smp(main_exact, Fraction(5, 4))
        kv = dict(cert.as_kv())
        assert kv["certified"] == "true"
        assert kv["rho_bar"] == "121/100"
        assert kv["check.inclusions"] == "pass"
        assert "inclusion.a4.h" in kv
        assert "order.v1_Tv2" in kv
        assert kv["smp.1.class"] == "AAB"
        assert kv["smp.1.members"] == "AAB;ABA;BAA"

    def test_text_report_mentions_outcome(self, main_exact):
        text = certify_smp(main_exact, Fraction(5, 4)).as_text()
        assert "rho_bar = 121/100" in text
        bad = certify_smp(main_exact, Fraction(34, 25)).as_text()
        assert "NOT certified" in bad and "inclusions" in bad


class TestConformance:
    def test_all_tables_match_exactly(self):
        names = check_closed_form_tables(Fraction(11, 10), Fraction(5, 4))
        assert len([n for n in names if n.startswith("order.")]) == 15
        assert len([n for n in names if n.startswith(("s.", "t."))]) == 8
        assert len([n for n in names if n.startswith("h.v")]) == 4
        assert len([n for n in names if n.startswith("h.convexity.")]) == 6
        assert len([n for n in names if n.startswith("omega.")]) == 6

    def test_ambiguous_label_resolved(self):
        # t = 1/kappa^4 in the (v2, v3) sector belongs to b7, not to b3.
        names = check_closed_form_tables(Fraction(11, 10), Fraction(5, 4))
        assert "t.v2_v3.b7" in names and "b7/b3.t.v2_v3" in names

    def test_other_parameters_also_match(self):
        names = check_closed_form_tables(Fraction(6, 5), Fraction(13, 10))
        assert len(names) == 42
