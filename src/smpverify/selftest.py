"""The registry of reference checks.

Every check pins an externally known value of the construction (closed
forms, thresholds, certificates) against the implementation.  CHECKS is
the one list of them: `smpverify selftest` runs it and prints one
pass/fail line per check, and tests/test_selftest.py runs each check as
its own pytest case.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import figures, polytope, words
from .families import (
    DISTINGUISHED_PHI,
    eigenvectors_from_products,
    eigenvectors_vw,
    example_alt,
    example_main,
    example_main_special,
    normalize,
)
from .matrix2 import (
    Mat2,
    Vec2,
    eigenvector_unit_first,
    quarter_turn,
    similarity,
    spectral_radius,
)
from .permutability import (
    TauMap,
    friedland_permutable,
    is_irreducible,
    swap_partner,
    tau_word,
    verify_tau,
)
from .scalar import KappaContext, Scalar
from .words import Word, evaluate, factor_counts, necklaces

__all__ = ["run_selftest", "CHECKS"]


def _ctx() -> KappaContext:
    return KappaContext(Fraction(11, 10))


def _approx(actual, expected, tol=1e-9):
    assert abs(float(actual) - float(expected)) <= tol * max(
        1.0, abs(float(expected))
    ), f"{float(actual)!r} != {float(expected)!r}"


def _exact_polygon(mu=Fraction(5, 4), c=Fraction(11, 10)):
    return polytope._polygon_for(example_main_special(KappaContext(c)), Scalar.exact(mu))


def check_kappa_cube():
    ctx = _ctx()
    assert ctx.power(3) == Scalar.exact(Fraction(1331, 1000))
    assert ctx.power(0) == Scalar.exact(1)


def check_kappa_two_thirds():
    assert _ctx().power(2) == Scalar.exact(Fraction(121, 100))


def check_triple_product_closed_form():
    mset = example_main_special(_ctx())
    kappa = _ctx().power(3)
    baa = mset.b @ mset.a @ mset.a
    expected = Mat2(
        kappa * kappa,
        Scalar.exact(0),
        kappa - 1 / kappa,
        1 / (kappa * kappa),
    )
    assert baa == expected
    assert evaluate(Word.from_display("BAA"), mset.a, mset.b) == expected


def check_triple_product_radius():
    mset = example_main_special(_ctx())
    rho = spectral_radius(mset.b @ mset.a @ mset.a)
    _approx(rho, 1.771561, 1e-12)
    # Single factors have complex spectrum on the unit circle.
    _approx(spectral_radius(mset.a), 1.0, 1e-12)


def check_similarity_swaps_main():
    mset = example_main_special(_ctx())
    assert similarity(mset.tau_s, mset.a) == mset.b
    assert similarity(mset.tau_s, mset.b) == mset.a
    eye = Mat2.identity_like(mset.a)
    assert similarity(mset.tau_s, eye) == eye


def check_similarity_swaps_alt():
    mset = example_alt(1.331, DISTINGUISHED_PHI)
    assert similarity(mset.tau_s, mset.a).isclose(mset.b, 1e-12)
    t = quarter_turn(exact=True)
    assert t @ t == -Mat2.identity_like(t)


def check_fixed_vectors():
    norm, _ = _exact_polygon()
    one = Scalar.exact(1)
    v = eigenvector_unit_first(norm.bt @ norm.at @ norm.at, one)
    assert v == Vec2.exact(1, Fraction(1331000, 2771561))
    w = eigenvector_unit_first(norm.bt @ norm.bt @ norm.at, one)
    assert w == Vec2.exact(1, 0)


def check_cube_words_evaluate():
    mset = example_main_special(_ctx())
    eye = Mat2.identity_like(mset.a)
    assert evaluate(Word.from_display("AAA"), mset.a, mset.b) == eye
    assert evaluate(Word.from_display("A"), mset.a, mset.b) == mset.a


def check_necklace_basics():
    assert [w.display for w in necklaces(3)] == "AAA AAB ABB BBB".split()
    assert words.cyclic_normal_form(Word.from_display("ABA")).display == "AAB"


def check_factor_counts():
    assert factor_counts(Word.from_display("BAA")) == (2, 1)
    assert factor_counts(Word.from_display("AABABB")) == (3, 3)


def check_irreducibility():
    assert is_irreducible(*_alt_pair(1.2, math.pi / 3))
    assert not is_irreducible(*_alt_pair(1.2, 0.0))
    eye = Mat2.exact(1, 0, 0, 1)
    assert not is_irreducible(eye, eye)


def check_reducible_flag():
    assert is_irreducible(*_alt_pair(1.2, math.pi / 3))
    for phi in (0.0, math.pi):
        # alt degenerates to {I, I} or {-I, -I}; main keeps two distinct
        # eigendirections (1, -kappa) and (1, -1/kappa).
        assert not is_irreducible(*_alt_pair(1.2, phi))
        main = example_main(1.2, phi)
        assert is_irreducible(main.a, main.b)


def _alt_pair(kappa, phi):
    mset = example_alt(kappa, phi)
    return mset.a, mset.b


def check_friedland():
    mset = example_main_special(_ctx())
    assert friedland_permutable(mset.a, mset.b)
    assert friedland_permutable(*_alt_pair(1.2, math.pi / 3))


def check_tau_verification():
    main = example_main_special(_ctx())
    assert verify_tau(main.a, main.b, TauMap(main.tau_s))
    alt = example_alt(1.331, DISTINGUISHED_PHI)
    assert verify_tau(alt.a, alt.b, TauMap(alt.tau_s))
    eye = Mat2.identity_like(main.a)
    assert not verify_tau(main.a, main.b, TauMap(eye))


def check_tau_word():
    assert tau_word(Word.from_display("BAA")).display == "ABB"
    assert tau_word(Word.from_display("AAA")).display == "BBB"
    assert tau_word(Word.from_display("AB")).display == "BA"


def check_swap_spectrum_report():
    # BAA and its swap image ABB have equal exact spectra on the exact main
    # pair, and swap_partner names ABB's class; an even AB has no partner.
    mset = example_main_special(_ctx())
    baa, abb = (evaluate(Word.from_display(w), mset.a, mset.b) for w in ("BAA", "ABB"))
    assert baa.trace() == abb.trace() and baa.det() == abb.det()
    partner = swap_partner(Word.from_display("BAA"))
    assert partner == Word.from_display("ABB") and factor_counts(partner) == (1, 2)
    assert swap_partner(Word.from_display("AB")) is None


def check_main_matches_special():
    flt = example_main(1.331, DISTINGUISHED_PHI)
    exact = example_main_special(_ctx())
    for got, want in zip(flt.a.entries(), exact.a.entries()):
        _approx(got, float(want), 1e-14)
    assert flt.a.m22 == Scalar.flt(-1.0)


def check_special_entries():
    mset = example_main_special(_ctx())
    assert mset.a == Mat2.exact(
        0, Fraction(-1000, 1331), Fraction(1331, 1000), -1
    )
    assert mset.a.det() == Scalar.exact(1)


def check_cube_identities():
    mset = example_main_special(_ctx())
    eye = Mat2.identity_like(mset.a)
    assert mset.a @ mset.a @ mset.a == eye
    assert mset.b @ mset.b @ mset.b == eye


def check_triple_trace():
    ctx = _ctx()
    mset = example_main_special(ctx)
    kappa = ctx.power(3)
    expected = kappa * kappa + 1 / (kappa * kappa)
    assert (mset.b @ mset.a @ mset.a).trace() == expected
    assert (mset.b @ mset.b @ mset.a).trace() == expected


def check_normalization():
    ctx = _ctx()
    norm = normalize(example_main_special(ctx))
    scale_inv = Scalar.exact(Fraction(100, 121))
    assert norm.at == example_main_special(ctx).a.scale(scale_inv)
    eye = Mat2.identity_like(norm.at)
    assert norm.at @ norm.at @ norm.at == eye.scale(1 / norm.lam)
    _approx(spectral_radius(norm.bt @ norm.at @ norm.at), 1.0, 1e-12)


def check_fixed_vector_residuals():
    ctx = _ctx()
    norm = normalize(example_main_special(ctx))
    v, w = eigenvectors_vw(ctx)
    assert (norm.bt @ norm.at @ norm.at) @ v == v
    assert (norm.bt @ norm.bt @ norm.at) @ w == w
    assert w == Vec2.exact(1, 0)


def check_vertex_construction():
    norm, poly = _exact_polygon()
    assert poly.v(2) == Vec2.exact(1, 0)
    assert norm.at @ poly.v(1) == poly.v(9)
    # Orbit: v1 -> v9 -> v5 -> v1 under A~, A~, B~.
    assert norm.at @ poly.v(9) == poly.v(5)
    assert norm.bt @ poly.v(5) == poly.v(1)


def check_image_identities():
    norm, poly = _exact_polygon()
    ipts = polytope.images(poly, norm)
    assert ipts.b[4] == poly.v(1)
    assert ipts.a[4] == poly.v(1).scale(1 / norm.lam)
    assert ipts.b[1] == poly.v(10).scale(1 / norm.lam)


def check_closed_form_tables(c=Fraction(11, 10), mu=Fraction(5, 4)):
    """The closed-form tables of the zero-corner family against the built
    polygon, compared exactly; returns the names of the compared entries.

    Covers the fifteen order products, s, t and h of the nonobvious points
    in their sectors, the six convexity levels and the omega thresholds.
    """
    ctx = KappaContext(c)
    pw = ctx.power
    norm, poly = _exact_polygon(mu, c)
    mu = Scalar.exact(mu)
    compared = []

    def expect(name, actual, expected):
        assert actual == expected, f"{name}: {actual} != {expected}"
        compared.append(name)

    order = dict(polytope.vertex_order_check(poly).data)
    assert order.get("order.closed_form_match") is True, (
        "order products differ from their closed forms"
    )
    products = [key for key in order if key.startswith("order.v")]
    assert len(products) == 15
    compared.extend(products)

    k4, k6, k2_plus_1 = pw(12), pw(18), pw(6) + 1
    b3 = norm.bt @ poly.v(3)
    nonobvious = (
        # (label, point, sector, s, t, h)
        ("a4", norm.at @ poly.v(4), (11, 12),
         (k4 - 1) / (k4 * mu), 1 / k4, (k4 + mu - 1) / (k4 * mu)),
        ("a6", norm.at @ poly.v(6), (2, 3),
         1 / k4, (k4 - 1) / (pw(10) * mu), (pw(2) * (k4 - 1) + mu) / (k4 * mu)),
        ("b3", b3, (11, 12),
         1 / k4, (k6 - 1) * mu / (k4 * k2_plus_1),
         ((k6 - 1) * mu + pw(6) + 1) / (k4 * k2_plus_1)),
        ("b7", norm.bt @ poly.v(7), (2, 3),
         (k6 - 1) * mu / (pw(14) * k2_plus_1), 1 / k4,
         ((k6 - 1) * mu + pw(2) * k2_plus_1) / (pw(14) * k2_plus_1)),
    )
    for label, z, (i, j), s, t, h in nonobvious:
        x, y = poly.v(i), poly.v(j)
        got_s, got_t = polytope.sector_coords(x, y, z)
        expect(f"s.v{i}_v{j}.{label}", got_s, s)
        expect(f"t.v{i}_v{j}.{label}", got_t, t)
        expect(f"h.v{i}_v{j}.{label}", polytope.triangle_h(x, y, z), h)
    # b3 and b7 are easy to mix up: in the (v2, v3) sector the second
    # coordinate 1/kappa^4 belongs to b7 (checked above), not to b3.
    _, t_b3 = polytope.sector_coords(poly.v(2), poly.v(3), b3)
    assert t_b3 != 1 / k4, f"t(v2,v3,b3) = {t_b3} also equals 1/kappa^4"
    compared.append("b7/b3.t.v2_v3")

    # Convexity level i is h(v_{i-1}, v_{i+1}, v_i); level 1 is h(v12, v2, v1).
    levels = dict(polytope.convexity_values(poly))
    low = (pw(4) + 1) * mu / k2_plus_1
    high = k2_plus_1 * (pw(6) + pw(2)) / ((k4 + pw(6) + 1) * mu)
    closed = (
        low,
        high,
        (pw(8) + 1) * mu / (pw(2) * k2_plus_1),
        high,
        low,
        k2_plus_1 * (pw(8) + 1) / ((k4 + pw(6) + 1) * mu),
    )
    for i, h in enumerate(closed, start=1):
        expect(f"h.convexity.v{i}", levels[i], h)
    # Each level meets its omega threshold as h*omega == mu (odd rows) or
    # h*mu == omega (even rows), which pins the omega forms to the geometry.
    for i, omega in enumerate(polytope.omega_thresholds(ctx), start=1):
        if i % 2:
            expect(f"omega.{i}.times_h", levels[i] * omega, mu)
        else:
            expect(f"omega.{i}.times_mu", levels[i] * mu, omega)

    one, zero = Scalar.exact(1), Scalar.exact(0)
    v3, v7 = poly.v(3), poly.v(7)
    expect("st.v7_v8.v7", polytope.sector_coords(v7, poly.v(8), v7), (one, zero))
    expect("level.v3_v4.v3", polytope.triangle_h(v3, poly.v(4), v3), one)
    return compared


def check_mu_thresholds():
    mu0, mu1, mu2, mu3 = polytope.mu_thresholds(_ctx())
    assert mu0 == Scalar.exact(1)
    assert mu1 == Scalar.exact(Fraction(121, 100))
    _approx(mu2, 1.299757, 1e-6)
    _approx(mu3, 1.572706, 1e-6)
    assert mu3 == _ctx().power(2) * mu2
    f0, f1, f2, f3 = polytope.mu_thresholds(1.2)
    assert float(f0) < float(f1) and float(f2) < float(f3)


def check_omega_thresholds():
    ws = polytope.omega_thresholds(_ctx())
    assert ws[0] == ws[4] and ws[1] == ws[3]
    mu0, mu1, mu2, _ = polytope.mu_thresholds(_ctx())
    assert ws[2] <= ws[0] <= mu1 and mu2 <= ws[1] <= ws[5]
    # Limits as kappa -> 1+: the lower thresholds tend to 1, the upper to
    # 4/3 (substitute kappa = 1 in the closed forms).
    near_one = polytope.omega_thresholds(1.0 + 1e-9)
    for w, limit in zip(near_one, (1.0, 4 / 3, 1.0, 4 / 3, 1.0, 4 / 3)):
        _approx(w, limit, 1e-6)


def check_admissible_interval():
    lo, hi = polytope.admissible_mu_interval(_ctx())
    assert lo == Scalar.exact(Fraction(121, 100))
    _approx(hi, 1.299757, 1e-6)
    assert polytope.admissible_mu_interval(1.46) is None
    kmax = float(polytope.kappa_max("main"))
    lo2, hi2 = polytope.admissible_mu_interval(kmax)
    _approx(lo2, float(hi2), 1e-6)


def check_kappa_max():
    _approx(polytope.kappa_max("main"), 1.447892, 1e-5)
    _approx(polytope.kappa_max("alt"), 1.528580, 1e-5)
    for kappa, sign in ((1.1, -1.0), (1.5, 1.0)):
        _, mu1, mu2, _ = polytope.mu_thresholds(kappa)
        assert (float(mu1) - float(mu2)) * sign > 0
    # alt(k) is main(K) with K^2 = rho(BAA) of alt: S main(K) = alt(k) S.
    for k in (1.1, 1.331, 1.5):
        alt = example_alt(k, DISTINGUISHED_PHI)
        big_k = math.sqrt(float(spectral_radius(alt.b @ alt.a @ alt.a)))
        main = example_main(big_k, DISTINGUISHED_PHI)
        s = Mat2.flt(1.0, 3**0.5 / k - 2 / big_k, 3**0.5 * k - 2 * big_k, 1.0)
        assert (s @ main.a).isclose(alt.a @ s) and (s @ main.b).isclose(alt.b @ s)


def check_vertex_order():
    _, poly = _exact_polygon()
    report = polytope.vertex_order_check(poly)
    products = dict(report.data)
    assert report.passed and "order.closed_form_match" in products
    ctx = _ctx()
    mu = Scalar.exact(Fraction(5, 4))
    assert products["order.v1_Tv2"] == ctx.power(3) * mu / (ctx.power(6) + 1)
    assert products["order.v5_Tv6"] == ctx.power(7) * mu / (ctx.power(6) + 1)
    # Order holds even outside the admissible range.
    _, small = polytope._polygon_for(example_main(1.05, DISTINGUISHED_PHI), 0.5)
    assert polytope.vertex_order_check(small).passed


def check_convexity():
    norm, poly = _exact_polygon()
    assert polytope.convexity_check(poly)
    _, bad = polytope._polygon_for(example_main(1.331, DISTINGUISHED_PHI), 1.04)
    assert not polytope.convexity_check(bad)
    boundary = _exact_polygon(Fraction(121, 100))[1]
    assert polytope.convexity_check(boundary)


def check_inclusions():
    norm, poly = _exact_polygon()
    assert polytope.verify_inclusions(poly, norm).passed
    fnorm, escaping = polytope._polygon_for(example_main(1.331, DISTINGUISHED_PHI), 1.36)
    report = polytope.verify_inclusions(escaping, fnorm)
    assert not report.passed and "b3" in report.detail.split(": ")[1].split(",")
    # Sector membership of the nonobvious points holds on a parameter grid.
    for kappa in (1.05, 1.331, 1.9):
        g = normalize(example_main(kappa, DISTINGUISHED_PHI))
        gv, gw = eigenvectors_from_products(g)
        for mu in (0.5, 1.0, 2.5):
            p = polytope.build_polygon(g, gv, gw, mu)
            r = dict(polytope.verify_inclusions(p, g).data)
            labels = ("a4", "a6", "b3", "b7")
            assert all(r[f"inclusion.{x}.{c}"].ge(0) for x in labels for c in "st")


def check_certificates():
    cert = polytope.certify_smp(example_main_special(_ctx()), Fraction(5, 4))
    assert cert.passed
    assert cert.rho_bar == Scalar.exact(Fraction(121, 100))
    classes = [(s.representative.display, s.count_a, s.count_b) for s in cert.smp_classes]
    assert classes == [("AAB", 2, 1), ("ABB", 1, 2)]
    bad = polytope.certify_smp(example_main_special(_ctx()), Fraction(34, 25))
    assert not bad.passed and bad.first_failure.name == "inclusions"
    alt = polytope.certify_smp(example_alt(1.331, DISTINGUISHED_PHI), 1.07, 1e-9)
    assert alt.passed


def check_figures_render():
    for make, mu in ((example_main, 1.25), (example_main, 1.04), (example_alt, 1.07)):
        norm, poly = polytope._polygon_for(make(1.331, DISTINGUISHED_PHI), mu)
        svg = figures.render_string(
            figures.FigureSpec(polygon=poly, images=polytope.images(poly, norm))
        )
        assert svg.startswith("<?xml") and svg.count("<circle") == 36
        assert ">v12<" in svg


CHECKS = [
    ("kappa cube 11/10 -> 1331/1000", check_kappa_cube),
    ("kappa^(2/3) = 121/100", check_kappa_two_thirds),
    ("BAA closed form", check_triple_product_closed_form),
    ("rho(BAA) = kappa^2 at kappa=1.331", check_triple_product_radius),
    ("similarity swaps zero-corner pair", check_similarity_swaps_main),
    ("similarity swaps rotation pair", check_similarity_swaps_alt),
    ("fixed vectors v and w", check_fixed_vectors),
    ("AAA = I under evaluation", check_cube_words_evaluate),
    ("necklaces and normal form", check_necklace_basics),
    ("factor counts", check_factor_counts),
    ("irreducibility test", check_irreducibility),
    ("reducible angles of alt and main", check_reducible_flag),
    ("trace/det permutability", check_friedland),
    ("tau swap verification", check_tau_verification),
    ("tau word image", check_tau_word),
    ("swap-spectrum report", check_swap_spectrum_report),
    ("float pair matches exact special form", check_main_matches_special),
    ("special pair entries", check_special_entries),
    ("cube identities", check_cube_identities),
    ("triple trace", check_triple_trace),
    ("normalization", check_normalization),
    ("fixed-vector residuals", check_fixed_vector_residuals),
    ("vertex construction orbit", check_vertex_construction),
    ("image identities", check_image_identities),
    ("closed-form tables", check_closed_form_tables),
    ("mu thresholds", check_mu_thresholds),
    ("omega thresholds", check_omega_thresholds),
    ("admissible interval", check_admissible_interval),
    ("kappa_max both families", check_kappa_max),
    ("vertex order", check_vertex_order),
    ("convexity", check_convexity),
    ("inclusions", check_inclusions),
    ("certificates", check_certificates),
    ("figure rendering", check_figures_render),
]


def run_selftest(write=print) -> int:
    """Run every reference check; returns 0 when all pass, 1 otherwise.

    The checks are assert statements, so under python -O, which strips
    them, nothing runs and the return is 2.
    """
    if not __debug__:
        write("error: assertions are disabled (python -O); the checks cannot run")
        return 2
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            write(f"FAIL  {name}: {exc}")
        else:
            write(f"PASS  {name}")
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
