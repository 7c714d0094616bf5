"""The twelve-vertex invariant polygon and its certificates.

Construction: starting from the fixed vectors v (of B~A~A~) and w (of
B~B~A~), scaled by mu > 0, six base vertices are generated by alternately
applying -A~ and -B~; the other six are their mirror images through the
origin.  If the resulting balanced polygon is convex and swallowed by
both A~ and B~, its Minkowski gauge is a norm in which both matrices are
contractions by the cube root of lam, which pins the generalized spectral
radius of the original pair to lam**(1/3) and certifies the length-3
products as spectrum maximizing.

Membership in a sector or triangle spanned by two vertices x, y reduces to
sign tests on the three ratios

    s = (z, Ty)/(x, Ty),  t = (z, Tx)/(y, Tx),  h = (y - x, Tz)/(y, Tx)

with T the quarter-turn rotation; h = s + t, and z lies in the triangle
x, y, 0 exactly when s, t >= 0 and h <= 1.  On the exact backend every one
of these quantities is a rational number, so the certificate carries no
rounding at all.

The gauge, the matrix norm, the convexity levels and the inclusion checks
all read one edge table per polygon, built on first use: per edge
(v_i, v_{i+1}) the rotated endpoints T v_{i+1} and T v_i, the products
(v_i, T v_{i+1}) and (v_{i+1}, T v_i), the difference v_{i+1} - v_i and a
collinearity flag.  On the exact backend the vertices are scaled by the lcm
D of their 24 denominators, so the table holds ints V = D v, and a matrix M
by the lcm F of its denominators (of A~ and B~ together in the inclusions),
so each image M v_i is the int point Z = (F M) V_i over E = F D.  The gauge
compares the sign of (Z, Ty) with that of the table's (x, Ty), with neither
a division nor a product, and builds h once as the Fraction
(v_{i+1} - v_i, T Z) D / (E (v_{i+1}, T v_i)).  The identities are the int
equalities Z == F V_j (lam.num Z == lam.den F V_j for the 1/lam ones); the
sector tests read edge rows 11 and 2, as s = (Z, Ty) / (F (x, Ty)) and so
on; a convexity level is (V_{i+1} - V_{i-1}, T V_i) / (V_{i+1}, T V_{i-1}),
where D cancels.  Each value is one Fraction, reduced once.  On the float
backend D = F = E = 1 and every value is formed with the operations of
Mat2 @, sector_coords and triangle_h in their order, so it is bit-identical
to theirs: each check has one code path for both backends.  The tolerance
is read at call time and never stored.

certify_smp evaluates each of the 24 image gauges once.  verify_inclusions
gauges every a_i = A~ v_i and b_i = B~ v_i of a convex polygon, and the
induced norms of A~ and B~ are the largest of those values: the points and
the function that Polygon.matrix_norm would use, so the values are the
same, bit for bit on floats.  Polygon.matrix_norm serves other matrices,
such as the word products of `bounds --norm polygon`.

The certificate is one record tree.  Each check, vertex_order_check and
verify_inclusions included, is a CheckResult whose data holds the check's
(key, value) pairs in report order, with typed values: a Scalar, a bool or
a str.  Certificate.as_kv is the only place where a value becomes text,
so `certify --kv` is a view of that tree.

The gauge keeps the sector rule: the first sector in index order whose s
and t pass the tolerance test.  The equivalent max_i |(f_i, z)| over six
edge functionals is not used, because eight of the 24 images lie on a
vertex ray, where two functionals tie exactly but may differ by one ulp in
floats, which would change printed float values.

Thresholds are closed forms (at phi = 2pi/3 alt is main in other
coordinates) and kappa_max is decided exactly; empirical_mu_thresholds reads
them off the construction of any pair and is their reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .families import (
    MatrixSet,
    NormalizedSet,
    eigenvectors_from_products,
    normalize,
)
from .matrix2 import Mat2, Vec2, common_scale, dot, rot90
from .permutability import TauMap, friedland_permutable, is_irreducible, verify_tau
from .scalar import (
    REL_TOL,
    BackendMismatchError,
    FloatKappa,
    KappaContext,
    Record,
    Scalar,
)
from .words import Word, factor_counts

__all__ = [
    "Polygon",
    "ImagePoints",
    "CheckResult",
    "SmpClass",
    "Certificate",
    "DegenerateSectorError",
    "sector_coords",
    "triangle_h",
    "build_polygon",
    "images",
    "mu_thresholds",
    "alt_mu_thresholds",
    "omega_thresholds",
    "admissible_mu_interval",
    "empirical_mu_thresholds",
    "kappa_max",
    "vertex_order_check",
    "convexity_check",
    "convexity_values",
    "polygon_gauge",
    "verify_inclusions",
    "certify_smp",
]


class DegenerateSectorError(ValueError):
    """The two sector generators lie on one line."""


def _as_kappa(kappa) -> KappaContext | FloatKappa:
    if isinstance(kappa, (KappaContext, FloatKappa)):
        return kappa
    if isinstance(kappa, Scalar) and kappa.is_exact:
        raise TypeError(
            "exact thresholds need a KappaContext (kappa = c**3); "
            "pass the context instead of a bare rational"
        )
    return FloatKappa(float(kappa))


def _collinear_float(x1: float, x2: float, y1: float, y2: float, denom: float) -> bool:
    """Float rule for collinear generators x, y: the product denom =
    (x, Ty) is negligible next to |x| |y|."""
    scale = math.hypot(x1, x2) * math.hypot(y1, y2)
    return abs(denom) <= 1e-14 * max(1.0, scale)


def _collinear(x1, x2, y1, y2, denom, exact: bool) -> bool:
    """Whether x, y are collinear, given denom = +-(x, Ty): exactly zero on
    ints, _collinear_float on floats."""
    return denom == 0 if exact else _collinear_float(x1, x2, y1, y2, denom)


def _check_denominator(x: Vec2, y: Vec2, denom: Scalar) -> None:
    x1, x2, y1, y2 = x.x1.value, x.x2.value, y.x1.value, y.x2.value
    if _collinear(x1, x2, y1, y2, denom.value, denom.is_exact):
        raise DegenerateSectorError("sector generators are collinear")


def sector_coords(x: Vec2, y: Vec2, z: Vec2) -> tuple[Scalar, Scalar]:
    """Coordinates of z in the basis (x, y); both >= 0 iff z is in the
    sector spanned by x and y."""
    x_ty = dot(x, rot90(y))
    _check_denominator(x, y, x_ty)
    s = dot(z, rot90(y)) / x_ty
    t = dot(z, rot90(x)) / (-x_ty)
    return s, t


def triangle_h(x: Vec2, y: Vec2, z: Vec2) -> Scalar:
    """The level of z relative to the chord from x to y; equals s + t.
    Given z in the sector of (x, y), z lies in the triangle x, y, 0 iff
    h <= 1."""
    y_tx = dot(y, rot90(x))
    _check_denominator(x, y, y_tx)
    return dot(y - x, rot90(z)) / y_tx


_NO_SECTOR = "no sector contains the point; polygon is not convex?"


class _EdgeTable(Record):
    """A polygon's vertices and edges as plain numbers (module docstring).

    `scale` is D (1 on the float backend) and `vertices` holds D * v_i.
    Each edge row (x, y) = (v_i, v_{i+1}) is
    (Ty_1, Ty_2, Tx_1, Tx_2, (x, Ty), (y, Tx), d_1, d_2, collinear)
    with d = y - x.  (y, Tx) == -(x, Ty) holds for floats too, bit for
    bit: both sums round the same two products, with opposite signs.
    """

    __slots__ = ("scale", "vertices", "edges")

    def __init__(self, scale: int, vertices: tuple, edges: tuple):
        self._init(scale, vertices, edges)


def _build_edge_table(vertices: tuple[Vec2, ...]) -> _EdgeTable:
    exact = vertices[0].is_exact
    coords = [(v.x1.value, v.x2.value) for v in vertices]
    if exact:
        d, flat = common_scale([q for pair in coords for q in pair])
        coords = list(zip(flat[0::2], flat[1::2]))
    else:
        d = 1
    edges = []
    for i, (x1, x2) in enumerate(coords):
        y1, y2 = coords[(i + 1) % len(coords)]
        x_ty = x1 * -y2 + x2 * y1
        y_tx = y1 * -x2 + y2 * x1
        collinear = _collinear(x1, x2, y1, y2, x_ty, exact)
        edges.append((-y2, y1, -x2, x1, x_ty, y_tx, y1 - x1, y2 - x2, collinear))
    return _EdgeTable(d, tuple(coords), tuple(edges))


def _ratio(num, den, exact: bool) -> Scalar:
    """num / den as one Scalar: one Fraction (one gcd) of two ints, or one
    float division."""
    return Scalar(Fraction(num, den) if exact else num / den)


def _scaled_entries(mats, exact: bool) -> tuple[int, list]:
    """(F, rows): each matrix's four entries times the lcm F of all their
    denominators, as ints; F = 1 and the floats themselves on floats."""
    values = [q.value for m in mats for q in m.entries()]
    f, values = common_scale(values) if exact else (1, values)
    return f, [values[k:k + 4] for k in range(0, len(values), 4)]


def _image_points(table: _EdgeTable, entries) -> list[tuple]:
    """(F M)(D v_i) for the twelve table vertices, each coordinate in the
    order of Mat2 @: the image M v_i times E = F D."""
    m11, m12, m21, m22 = entries
    return [(m11 * x1 + m12 * x2, m21 * x1 + m22 * x2) for x1, x2 in table.vertices]


def _convexity_levels(table: _EdgeTable, exact: bool) -> tuple:
    """h(v_{i-1}, v_{i+1}, v_i) for i = 1..6 on the table's vertices:
    h = (Y - X, T Z) / (Y, T X), where the factors D cancel, with the
    operations of triangle_h in its order."""
    verts = table.vertices
    levels = []
    for i in range(1, 7):
        (x1, x2), (z1, z2), (y1, y2) = verts[i - 2], verts[i - 1], verts[i]
        y_tx = y1 * -x2 + y2 * x1
        if _collinear(x1, x2, y1, y2, y_tx, exact):
            raise DegenerateSectorError("sector generators are collinear")
        levels.append((i, _ratio((y1 - x1) * -z2 + (y2 - x2) * z1, y_tx, exact)))
    return tuple(levels)


def _gauge_exact(table: _EdgeTable, z1: int, z2: int, e: int) -> Fraction:
    """Gauge of the point (z1, z2) / e, for ints z1, z2 and e > 0.

    With Z = (z1, z2): s = (Z, Ty) D / (E (x, Ty)), t = (Z, Tx) D / (E (y, Tx))
    and D, E > 0.  A non-collinear edge has (x, Ty) != 0, so s >= 0 exactly
    when (Z, Ty) is zero or has the sign of (x, Ty), and likewise for t:
    the signs are compared, the products never formed.
    """
    if z1 == 0 and z2 == 0:
        return Fraction(0)
    for ty1, ty2, tx1, tx2, x_ty, y_tx, d1, d2, collinear in table.edges:
        if collinear:
            raise DegenerateSectorError("sector generators are collinear")
        s = z1 * ty1 + z2 * ty2
        if s and (s > 0) is not (x_ty > 0):
            continue
        t = z1 * tx1 + z2 * tx2
        if t and (t > 0) is not (y_tx > 0):
            continue
        return Fraction((d1 * -z2 + d2 * z1) * table.scale, e * y_tx)
    raise ValueError(_NO_SECTOR)


def _gauge_float(table: _EdgeTable, z1: float, z2: float, tol: float) -> float:
    """Gauge of the point (z1, z2); s, t and h round exactly as in
    sector_coords and triangle_h, and s, t >= -tol is Scalar.ge(0, tol)."""
    if z1 == 0 and z2 == 0:
        return 0.0
    for ty1, ty2, tx1, tx2, x_ty, y_tx, d1, d2, collinear in table.edges:
        if collinear:
            raise DegenerateSectorError("sector generators are collinear")
        s = (z1 * ty1 + z2 * ty2) / x_ty
        t = (z1 * tx1 + z2 * tx2) / y_tx
        if s >= -tol and t >= -tol:
            return (d1 * -z2 + d2 * z1) / y_tx
    raise ValueError(_NO_SECTOR)


def _gauges(table: _EdgeTable, points, e: int, rel_tol: float, exact: bool):
    """The gauges of the points (z1, z2) / e, lazily, in order."""
    if exact:
        return (_gauge_exact(table, z1, z2, e) for z1, z2 in points)
    return (_gauge_float(table, z1, z2, rel_tol) for z1, z2 in points)


def _check_backend(poly: "Polygon", exact: bool) -> None:
    if exact != poly.is_exact:
        raise BackendMismatchError(
            "cannot combine exact and float values with one polygon"
        )


class Polygon(Record):
    """Balanced twelve-gon: vertices in clockwise index order, plus the
    parameters that generated it.

    The edge table and the convexity levels are computed on first use and
    kept, outside the fields, for the life of the polygon.
    """

    __slots__ = ("vertices", "mu", "kappa", "ctx", "family", "__dict__")

    def __init__(
        self, vertices: tuple[Vec2, ...], mu: Scalar, kappa: Scalar,
        ctx: KappaContext | None, family: str,
    ):
        if len(vertices) != 12:
            raise ValueError("the polygon has exactly 12 vertices")
        self._init(vertices, mu, kappa, ctx, family)

    @property
    def is_exact(self) -> bool:
        return self.vertices[0].is_exact

    def v(self, i: int) -> Vec2:
        """1-indexed vertex access with wraparound (v13 == v1)."""
        return self.vertices[(i - 1) % 12]

    @cached_property
    def _edge_table(self) -> _EdgeTable:
        return _build_edge_table(self.vertices)

    @cached_property
    def _convexity_levels(self) -> tuple[tuple[int, Scalar], ...]:
        return _convexity_levels(self._edge_table, self.is_exact)

    def gauge(self, x: Vec2, rel_tol: float = REL_TOL) -> Scalar:
        return polygon_gauge(self, x, rel_tol)

    def matrix_norm(self, m: Mat2, rel_tol: float = REL_TOL) -> Scalar:
        """Operator norm induced by the polygon gauge: the maximum of the
        gauge over the images of the vertices.

        The images are the edge table's (module docstring), not Mat2 @.
        """
        _check_backend(self, m.is_exact)
        table = self._edge_table
        f, (entries,) = _scaled_entries((m,), self.is_exact)
        points = _image_points(table, entries)
        return Scalar(max(_gauges(table, points, f * table.scale, rel_tol, self.is_exact)))


def _coerce_mu(mu, exact: bool) -> Scalar:
    if isinstance(mu, Scalar):
        if mu.is_exact != exact:
            raise TypeError(
                f"mu backend ({mu.backend}) does not match the set backend"
            )
        return mu
    if isinstance(mu, (int, Fraction)):
        return Scalar.exact(mu) if exact else Scalar.flt(float(mu))
    if isinstance(mu, float):
        if exact:
            raise TypeError("an exact certificate needs a rational mu, got a float")
        return Scalar.flt(mu)
    raise TypeError(f"cannot interpret mu={mu!r}")


def build_polygon(
    norm: NormalizedSet, v: Vec2, w: Vec2, mu, rel_tol: float = REL_TOL
) -> Polygon:
    """Vertices v1..v12 from the fixed vectors and the scale mu > 0.

    Validates the fixed-vector identities (v and w must be fixed by
    B~A~A~ and B~B~A~) and cross-checks the recursive construction
    against the direct expressions -mu*A~v, mu*A~A~v and B~A~w.
    """
    at, bt = norm.at, norm.bt
    mu = _coerce_mu(mu, at.is_exact)
    if not mu > 0:
        raise ValueError(f"need mu > 0, got {mu}")
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
    verts = base + tuple(-x for x in base)
    src = norm.source
    return Polygon(
        vertices=verts, mu=mu, kappa=src.kappa, ctx=src.ctx, family=src.family
    )


class ImagePoints(Record):
    """Images a_i = A~ v_i and b_i = B~ v_i of all twelve vertices."""

    __slots__ = ("a", "b")

    def __init__(self, a: tuple[Vec2, ...], b: tuple[Vec2, ...]):
        self._init(a, b)


def images(poly: Polygon, norm: NormalizedSet) -> ImagePoints:
    at, bt = norm.at, norm.bt
    return ImagePoints(
        a=tuple(at @ v for v in poly.vertices),
        b=tuple(bt @ v for v in poly.vertices),
    )


# -- threshold algebra ----------------------------------------------------


def mu_thresholds(kappa) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The four closed-form scale thresholds of the zero-corner family.

    mu0 = 1, mu1 = kappa**(2/3), mu2 = (kappa^2+1)^2/(kappa^4+kappa^2+1),
    mu3 = kappa**(2/3) * mu2.  The polygon is admissible iff
    mu1 <= mu <= mu2.
    """
    pw = _as_kappa(kappa).power
    one = pw(0)
    k2 = pw(6)
    k4 = pw(12)
    mu2 = (k2 + 1) * (k2 + 1) / (k4 + k2 + 1)
    return (one, pw(2), mu2, pw(2) * mu2)


_SQRT3 = math.sqrt(3.0)


def _shift_root(d: float) -> float:
    """The x > 0 with x - 1/x = d."""
    return (d + math.sqrt(d * d + 4.0)) / 2.0


def alt_mu_thresholds(kappa) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The four scale thresholds of the rotation family at phi = 2pi/3.

    alt(k) is main(K) in other coordinates for K - 1/K = (sqrt3/2)(k - 1/k),
    where both pairs have trace -1, det 1 and the same tr AB.  The similarity
    S = [[1, sqrt3/k - 2/K], [sqrt3 k - 2K, 1]] (S A_main = A_alt S, and the
    same for B) maps main's fixed vectors to mu0_alt v_alt and w_alt, with
    mu0_alt = (K^2 - 1 + sqrt3 K/k)/(K^2 + 1), so alt's polygon at mu is S
    times main's at mu/mu0_alt.  Float backend only.
    """
    k = float(kappa)
    if not k > 1:
        raise ValueError(f"need kappa > 1, got {k}")
    d = _SQRT3 / 2 * (k - 1 / k)
    big_k = _shift_root(d)
    # mu0_alt divided through by K, so that K^2 is never formed.
    mu0 = Scalar.flt((d + _SQRT3 / k) / (big_k + 1 / big_k))
    try:
        main_thresholds = mu_thresholds(FloatKappa(big_k))
    except ValueError:
        raise ValueError(
            f"kappa = {k!r}: the alt thresholds are out of float range"
        ) from None
    return tuple(mu0 * m for m in main_thresholds)


def omega_thresholds(kappa) -> tuple[Scalar, ...]:
    """The six convexity thresholds of the zero-corner family."""
    pw = _as_kappa(kappa).power
    k2 = pw(6)
    k4 = pw(12)
    w1 = (k2 + 1) / (pw(4) + 1)
    w2 = (k2 + 1) * (k2 + pw(2)) / (k4 + k2 + 1)
    w3 = pw(2) * (k2 + 1) / (pw(8) + 1)
    w6 = (k2 + 1) * (pw(8) + 1) / (k4 + k2 + 1)
    return (w1, w2, w3, w2, w1, w6)


def admissible_mu_interval(kappa):
    """[mu1, mu2] when nonempty (endpoints included), else None."""
    _, mu1, mu2, _ = mu_thresholds(kappa)
    return (mu1, mu2) if mu1 <= mu2 else None


def _threshold_h_values(norm: NormalizedSet, v: Vec2, w: Vec2, mu) -> tuple:
    """The levels h(a4), h(a6), h(b3), h(b7) in their sectors at a given mu."""
    poly = build_polygon(norm, v, w, mu)
    maps = {"a": norm.at, "b": norm.bt}
    return tuple(
        triangle_h(poly.v(i), poly.v(j), maps[kind] @ poly.v(idx))
        for _, kind, idx, (i, j) in _NONOBVIOUS
    )


def empirical_mu_thresholds(mset: MatrixSet) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Scale thresholds extracted from the construction itself.

    Works for any admissible pair (either backend): the two lower levels
    h(a4), h(a6) are affine in 1/mu and the two upper levels h(b3), h(b7)
    are affine in mu, so two samples determine each threshold; a third
    sample validates the model.  On the exact backend the result is exact
    and must coincide with the closed forms for the zero-corner family.
    """
    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    samples = zip(*(_threshold_h_values(norm, v, w, m) for m in (1, 2, 3)))
    out = []
    for idx, (h1, h2, h3) in enumerate(samples):
        if idx < 2:  # h = p + q/mu -> threshold mu = q/(1 - p)
            q = (h1 - h2) * 2
            p = h1 - q
            model, threshold = p + q / 3, q / (1 - p)
        else:  # h = p + q*mu -> threshold mu = (1 - p)/q
            q = h2 - h1
            p = h1 - q
            model, threshold = p + q * 3, (1 - p) / q
        if not model.isclose(h3):
            raise RuntimeError("inclusion level does not follow the affine model")
        out.append(threshold)
    return tuple(out)


def kappa_max(family: str = "main") -> Scalar:
    """Largest kappa with a nonempty admissible scale interval.

    For main, the largest float kappa with mu1 <= mu2 exactly: bisection
    on floats, each side decided in exact arithmetic, until the bracket
    holds two adjacent floats.  alt(k) is main(K) with k - 1/k = (2/sqrt3)(K - 1/K)
    (alt_mu_thresholds), so alt's is that k at main's, rounded in floats.
    """
    if family not in ("main", "alt"):
        raise ValueError(f"unknown family {family!r}")
    lo, hi = 1.0, 2.0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        # With x = mid^2 = n/d, mu1^3 = x and mu2 = (x + 1)^2/(x^2 + x + 1):
        # mu1 <= mu2 is x (x^2 + x + 1)^3 <= (x + 1)^6, cleared of denominators.
        n, d = (Fraction(mid) ** 2).as_integer_ratio()
        if n * (n * n + n * d + d * d) ** 3 <= d * (n + d) ** 6:
            lo = mid
        else:
            hi = mid
    if family == "alt":
        lo = _shift_root(2 / _SQRT3 * (lo - 1 / lo))
    return Scalar.flt(lo)


# -- geometric checks ------------------------------------------------------


class CheckResult(Record):
    """One check of the certificate: verdict, detail and the (key, value)
    pairs of its report lines, each value a Scalar, a bool or a str."""

    __slots__ = ("name", "passed", "detail", "data")

    def __init__(
        self, name: str, passed: bool, detail: str = "",
        data: tuple[tuple[str, Scalar | bool | str], ...] = (),
    ):
        self._init(name, passed, detail, data)


_ORDER_PAIRS = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 7))


def _order_products_closed(pw, mu: Scalar) -> dict:
    """Closed forms of (v_i, T v_j) for the zero-corner family."""
    k2 = pw(6)
    k4 = pw(12)
    poly_q = k4 + k2 + 1
    denom = k2 + 1
    mu2 = mu * mu
    return {
        (1, 2): pw(3) * mu / denom,
        (1, 3): pw(1) * poly_q * mu2 / (denom * denom),
        (1, 4): pw(1) * mu,
        (1, 5): poly_q * mu2 / (pw(1) * denom * denom),
        (1, 6): mu / (pw(1) * denom),
        (2, 3): pw(7) * mu / denom,
        (2, 4): pw(1),
        (2, 5): mu / pw(1),
        (2, 6): 1 / pw(1),
        (3, 4): mu / (pw(1) * denom),
        (3, 5): poly_q * mu2 / (pw(3) * denom * denom),
        (3, 6): (k4 + 1) * mu / (pw(3) * denom),
        (4, 5): pw(3) * mu / denom,
        (4, 6): pw(3),
        (5, 6): pw(7) * mu / denom,
    }


def vertex_order_check(poly: Polygon, rel_tol: float = REL_TOL) -> CheckResult:
    """All fifteen products (v_i, T v_j), i < j <= 6, must be positive:
    the rays are then pairwise distinct and the clockwise traversal meets
    the vertices in index order, for any kappa > 1 and mu > 0.  On the
    zero-corner family each product must also match its closed form."""
    products = [dot(poly.v(i), rot90(poly.v(j))) for i, j in _ORDER_PAIRS]
    passed = all(val > 0 for val in products)
    data = [(f"order.v{i}_Tv{j}", val) for (i, j), val in zip(_ORDER_PAIRS, products)]
    data.append(("order.all_positive", passed))
    if poly.family == "main":
        pw = _as_kappa(poly.ctx if poly.ctx is not None else poly.kappa).power
        closed = _order_products_closed(pw, poly.mu)
        match = all(
            val.isclose(closed[pair], rel_tol)
            for pair, val in zip(_ORDER_PAIRS, products)
        )
        data.append(("order.closed_form_match", match))
        passed = passed and match
    return CheckResult("vertex_order", passed, "", tuple(data))


def convexity_values(poly: Polygon) -> list[tuple[int, Scalar]]:
    """h(v_{i-1}, v_{i+1}, v_i) for i = 1..6; the polygon is convex iff
    every level is >= 1 (the mirrored half repeats by symmetry).  The
    levels are computed once per polygon."""
    return list(poly._convexity_levels)


def convexity_check(poly: Polygon, rel_tol: float = REL_TOL) -> bool:
    return all(h.ge(1, rel_tol) for _, h in poly._convexity_levels)


def polygon_gauge(poly: Polygon, x: Vec2, rel_tol: float = REL_TOL) -> Scalar:
    """Minkowski gauge of the polygon: 0 at the origin, 1 on the boundary.

    Locates the first sector (v_i, v_{i+1}) in index order that contains
    x and returns the level h there.  The search reads the polygon's edge
    table (module docstring): exact points are scaled to ints and decided
    without a division, float points are computed as sector_coords and
    triangle_h compute them, with the tolerance applied here.  Requires a
    convex polygon with verified vertex order to be a norm.
    """
    _check_backend(poly, x.is_exact)
    table = poly._edge_table
    if poly.is_exact:
        e, (z1, z2) = common_scale((x.x1.value, x.x2.value))
        return Scalar(_gauge_exact(table, z1, z2, e))
    return Scalar(_gauge_float(table, x.x1.value, x.x2.value, rel_tol))


_AUTOMATIC_IDENTITIES = (
    # (label, image list, image index 1..12, target vertex index, scaled by 1/lam?)
    ("a1 == v9", "a", 1, 9, False),
    ("a2 == v10", "a", 2, 10, False),
    ("a3 == v11", "a", 3, 11, False),
    ("a5 == v1/lam", "a", 5, 1, True),
    ("b2 == v10/lam", "b", 2, 10, True),
    ("b4 == v12", "b", 4, 12, False),
    ("b5 == v1", "b", 5, 1, False),
    ("b6 == v2", "b", 6, 2, False),
)

_NONOBVIOUS = (
    # (point label, image list, index, sector pair)
    ("a4", "a", 4, (11, 12)),
    ("a6", "a", 6, (2, 3)),
    ("b3", "b", 3, (11, 12)),
    ("b7", "b", 7, (2, 3)),
)


def _on_vertex(z, v, f: int, lam, exact: bool, rel_tol: float) -> bool:
    """Whether the image z, over E = F D, is the table vertex v, over D, or
    v / lam when lam is given: lam.num Z == lam.den F V on ints, and on
    floats Scalar.isclose per coordinate against v times 1 / lam."""
    if exact:
        p, q = (lam.numerator, lam.denominator) if lam is not None else (1, 1)
        return all(p * zk == q * f * vk for zk, vk in zip(z, v))
    r = 1.0 if lam is None else 1 / lam
    return all(Scalar(zk).isclose(Scalar(vk * r), rel_tol) for zk, vk in zip(z, v))


def verify_inclusions(
    poly: Polygon, norm: NormalizedSet, rel_tol: float = REL_TOL
) -> CheckResult:
    """All 24 image points must stay inside the polygon.

    Eight images land on vertices (or 1/lam-scaled vertices) by
    construction and are checked as identities; the four nonobvious points
    a4, a6, b3, b7 are tested in their designated sectors; and, when the
    polygon is convex, every image is additionally re-checked with the
    generic gauge.  A verdict disagreement between the sector test and the
    gauge test raises RuntimeError: it would mean the geometry primitives
    contradict each other.
    """
    _check_backend(poly, norm.at.is_exact)
    exact = poly.is_exact
    table = poly._edge_table
    f, (at, bt) = _scaled_entries((norm.at, norm.bt), exact)
    lists = {"a": _image_points(table, at), "b": _image_points(table, bt)}
    data = []
    failures = []

    for label, kind, idx, target, scaled in _AUTOMATIC_IDENTITIES:
        point = lists[kind][idx - 1]
        lam = norm.lam.value if scaled else None
        ok = _on_vertex(point, table.vertices[target - 1], f, lam, exact, rel_tol)
        data.append((f"inclusion.identity.{label.split(' ')[0]}", ok))
        if not ok:
            failures.append(label)

    sector_ok = {}
    for label, kind, idx, (i, j) in _NONOBVIOUS:
        z1, z2 = lists[kind][idx - 1]
        ty1, ty2, tx1, tx2, x_ty, y_tx, d1, d2, collinear = table.edges[i - 1]
        if collinear:
            raise DegenerateSectorError("sector generators are collinear")
        s = _ratio(z1 * ty1 + z2 * ty2, f * x_ty, exact)
        t = _ratio(z1 * tx1 + z2 * tx2, f * y_tx, exact)
        h = _ratio(d1 * -z2 + d2 * z1, f * y_tx, exact)
        ok = s.ge(0, rel_tol) and t.ge(0, rel_tol) and h.le(1, rel_tol)
        base = f"inclusion.{label}"
        data += [
            (f"{base}.sector", f"v{i},v{j}"),
            (f"{base}.s", s),
            (f"{base}.t", t),
            (f"{base}.h", h),
            (f"{base}.passed", ok),
        ]
        sector_ok[label] = ok
        if not ok:
            failures.append(label)

    if convexity_check(poly, rel_tol):
        e = f * table.scale
        for kind in ("a", "b"):
            gauges = _gauges(table, lists[kind], e, rel_tol, exact)
            for idx, value in enumerate(gauges, start=1):
                label = f"{kind}{idx}"
                g = Scalar(value)
                ok = g.le(1, rel_tol)
                if sector_ok.get(label, ok) != ok:
                    raise RuntimeError(f"sector test and gauge test disagree on {label}")
                data += [
                    (f"inclusion.gauge.{label}", g),
                    (f"inclusion.gauge.{label}.passed", ok),
                ]
                if not ok:
                    failures.append(label)

    detail = "escaping points: " + ",".join(dict.fromkeys(failures)) if failures else ""
    return CheckResult("inclusions", not failures, detail, tuple(data))


# -- certificates ----------------------------------------------------------


class SmpClass(Record):
    __slots__ = ("representative", "count_a", "count_b")

    def __init__(self, representative: Word, count_a: int, count_b: int):
        self._init(representative, count_a, count_b)

    @property
    def members(self) -> tuple[str, ...]:
        d = self.representative.display
        return tuple(sorted({d[i:] + d[:i] for i in range(len(d))}))


_CHECK_SEQUENCE = (
    "parameters",
    "permutable",
    "normalize",
    "eigenvectors",
    "build",
    "vertex_order",
    "convexity",
    "inclusions",
    "extremal_norm",
)


class Certificate(Record):
    """Full verification record; rho_bar is present only when every check
    passed, and then equals the cube root of the top triple-product
    eigenvalue (kappa**(2/3) for the zero-corner family)."""

    __slots__ = (
        "family", "backend", "kappa", "c", "mu", "checks", "rho_bar", "smp_classes"
    )

    def __init__(
        self, family: str, backend: str, kappa: Scalar, c: Fraction | None,
        mu: Scalar, checks: tuple[CheckResult, ...], rho_bar: Scalar | None,
        smp_classes: tuple[SmpClass, ...],
    ):
        self._init(family, backend, kappa, c, mu, checks, rho_bar, smp_classes)

    @property
    def passed(self) -> bool:
        names = {c.name: c.passed for c in self.checks}
        return all(names.get(n, False) for n in _CHECK_SEQUENCE)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        if not self.passed:
            run = {c.name for c in self.checks}
            missing = [n for n in _CHECK_SEQUENCE if n not in run]
            return CheckResult(missing[0], False, "not run")
        return None

    def as_kv(self) -> list[tuple[str, str]]:
        """The report as (key, text) pairs: the one place where a value
        becomes text, a bool as true/false and anything else by str."""
        items = [
            ("family", self.family), ("backend", self.backend), ("kappa", self.kappa)
        ]
        if self.c is not None:
            items.append(("c", self.c))
        items.append(("mu", self.mu))
        for c in self.checks:
            items.append((f"check.{c.name}", "pass" if c.passed else "fail"))
            if c.detail:
                items.append((f"check.{c.name}.detail", c.detail))
            items.extend(c.data)
        items.append(("certified", self.passed))
        if self.rho_bar is not None:
            items.append(("rho_bar", self.rho_bar))
        for k, smp in enumerate(self.smp_classes, start=1):
            items.append((f"smp.{k}.class", smp.representative.display))
            items.append((f"smp.{k}.members", ";".join(smp.members)))
            items.append((f"smp.{k}.count_a", smp.count_a))
            items.append((f"smp.{k}.count_b", smp.count_b))
        return [
            (key, str(v).lower() if isinstance(v, bool) else str(v)) for key, v in items
        ]

    def as_text(self) -> str:
        lines = [
            f"certificate: family={self.family} backend={self.backend} "
            f"kappa={self.kappa} mu={self.mu}"
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{detail}")
        if self.passed:
            lines.append(f"  certified: rho_bar = {self.rho_bar}")
            for smp in self.smp_classes:
                lines.append(
                    f"  spectrum maximizing class {{{smp.representative.display}}}"
                    f" = {{{', '.join(smp.members)}}}"
                    f" with factor counts ({smp.count_a}, {smp.count_b})"
                )
        else:
            failing = self.first_failure
            lines.append(f"  NOT certified; first failing check: {failing.name}")
        return "\n".join(lines)


def certify_smp(mset: MatrixSet, mu, rel_tol: float = REL_TOL) -> Certificate:
    """Run the whole pipeline and assemble the verification record.

    Never raises on a failed condition: every failure is recorded in the
    certificate and later steps that depend on it are simply not run.
    """
    checks: list[CheckResult] = []

    def add(name, passed, detail="", data=()):
        checks.append(CheckResult(name, bool(passed), detail, tuple(data)))

    def finish(rho_bar=None, smp=()):
        return Certificate(
            family=mset.family,
            backend="exact" if mset.is_exact else "float",
            kappa=mset.kappa,
            c=mset.ctx.c if mset.ctx is not None else None,
            mu=mu_scalar,
            checks=tuple(checks),
            rho_bar=rho_bar,
            smp_classes=tuple(smp),
        )

    # parameters
    try:
        mu_scalar = _coerce_mu(mu, mset.is_exact)
        irreducible = is_irreducible(mset.a, mset.b, rel_tol)
        ok = mu_scalar > 0 and irreducible
        detail = "" if ok else ("mu <= 0" if irreducible else "reducible pair")
        add("parameters", ok, detail)
        if not ok:
            return finish()
    except TypeError as exc:
        # The header records mu as given, and a placeholder for a non-number.
        mu_scalar = Scalar.flt(mu) if isinstance(mu, float) else mu
        if not isinstance(mu_scalar, Scalar):
            mu_scalar = Scalar.flt(float("nan")) if not mset.is_exact else Scalar.exact(0)
        add("parameters", False, str(exc))
        return finish()

    # permutability of the pair (gives the second maximizing class)
    if mset.tau_s is not None:
        ok = verify_tau(mset.a, mset.b, TauMap(mset.tau_s), rel_tol)
        add("permutable", ok, "" if ok else "tau does not swap the pair")
    else:
        try:
            ok = friedland_permutable(mset.a, mset.b, rel_tol)
            add("permutable", ok, "trace/det criterion (no tau supplied)")
        except ValueError as exc:
            add("permutable", False, str(exc))
            ok = False
    if not ok:
        return finish()

    # normalization
    try:
        norm = normalize(mset, rel_tol)
        add("normalize", True, f"lam = {norm.lam}", (("lam", norm.lam),))
    except (ValueError, TypeError) as exc:
        add("normalize", False, str(exc))
        return finish()

    # fixed vectors
    try:
        v, w = eigenvectors_from_products(norm, rel_tol)
        add(
            "eigenvectors",
            True,
            data=(
                ("v", f"({v.x1},{v.x2})"),
                ("w", f"({w.x1},{w.x2})"),
            ),
        )
    except ValueError as exc:
        add("eigenvectors", False, str(exc))
        return finish()

    # polygon
    try:
        poly = build_polygon(norm, v, w, mu_scalar, rel_tol)
        add("build", True)
    except (ValueError, RuntimeError) as exc:
        add("build", False, str(exc))
        return finish()

    order = vertex_order_check(poly, rel_tol)
    checks.append(order)
    try:
        convex_ok = convexity_check(poly, rel_tol)
    except DegenerateSectorError as exc:
        add("convexity", False, str(exc))
        return finish()
    add(
        "convexity",
        convex_ok,
        "" if convex_ok else "polygon is not convex",
        ((f"convexity.h.v{i}", h) for i, h in convexity_values(poly)),
    )
    incl = verify_inclusions(poly, norm, rel_tol)
    checks.append(incl)
    if not (order.passed and convex_ok and incl.passed):
        return finish()

    # The induced norms of A~ and B~ are the largest gauges of the images
    # a_i and b_i, which verify_inclusions has evaluated on this convex
    # polygon with this tolerance: Polygon.matrix_norm would recompute the
    # same values from the same points.
    gauges = dict(incl.data)
    norms = tuple(
        max(gauges[f"inclusion.gauge.{kind}{i}"] for i in range(1, 13)) for kind in "ab"
    )
    ok = all(n.isclose(1, rel_tol) and n.le(1, rel_tol) for n in norms)
    add(
        "extremal_norm",
        ok,
        "" if ok else "an induced norm differs from 1",
        (("norm.at", norms[0]), ("norm.bt", norms[1])),
    )
    if not ok:
        return finish()

    smp = [Word.from_display(w) for w in ("AAB", "ABB")]
    return finish(rho_bar=norm.scale, smp=(SmpClass(w, *factor_counts(w)) for w in smp))
