"""The twelve-vertex invariant polygon and its certificates.

Construction: starting from the fixed vectors v (of B~A~A~) and w (of
B~B~A~), scaled by mu > 0, six base vertices are generated by alternately
applying -A~ and -B~; the other six are their mirror images through the
origin.  If the resulting balanced polygon is convex and swallowed by
both A~ and B~, its Minkowski gauge is a norm in which both matrices are
contractions by the cube root of lam, which pins the generalized spectral
radius of the original pair to lam**(1/3) and certifies BAA, whose top
eigenvalue is lam, as spectrum maximizing.  The pair has passed its
permutability check by then, so the swap image ABB of BAA is similar to
it: the certificate's second class is swap_partner(BAA), with the factor
counts reversed.

Membership in a sector or triangle spanned by two vertices x, y reduces to
sign tests on the three ratios

    s = (z, Ty)/(x, Ty),  t = (z, Tx)/(y, Tx),  h = (y - x, Tz)/(y, Tx)

with T the quarter-turn rotation; h = s + t, and z lies in the triangle
x, y, 0 exactly when s, t >= 0 and h <= 1.  On the exact backend every one
of these quantities is a rational number, so the certificate carries no
rounding at all.

The exact certificate decides every check on ints and reduces a Fraction
only for a value it stores for the report.  Before the polygon exists,
verify_tau, normalize and eigenvectors_from_products test their
identities on the pair's entries scaled to ints (matrix2.scaled_entries),
and build_polygon forms the six base vertices as int points over one
denominator, each coordinate reduced once.  A~ and B~ are scaled to ints
once per certificate, in normalize, and kept as NormalizedSet.scaled for
eigenvectors_from_products, build_polygon and verify_inclusions.  On a
float pair build_polygon runs the same code on the floats of
NormalizedSet.scaled, whose scale is 1.

The gauge, the matrix norm, the convexity levels, the inclusion checks
and the exact vertex order check all read one edge table per polygon,
built on first use: per edge (v_i, v_{i+1}) the rotated endpoints
T v_{i+1} and T v_i, the products (v_i, T v_{i+1}) and (v_{i+1}, T v_i),
the difference v_{i+1} - v_i and why the edge is degenerate, if it is
(collinear, or on floats out of float range).  On the exact
backend the vertices are scaled by the lcm D of their 24 denominators, so
the table holds ints V = D v, and a matrix M by the lcm F of its
denominators (of A~ and B~ together in the inclusions), so each image
M v_i is the int point Z = (F M) V_i over F D.  A verdict is an int sign
or an int identity: the gauge search compares the sign of (Z, Ty) with
that of the table's (x, Ty), with neither a division nor a product; a
gauge is the unreduced pair (num, den) = ((V_{i+1} - V_i, T Z),
F (V_{i+1}, T V_i)), den > 0, where D cancels, and it is <= 1 iff
num <= den; a sector test's s, t and h share the denominator
+-F (y, Tx), so s, t >= 0 and h <= 1 are signs; an order product
(v_i, T v_j) is positive iff (V_i, T V_j) > 0, and matches its closed
form by cross-multiplication with the closed form's unreduced numerator
and denominator; the identities are Z == F V_j (lam.num Z == lam.den
F V_j for the 1/lam ones).

Each of these formulas has one routine.  _cross forms (x, Ty) for the
edge rows, Polygon._tiled and vertex_order_check.  _row builds the twelve
edge rows and the six convexity chords (v_{i-1}, v_{i+1}), taking
(y, Tx) = -(x, Ty).  _sector gives the numerators of s, t and h to the
convexity levels and to the four sector tests of verify_inclusions, and
raises their DegenerateSectorError.  The images M v_i come from
matrix2.apply_entries; on a balanced table (Polygon._balanced: exact, and
D v_{i+6} == -D v_i, as on every built polygon) only those of v_1..v_6,
and M v_{i+6} is -M v_i.  One copy stays: the gauge search (_gauges)
writes out _sector, because through it certify ran about 5% slower on
float inputs and 6% on exact ones.

The values the report prints are one Fraction per distinct value.  The
sector tests' s, t and h, the order products (V_i, T V_j) / D^2 and the
convexity levels (V_{i+1} - V_{i-1}, T V_i) / (V_{i+1}, T V_{i-1}) are
each reduced once.  A gauge whose pair cross-multiplies equal to 1, to
1/lam, to the sector test's h of the same point or to the gauge of an
earlier point with the same pair reuses that Fraction; only the others
are reduced.  On a mirrored sweep (below) a_{k+6} = -a_k and
b_{k+6} = -b_k are not searched and take the Fraction of a_k and b_k.
Polygon.matrix_norm compares its twelve pairs by cross-multiplication and
reduces only the largest.  On the float backend D = F = 1 and every value
is formed with the operations of Mat2 @, sector_coords and triangle_h in
their order, so it is bit-identical to theirs: each check has one code
path for both backends.  The tolerance is read at call time and never
stored.

certify_smp evaluates each image gauge at most once.  verify_inclusions
gauges every a_i = A~ v_i and b_i = B~ v_i of a convex polygon, and the
induced norms of A~ and B~ are the largest of those values, read off the
raw Fractions or floats of the sweep: the points and the function that
Polygon.matrix_norm would use, so the values are the same, bit for bit on
floats.  An exact norm is 1 as soon as one gauge equals 1, since every
gauge has passed.  Polygon.matrix_norm serves other matrices.
`bounds --norm polygon` takes the words oracle's hull route through
Polygon._hull, which hands the oracle the six half-vertices D v_1..D v_6
and the same largest-gauge routine (_largest_gauge) that matrix_norm
calls, when _norm_defect finds the gauge a norm: positive order products
and a convex polygon.  A float polygon offers the exact polygon of its
vertices, each coordinate read as the dyadic rational it is, under that
exact rule.

The certificate is one record tree.  Each check, vertex_order_check and
verify_inclusions included, is a CheckResult whose data holds the check's
(key, value) pairs in report order, with typed values: a Scalar, a bool or
a str.  Certificate.as_kv is the only place where a value becomes text,
each Scalar unwrapped once, so `certify --kv` is a view of that tree.

The float gauge keeps the sector rule: the first sector in index order
whose s and t pass the tolerance test.  The equivalent max_i |(f_i, z)|
over six edge functionals is not used, because eight of the 24 images lie
on a vertex ray, where two functionals tie exactly but may differ by one
ulp in floats, which would change printed float values.  The exact search
is swept instead: when the sectors tile the plane once (Polygon._tiled),
the search for the gauge of an image starts at the sector of the image
before and wraps round through all twelve.  The images of consecutive
vertices go round in vertex order, so the 24 searches take about two
turns in all, not 24 scans from sector 1.  Any sector that holds an
exact point gives it the same h, so the values are those of the index
order.  On such a table that is also balanced the gauge is even, h(-z) =
h(z), so the sweep is mirrored: it searches a1..a6, b1..b6 only, and
a_{i+6}, b_{i+6} take the gauge and verdict of a_i, b_i.  The float sweep
always searches all 24, since a mirrored one changed the last digits of
most float reports.  On a table whose sectors do not tile the plane
once, each search runs in index order, and so raises
DegenerateSectorError exactly where polygon_gauge, which always searches
in index order, raises it.

Thresholds are closed forms (at phi = 2pi/3 alt is main in other
coordinates) and kappa_max is decided exactly; empirical_mu_thresholds reads
them off the construction of any pair and is their reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key, partial

from .families import (
    MatrixSet,
    NormalizedSet,
    eigenvectors_from_products,
    normalize,
)
from .matrix2 import (
    Mat2,
    Vec2,
    apply_entries,
    common_scale,
    dot,
    mul_entries,
    rot90,
    scaled_entries,
)
from .permutability import TauMap, friedland_permutable, is_irreducible, swap_partner, verify_tau
from .scalar import (
    REL_TOL,
    FloatKappa,
    KappaContext,
    Record,
    Scalar,
    allclose,
    isclose,
    le,
    same_backend,
)
from .words import Word, cyclic_normal_form, factor_counts

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
    """The two sector generators lie on one line or, on floats, their
    cross product is out of float range."""


def _as_kappa(kappa) -> KappaContext | FloatKappa:
    if isinstance(kappa, (KappaContext, FloatKappa)):
        return kappa
    if isinstance(kappa, Scalar) and kappa.is_exact:
        raise TypeError(
            "exact thresholds need a KappaContext (kappa = c**3); "
            "pass the context instead of a bare rational"
        )
    return FloatKappa(float(kappa))


_COLLINEAR = "sector generators are collinear"


def _degenerate(x1, x2, y1, y2, denom, exact: bool) -> str | None:
    """Why the sector of x, y, given denom = +-(x, Ty), is degenerate, or
    None.  It is collinear when denom is exactly zero on ints; on floats,
    when denom is negligible next to |x| |y|, unless denom or |x| |y| is
    past the float range, which is named as such."""
    if exact:
        return None if denom else _COLLINEAR
    size = math.hypot(x1, x2) * math.hypot(y1, y2)
    if not (abs(denom) < math.inf and size < math.inf):
        return "sector generators are out of float range"
    return _COLLINEAR if abs(denom) <= 1e-14 * max(1.0, size) else None


def _check_denominator(x: Vec2, y: Vec2, denom: Scalar) -> None:
    x1, x2, y1, y2 = x.x1.value, x.x2.value, y.x1.value, y.x2.value
    degenerate = _degenerate(x1, x2, y1, y2, denom.value, denom.is_exact)
    if degenerate:
        raise DegenerateSectorError(degenerate)


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
_ONE = Fraction(1)


class _EdgeTable(Record):
    """A polygon's vertices and edges as plain numbers (module docstring).

    `scale` is D (1 on the float backend) and `vertices` holds D * v_i.
    Each edge row (x, y) = (v_i, v_{i+1}) is
    (Ty_1, Ty_2, Tx_1, Tx_2, (x, Ty), (y, Tx), d_1, d_2, degenerate)
    with d = y - x.  (y, Tx) == -(x, Ty) holds for floats too, bit for
    bit: both sums round the same two products, with opposite signs.
    """

    __slots__ = ("scale", "vertices", "edges")

    def __init__(self, scale: int, vertices: tuple, edges: tuple):
        self._init(scale, vertices, edges)


def _cross(x: tuple, y: tuple):
    """(x, Ty) of two pairs, formed as x_1 (-y_2) + x_2 y_1."""
    return x[0] * -y[1] + x[1] * y[0]


def _row(x: tuple, y: tuple, exact: bool) -> tuple:
    """The _EdgeTable row of the chord from x to y."""
    (x1, x2), (y1, y2) = x, y
    x_ty = _cross(x, y)
    degenerate = _degenerate(x1, x2, y1, y2, x_ty, exact)
    return (-y2, y1, -x2, x1, x_ty, -x_ty, y1 - x1, y2 - x2, degenerate)


def _sector(row: tuple, z: tuple) -> tuple:
    """The numerators (z, Ty), (z, Tx) and (y - x, Tz) of s, t and h of
    the point z in the sector of a row (x, y), whose denominators are
    (x, Ty), (y, Tx) and (y, Tx); the operations of sector_coords and
    triangle_h in their order.  A degenerate row raises
    DegenerateSectorError."""
    ty1, ty2, tx1, tx2, _, _, d1, d2, degenerate = row
    if degenerate:
        raise DegenerateSectorError(degenerate)
    z1, z2 = z
    return z1 * ty1 + z2 * ty2, z1 * tx1 + z2 * tx2, _cross((d1, d2), z)


def _build_edge_table(vertices: tuple[Vec2, ...]) -> _EdgeTable:
    exact = vertices[0].is_exact
    coords, d = [(v.x1.value, v.x2.value) for v in vertices], 1
    if exact:
        d, flat = common_scale([q for pair in coords for q in pair])
        coords = list(zip(flat[0::2], flat[1::2]))
    edges = tuple(_row(x, y, exact) for x, y in zip(coords, coords[1:] + coords[:1]))
    return _EdgeTable(d, tuple(coords), edges)


def _ratio(num, den, exact: bool) -> Scalar:
    """num / den as one Scalar: one Fraction (one gcd) of two ints, or one
    float division."""
    return Scalar(Fraction(num, den) if exact else num / den)


def _image_points(table: _EdgeTable, entries, balanced: bool) -> list[tuple]:
    """(F M)(D v_i) for the twelve table vertices, through apply_entries
    as Mat2 @: the image M v_i times E = F D.  On a balanced table
    (Polygon._balanced) the images of v_7..v_12 are those of v_1..v_6,
    negated."""
    if not balanced:
        return [apply_entries(entries, x) for x in table.vertices]
    half = [apply_entries(entries, x) for x in table.vertices[:6]]
    return half + [(-z1, -z2) for z1, z2 in half]


def _convexity_levels(table: _EdgeTable, exact: bool) -> tuple:
    """h(v_{i-1}, v_{i+1}, v_i) for i = 1..6 on the table's vertices:
    h = (Y - X, T Z) / (Y, T X) of the chord's _row, where the factors D
    cancel."""
    verts = table.vertices
    levels = []
    for i in range(1, 7):
        row = _row(verts[i - 2], verts[i], exact)
        levels.append((i, _ratio(_sector(row, verts[i - 1])[2], row[5], exact)))
    return tuple(levels)


def _same_sign(num: int, den: int) -> bool:
    """num / den >= 0, for ints and den != 0: num is zero or has den's sign."""
    return not num or (num > 0) is (den > 0)


def _reduced(num: int, den: int, known) -> Fraction:
    """num / den, den > 0, as a Fraction: the first of the Fractions
    `known` (None entries skipped) that equals it by cross-multiplication,
    else a new one, reduced once."""
    for q in known:
        if q is not None and num * q.denominator == q.numerator * den:
            return q
    return Fraction(num, den)


def _gauges(poly: "Polygon", points, f, tol: float):
    """Gauges of the image points (z1, z2) / (F D) of the polygon's edge
    table, lazily, in order (F = D = 1 on floats).

    With Z = (z1, z2): s = (Z, Ty) / (F (x, Ty)), t = (Z, Tx) / (F (y, Tx))
    and h = (d, T Z) / (F (y, Tx)), where D cancels.  On ints each gauge
    is an unreduced (num, den) with den > 0.  A non-collinear edge has
    (x, Ty) != 0, so s >= 0 exactly when (Z, Ty) is zero or has the sign
    of (x, Ty), and likewise for t: the signs are compared, the products
    never formed.  On floats each gauge is a float, s, t and h round
    exactly as in sector_coords and triangle_h, and s, t >= -tol is
    scalar.ge(s, 0, tol), inlined.

    The float search runs in index order and returns the first sector
    that passes.  The exact one does too, unless the sectors tile the
    plane once (Polygon._tiled): then the search for a point starts at
    the sector of the point before and wraps round, and any sector that
    holds the point gives the same h.
    """
    exact, edges, start = poly.is_exact, poly._edge_table.edges, 0
    for z1, z2 in points:
        if z1 == 0 and z2 == 0:
            yield (0, 1) if exact else 0.0
            continue
        # _sector, written out: through it certify ran about 5% slower on
        # float inputs and 6% on exact ones.
        for k in range(start, start + 12):
            ty1, ty2, tx1, tx2, x_ty, y_tx, d1, d2, degenerate = edges[k % 12]
            if degenerate:
                raise DegenerateSectorError(degenerate)
            s = z1 * ty1 + z2 * ty2
            if not exact:  # ge(x, 0, tol), inlined: this runs per sector
                if s / x_ty >= -tol and (z1 * tx1 + z2 * tx2) / y_tx >= -tol:
                    break
            elif _same_sign(s, x_ty) and _same_sign(z1 * tx1 + z2 * tx2, y_tx):
                break
        else:
            raise ValueError(_NO_SECTOR)
        start = k % 12 if exact and poly._tiled else 0
        num, den = d1 * -z2 + d2 * z1, f * y_tx
        yield ((num, den) if den > 0 else (-num, -den)) if exact else num / den


# Exact gauges are (num, den) pairs, ordered by cross-multiplication.
_BY_VALUE = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def _largest_gauge(poly: "Polygon", points, f, tol: float = REL_TOL):
    """The largest of the _gauges of the points (z1, z2) / (F D)."""
    return max(_gauges(poly, points, f, tol), key=_BY_VALUE if poly.is_exact else None)


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

    @cached_property
    def _balanced(self) -> bool:
        """Whether the polygon is exact and its edge table balanced on its
        ints, D v_{i+6} == -D v_i for i = 1..6, as on every polygon that
        build_polygon makes."""
        verts = self._edge_table.vertices
        return self.is_exact and all(
            y == (-x1, -x2) for (x1, x2), y in zip(verts, verts[6:])
        )

    @cached_property
    def _tiled(self) -> bool:
        """Whether the exact sectors (v_i, v_{i+1}) tile the plane once:
        each (v_i, T v_{i+1}) > 0, so every step turns clockwise by less
        than a half turn, and (v_1, T v_j), j = 2..12, turns nonpositive
        once and for good, so the steps add up to one turn."""
        table = self._edge_table
        x, *rest = table.vertices
        signs = [_cross(x, y) > 0 for y in rest]
        return all(e[4] > 0 for e in table.edges) and signs == sorted(signs, reverse=True)

    def gauge(self, x: Vec2, rel_tol: float = REL_TOL) -> Scalar:
        return polygon_gauge(self, x, rel_tol)

    def matrix_norm(self, m: Mat2, rel_tol: float = REL_TOL) -> Scalar:
        """Operator norm induced by the polygon gauge: the maximum of the
        gauge over the images of the vertices.

        The images are the edge table's (module docstring), not Mat2 @.
        On the exact backend the twelve unreduced gauges are compared by
        cross-multiplication, and only the largest is reduced.
        """
        same_backend(self, m)
        f, (entries,) = scaled_entries((m,))
        points = _image_points(self._edge_table, entries, self._balanced)
        largest = _largest_gauge(self, points, f, rel_tol)
        return Scalar(Fraction(*largest) if self.is_exact else largest)

    def _hull(self):
        """The hook of the words oracle's hull route (words._walk): the six
        half-vertices D v_1..D v_6 of the edge table and the score of a
        hull level, its largest gauge over f; None when the gauge is not a
        norm.  A float polygon offers the exact polygon of its vertices
        read as dyadic rationals, under the exact rule."""
        poly = self if self.is_exact else Polygon(
            tuple(Vec2.exact(v.x1.value, v.x2.value) for v in self.vertices),
            self.mu, self.kappa, self.ctx, self.family,
        )
        if _norm_defect(poly) is None:
            return poly._edge_table.vertices[:6], partial(_largest_gauge, poly)


def _coerce_mu(mu, owner) -> Scalar:
    """mu as a Scalar of owner's backend; a Scalar of the other backend
    raises BackendMismatchError through same_backend."""
    exact = owner.is_exact
    if isinstance(mu, Scalar):
        same_backend(owner, mu)
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

    The construction runs on the tuples of NormalizedSet.scaled through
    mul_entries and apply_entries.  On the exact backend A~ and B~ are
    scaled by the lcm G of their denominators, and mu, v and w by the lcm
    H of theirs; the checks are int equalities, and the six base vertices
    are int points over the one denominator G^2 H^2, each coordinate
    reduced once to a Fraction.  On floats G = H = 1, the checks are
    Vec2.isclose within rel_tol, and the vertices are the floats of Mat2 @.
    """
    exact = same_backend(norm.at, v, w)
    mu = _coerce_mu(mu, norm.at)
    if not mu > 0:
        raise ValueError(f"need mu > 0, got {mu}")
    base = _base_vertices(norm.scaled, v, w, mu, exact, rel_tol)
    verts = base + tuple(-x for x in base)
    src = norm.source
    return Polygon(
        vertices=verts, mu=mu, kappa=src.kappa, ctx=src.ctx, family=src.family
    )


def _polygon_for(mset: MatrixSet, mu) -> tuple[NormalizedSet, Polygon]:
    """The normalized set of mset and its polygon at mu, with the default
    tolerance and no certificate checks."""
    norm = normalize(mset)
    v, w = eigenvectors_from_products(norm)
    return norm, build_polygon(norm, v, w, mu)


def _times(k: int, x: tuple) -> tuple:
    return (k * x[0], k * x[1])


def _base_vertices(
    scaled: tuple, v: Vec2, w: Vec2, mu: Scalar, exact: bool, rel_tol: float
) -> tuple:
    """v1..v6 of build_polygon, with its checks.

    A~, B~ = (a, b) / G (NormalizedSet.scaled) and mu, v, w = (m, V, W) / H,
    so a base vertex with k factors A~ or B~ is a point over G^k H^2.  The
    products associate as Mat2 @ does (B~B~A~ is (B~ @ B~) @ A~), so floats
    round as they would there.
    """
    g, (a, b) = scaled
    values = (mu.value, v.x1.value, v.x2.value, w.x1.value, w.x2.value)
    h, (m, *vw) = common_scale(values) if exact else (1, values)
    vv, ww = tuple(vw[:2]), tuple(vw[2:])
    g3 = g**3
    bba = mul_entries(mul_entries(b, b), a)
    for vec, m3, name in ((vv, mul_entries(mul_entries(b, a), a), "v"), (ww, bba, "w")):
        if not allclose(apply_entries(m3, vec), _times(g3, vec), rel_tol):
            raise ValueError(f"{name} is not fixed by its triple product")
    v1 = _times(m, vv)
    v2 = _times(h, ww)
    v3 = _times(-1, apply_entries(a, v1))
    v4 = _times(-1, apply_entries(a, v2))
    v5 = _times(-1, apply_entries(a, v3))
    v6 = _times(-1, apply_entries(b, v4))
    # Cross-check the unrolled forms of the same vertices.
    av = apply_entries(a, vv)
    direct = (
        (v3, _times(-m, av), "v3"),
        (v5, _times(m, apply_entries(a, av)), "v5"),
        (v6, _times(h, apply_entries(b, apply_entries(a, ww))), "v6"),
    )
    for built, unrolled, name in direct:
        if not allclose(built, unrolled, rel_tol):
            raise RuntimeError(f"vertex cross-check failed for {name}")
    gg = g * g
    den = gg * h * h
    return tuple(
        Vec2(_ratio(x1, den, exact), _ratio(x2, den, exact))
        for x1, x2 in (
            _times(gg, v1), _times(gg, v2), _times(g, v3), _times(g, v4), v5, v6
        )
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
_ORDER_KEYS = tuple(f"order.v{i}_Tv{j}" for i, j in _ORDER_PAIRS)


def _order_products_closed(pw, mu) -> dict:
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


class _Ratio:
    """An unreduced rational num / den of two ints, den != 0: just the
    operations of _order_products_closed, with no gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __add__(self, other):
        if isinstance(other, int):
            return _Ratio(self.num + other * self.den, self.den)
        return _Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Ratio(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _Ratio(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: int):
        return _Ratio(other * self.den, self.num)


# The powers kappa**(k/3) that _order_products_closed reads, in the order
# of their first use there: a float power that overflows is then the one
# FloatKappa.power would have raised for first.
_CLOSED_POWERS = (6, 12, 3, 1, 7)


def _closed_products(kappa: KappaContext | FloatKappa, mu) -> dict:
    """_order_products_closed on raw numbers, each power of kappa formed
    once: unreduced _Ratio values of c = kappa**(1/3) and the Fraction mu,
    or floats of FloatKappa.power and the float mu, which round as the
    Scalar operations do."""
    if isinstance(kappa, KappaContext):
        p, q = kappa.c.numerator, kappa.c.denominator
        powers = {k: _Ratio(p**k, q**k) for k in _CLOSED_POWERS}
        mu = _Ratio(mu.numerator, mu.denominator)
    else:
        powers = {k: kappa.power(k).value for k in _CLOSED_POWERS}
    return _order_products_closed(powers.__getitem__, mu)


def _order_products(verts: tuple) -> list:
    """(V_i, T V_j) of the edge table's vertices for each of _ORDER_PAIRS."""
    return [_cross(verts[i - 1], verts[j - 1]) for i, j in _ORDER_PAIRS]


def _order_failure(ints: list, exact: bool) -> str:
    """The detail of a failed order check: its first product that is out
    of float range or not positive."""
    for (i, j), p in zip(_ORDER_PAIRS, ints):
        if not (exact or math.isfinite(p)):
            return f"v{i},Tv{j} is out of float range"
        if not p > 0:
            return f"v{i},Tv{j} <= 0"


def vertex_order_check(poly: Polygon, rel_tol: float = REL_TOL) -> CheckResult:
    """All fifteen products (v_i, T v_j), i < j <= 6, must be positive:
    the rays are then pairwise distinct and the clockwise traversal meets
    the vertices in index order, for any kappa > 1 and mu > 0.  On the
    zero-corner family each product must also match its closed form.  A
    failed check names the first product that is not positive, as
    "v1,Tv6 <= 0", or that overflowed, as "v1,Tv3 is out of float range"
    (inf, or the nan of inf - inf, has no sign to read), or else says
    "closed forms differ".

    Each product is P = (V_i, T V_j) of the edge table's vertices V = D v,
    positive iff P > 0, and on the exact backend an int, reduced once, as
    P / D^2, for the report; on floats (D = 1) it rounds as Vec2 dot does.
    The closed forms are evaluated on raw numbers (_closed_products), each
    power of kappa formed once: on the exact backend unreduced _Ratio
    values, matched by cross-multiplication; on floats the floats the
    Scalar operations would give, bit for bit, matched through isclose.  A
    power that overflows raises FloatKappa.power's ValueError.
    """
    table = poly._edge_table
    exact = poly.is_exact
    dd = table.scale * table.scale
    ints = _order_products(table.vertices)
    positive = all(p > 0 for p in ints)
    passed = positive and (exact or all(map(math.isfinite, ints)))
    detail = "" if passed else _order_failure(ints, exact)
    data = [(key, _ratio(p, dd, exact)) for key, p in zip(_ORDER_KEYS, ints)]
    data.append(("order.all_positive", positive))
    if poly.family == "main":
        kappa = _as_kappa(poly.ctx if poly.ctx is not None else poly.kappa)
        closed = _closed_products(kappa, poly.mu.value)
        if exact:
            match = all(
                p * closed[pair].den == closed[pair].num * dd
                for pair, p in zip(_ORDER_PAIRS, ints)
            )
        else:
            match = all(
                isclose(p, closed[pair], rel_tol) for pair, p in zip(_ORDER_PAIRS, ints)
            )
        data.append(("order.closed_form_match", match))
        if passed and not match:
            detail = "closed forms differ"
        passed = passed and match
    return CheckResult("vertex_order", passed, detail, tuple(data))


def convexity_values(poly: Polygon) -> list[tuple[int, Scalar]]:
    """h(v_{i-1}, v_{i+1}, v_i) for i = 1..6; the polygon is convex iff
    every level is >= 1 (the mirrored half repeats by symmetry).  The
    levels are computed once per polygon."""
    return list(poly._convexity_levels)


_CONVEXITY_KEYS = tuple(f"convexity.h.v{i}" for i in range(1, 7))


def convexity_check(poly: Polygon, rel_tol: float = REL_TOL) -> bool:
    return all(h.ge(1, rel_tol) for _, h in poly._convexity_levels)


def _norm_defect(poly: Polygon) -> str | None:
    """Why the polygon's gauge is not a norm, or None if it is: every order
    product (v_i, T v_j), i < j <= 6, must be positive and the polygon
    convex.  The closed forms of vertex_order_check are audit data, not
    part of this rule."""
    if not all(p > 0 for p in _order_products(poly._edge_table.vertices)):
        return "its vertices are out of order"
    try:
        return None if convexity_check(poly) else "it is not convex"
    except DegenerateSectorError as exc:
        return f"it is degenerate ({exc})"


def polygon_gauge(poly: Polygon, x: Vec2, rel_tol: float = REL_TOL) -> Scalar:
    """Minkowski gauge of the polygon: 0 at the origin, 1 on the boundary.

    Locates the first sector (v_i, v_{i+1}) in index order that contains
    x and returns the level h there.  The search reads the polygon's edge
    table (module docstring): exact points are scaled to ints and decided
    without a division, float points are computed as sector_coords and
    triangle_h compute them, with the tolerance applied here.  Requires a
    convex polygon with verified vertex order to be a norm.
    """
    if same_backend(poly, x):  # x = Z / e = (D Z) / (e D): the numerator gains D
        e, z = common_scale((x.x1.value, x.x2.value))
        [(num, den)] = _gauges(poly, [z], e, rel_tol)
        return Scalar(Fraction(num * poly._edge_table.scale, den))
    [value] = _gauges(poly, [(x.x1.value, x.x2.value)], 1, rel_tol)
    return Scalar(value)


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

# Report keys of the inclusions, formed once per process: per identity
# its key; per nonobvious point its sector text and the keys of its
# sector, s, t, h and verdict lines; per image label its gauge keys.
_IDENTITY_KEYS = tuple(
    f"inclusion.identity.{label.split(' ')[0]}" for label, *_ in _AUTOMATIC_IDENTITIES
)
_SECTOR_KEYS = tuple(
    (f"v{i},v{j}", *(f"inclusion.{label}.{x}" for x in ("sector", "s", "t", "h", "passed")))
    for label, _, _, (i, j) in _NONOBVIOUS
)
_GAUGE_KEYS = {
    kind: tuple(
        (f"{kind}{i}", f"inclusion.gauge.{kind}{i}", f"inclusion.gauge.{kind}{i}.passed")
        for i in range(1, 13)
    )
    for kind in "ab"
}


def _on_vertex(z, v, f: int, p, q, rel_tol: float) -> bool:
    """Whether the image z, over E = F D, is the table vertex v, over D,
    divided by p/q: p Z == q F V through allclose.  p/q is 1, or lam, which
    is lam.num/lam.den on ints and 1/(1/lam) on floats."""
    return allclose(_times(p, z), _times(q * f, v), rel_tol)


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

    On a balanced edge table (every built exact polygon) the images of
    v_7..v_12 are those of v_1..v_6, negated.  If its sectors also tile
    the plane once (Polygon._tiled), the gauge of -z is that of z, so the
    gauge sweep searches only a1..a6, b1..b6, and a_{i+6}, b_{i+6} take
    the reduced gauge and the verdict of a_i, b_i; the cross-check still
    runs for all 24 labels.  The float sweep searches all 24 images.
    """
    return _inclusions(poly, norm, rel_tol)[0]


def _inclusions(
    poly: Polygon, norm: NormalizedSet, rel_tol: float, convex: bool | None = None
):
    """verify_inclusions, and the raw gauges it swept, (a gauges, b gauges)
    in label order (Fractions or floats; a1..a6, b1..b6 when mirrored), or
    None when the polygon is not convex.  convex is convexity_check(poly,
    rel_tol) when the caller has it, else None, and it is computed here."""
    exact, table = same_backend(poly, norm.at), poly._edge_table
    f, (at, bt) = norm.scaled
    balanced = poly._balanced
    lists = {"a": _image_points(table, at, balanced), "b": _image_points(table, bt, balanced)}
    data, failures = [], []

    lam = norm.lam.value
    lam_pq = (lam.numerator, lam.denominator) if exact else (1, 1 / lam)
    for key, (label, kind, idx, target, scaled) in zip(_IDENTITY_KEYS, _AUTOMATIC_IDENTITIES):
        point = lists[kind][idx - 1]
        p, q = lam_pq if scaled else (1, 1)
        ok = _on_vertex(point, table.vertices[target - 1], f, p, q, rel_tol)
        data.append((key, ok))
        if not ok:
            failures.append(label)

    sector_ok, sector_h = {}, {}
    for keys, (label, kind, idx, (i, j)) in zip(_SECTOR_KEYS, _NONOBVIOUS):
        row = table.edges[i - 1]
        sn, tn, hn = _sector(row, lists[kind][idx - 1])
        fy = f * row[5]
        s, t, h = _ratio(sn, f * row[4], exact), _ratio(tn, fy, exact), _ratio(hn, fy, exact)
        # Exact s, t and 1 - h are -sn, tn and fy - hn over fy: signs decide.
        ok = all(_same_sign(n, fy) for n in (-sn, tn, fy - hn)) if exact else (
            s.ge(0, rel_tol) and t.ge(0, rel_tol) and h.le(1, rel_tol))
        sector, *names = keys
        data += zip(names, (sector, s, t, h, ok))
        sector_ok[label], sector_h[label] = ok, h.value
        if not ok:
            failures.append(label)

    swept = None
    if convexity_check(poly, rel_tol) if convex is None else convex:
        inv_lam, seen = (1 / lam if exact else None), {}
        mirrored = balanced and poly._tiled
        # One sweep over a1..a12, b1..b12 (b1 lies next to a12, b7 next to
        # a6), or over a1..a6, b1..b6 when the rest are their mirrors.
        points = [z for kind in "ab" for z in lists[kind][:6 if mirrored else 12]]
        gauges, swept = _gauges(poly, points, f, rel_tol), ([], [])
        for kind, values in zip("ab", swept):
            verdicts = []
            for idx, (label, key, passed_key) in enumerate(_GAUGE_KEYS[kind], start=1):
                if mirrored and idx > 6:
                    g, ok = values[idx - 7], verdicts[idx - 7]
                else:
                    g = next(gauges)
                    ok = g[0] <= g[1] if exact else le(g, 1, rel_tol)
                    if exact:  # g = (num, den); the mirror -z of a point z gives its pair
                        known = (seen.get(g), _ONE, inv_lam, sector_h.get(label))
                        seen[g] = g = _reduced(*g, known)
                    values.append(g)
                    verdicts.append(ok)
                if sector_ok.get(label, ok) != ok:
                    raise RuntimeError(f"sector test and gauge test disagree on {label}")
                data += [(key, Scalar(g)), (passed_key, ok)]
                if not ok:
                    failures.append(label)

    detail = "escaping points: " + ",".join(dict.fromkeys(failures)) if failures else ""
    return CheckResult("inclusions", not failures, detail, tuple(data)), swept


# -- certificates ----------------------------------------------------------


class SmpClass(Record):
    """A spectrum maximizing cyclic class: its normal form and factor
    counts.  The members, the rotations of the representative's display
    form, are computed on first use and kept, outside the fields, for the
    life of the record."""

    __slots__ = ("representative", "count_a", "count_b", "__dict__")

    def __init__(self, representative: Word, count_a: int, count_b: int):
        self._init(representative, count_a, count_b)

    @cached_property
    def members(self) -> tuple[str, ...]:
        d = self.representative.display
        return tuple(sorted({d[i:] + d[:i] for i in range(len(d))}))


# The one candidate cycle: the product whose top eigenvalue normalize
# reads.  Its swap partner is the certificate's second class.
_CANDIDATE = Word.from_display("BAA")


@cache
def _smp_classes(candidate: Word) -> tuple[SmpClass, SmpClass]:
    """The classes of a certified candidate cycle: its own and that of its
    swap_partner.  They depend on the cycle alone, so they are built on
    the first certified run of a process and shared by every later one."""
    words = (cyclic_normal_form(candidate), swap_partner(candidate))
    return tuple(SmpClass(w, *factor_counts(w)) for w in words)


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


def _text(v) -> str:
    """A report value as Certificate.as_kv prints it."""
    if v.__class__ is Scalar:
        return str(v.value) if v.is_exact else repr(v.value)
    return ("true" if v else "false") if v.__class__ is bool else str(v)


class Certificate(Record):
    """Full verification record; rho_bar is present only when every check
    passed, and then equals the cube root of the top triple-product
    eigenvalue (kappa**(2/3) for the zero-corner family).  The verdict,
    passed, is computed on first read and kept outside the fields."""

    __slots__ = (
        "family", "backend", "kappa", "c", "mu", "checks", "rho_bar", "smp_classes",
        "__dict__",
    )

    def __init__(
        self, family: str, backend: str, kappa: Scalar, c: Fraction | None,
        mu: Scalar, checks: tuple[CheckResult, ...], rho_bar: Scalar | None,
        smp_classes: tuple[SmpClass, ...],
    ):
        self._init(family, backend, kappa, c, mu, checks, rho_bar, smp_classes)

    @cached_property
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
        becomes text.  A bool prints as true/false; a Scalar is unwrapped
        once and prints as Scalar.__str__ does, a float by repr and a
        Fraction by str; anything else prints by str."""
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
        return [(key, _text(v)) for key, v in items]

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
    A certified pair gets two spectrum maximizing classes: that of the
    candidate BAA and its swap_partner, isospectral to it because the
    permutable check passed; a failed certificate gets none.  The two
    classes depend on the candidate alone: _smp_classes builds them on
    the first certified run of the process, after every check has passed,
    and later certificates share them.  The report keys are module tables,
    formed once per process.
    The inclusions reuse the convexity verdict just computed.  The
    extremal norm check takes the induced norms of A~ and B~ as the
    largest raw gauges of the inclusion sweep (a mirrored exact sweep
    holds a1..a6 and b1..b6, whose mirrors have the same gauges), with no
    second gauge evaluation and no Scalar comparison.
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
        mu_scalar = _coerce_mu(mu, mset)
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
        zip(_CONVEXITY_KEYS, (h for _, h in poly._convexity_levels)),
    )
    incl, swept = _inclusions(poly, norm, rel_tol, convex_ok)
    checks.append(incl)
    if not (order.passed and convex_ok and incl.passed):
        return finish()

    # The induced norms of A~ and B~ are the largest gauges of the images
    # a_i and b_i, which _inclusions has swept on this convex polygon with
    # this tolerance (a mirrored sweep leaves out only the equal gauges of
    # the mirrors): Polygon.matrix_norm would recompute the same values
    # from the same points.  Every exact gauge has passed, so is <= 1, and
    # an exact norm is 1 as soon as one gauge equals 1.
    exact = mset.is_exact
    norms = [_ONE if exact and 1 in values else max(values) for values in swept]
    ok = all(isclose(n, 1, rel_tol) and le(n, 1, rel_tol) for n in norms)
    add(
        "extremal_norm",
        ok,
        "" if ok else "an induced norm differs from 1",
        (("norm.at", Scalar(norms[0])), ("norm.bt", Scalar(norms[1]))),
    )
    if not ok:
        return finish()

    return finish(rho_bar=norm.scale, smp=_smp_classes(_CANDIDATE))
