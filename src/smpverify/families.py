"""Constructors for the two parametric matrix pairs under study.

Both families are rotation-with-stretching pairs sharing trace
t = 2*cos(phi) and determinant 1, swapped by one similarity.  The `main`
family is that class in one normal form, the zero-corner pair that
`swap_pair(t, kappa)` builds with its swap matrix; `example_main` and
`example_main_special` are that call at an angle and at phi = 2*pi/3.
Exact t and kappa keep every derived quantity rational once kappa is a
rational cube; at the distinguished angle phi = 2*pi/3 the pair
satisfies A**3 = B**3 = I, which is what the whole polygon construction
rests on.

The `alt` family keeps the textbook rotation shape.  Its entries involve
sines and cosines, so that path runs on the float backend.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .matrix2 import (
    EigenvectorError,
    Mat2,
    Vec2,
    eigenvector_unit_first,
    mul_entries,
    quarter_turn,
    scaled_entries,
    spectral_radius,
)
from .scalar import REL_TOL, KappaContext, Record, Scalar, allclose, same_backend

__all__ = [
    "MatrixSet",
    "NormalizedSet",
    "DISTINGUISHED_PHI",
    "at_distinguished_angle",
    "example_alt",
    "example_main",
    "example_main_special",
    "swap_pair",
    "custom_set",
    "normalize",
    "eigenvectors_vw",
    "eigenvectors_from_products",
]

DISTINGUISHED_PHI = 2 * math.pi / 3


class MatrixSet(Record):
    """A labeled pair {A, B} plus the similarity matrix that swaps it."""

    __slots__ = ("a", "b", "tau_s", "family", "kappa", "ctx")

    def __init__(
        self,
        a: Mat2,
        b: Mat2,
        tau_s: Mat2 | None,
        family: str,  # "main" | "alt" | "custom"
        kappa: Scalar,
        ctx: KappaContext | None = None,
    ):
        self._init(a, b, tau_s, family, kappa, ctx)

    @property
    def is_exact(self) -> bool:
        return self.a.is_exact


class NormalizedSet(Record):
    """The pair divided by the cube root of its top triple-product
    eigenvalue, so that the six mixed triple products have spectral
    radius exactly 1.

    `scaled` is scaled_entries((at, bt)), formed on first use (in
    normalize on the exact backend) and kept, outside the fields, for the
    life of the set: eigenvectors_from_products, build_polygon and
    verify_inclusions read it.
    """

    __slots__ = ("at", "bt", "lam", "scale", "source", "__dict__")

    def __init__(self, at: Mat2, bt: Mat2, lam: Scalar, scale: Scalar, source: MatrixSet):
        self._init(at, bt, lam, scale, source)  # scale is lam**(1/3)

    @cached_property
    def scaled(self) -> tuple[int, list[tuple]]:
        """(F, [F A~, F B~]): the rows of A~ and B~ over the lcm F of all
        their denominators, as ints (F = 1 and the floats on floats)."""
        return scaled_entries((self.at, self.bt))


def at_distinguished_angle(phi: float) -> bool:
    """True iff phi is 2*pi/3 up to the rounding of a parsed angle."""
    return math.isclose(phi, DISTINGUISHED_PHI, rel_tol=0, abs_tol=1e-13)


def _snap_angle(phi: float) -> tuple[float, float]:
    """cos/sin with the distinguished angle snapped to exact halves."""
    if at_distinguished_angle(phi):
        return -0.5, math.sqrt(3.0) / 2.0
    return math.cos(phi), math.sin(phi)


def _check_finite(kappa: float, a: Mat2, b: Mat2, tau_s: Mat2) -> None:
    """Reject a kappa at which the pair or its two products leave binary64.

    A non-finite entry would otherwise surface as a failed check of the
    certificate (e.g. tau not swapping the pair) rather than as bad input.
    """
    checked = (("A", a), ("B", b), ("tau_s", tau_s), ("A @ B", a @ b), ("B @ A", b @ a))
    for name, m in checked:
        if not all(math.isfinite(e.value) for e in m.entries()):
            raise ValueError(
                f"kappa = {kappa!r} is out of float range: "
                f"{name} has a non-finite entry"
            )


def example_alt(kappa: float, phi: float) -> MatrixSet:
    """Rotation-with-stretching pair; float backend."""
    kappa = float(kappa)
    if not kappa > 1:
        raise ValueError(f"need kappa > 1, got {kappa}")
    c, s = _snap_angle(phi)
    a = Mat2.flt(c, -s / kappa, kappa * s, c)
    b = Mat2.flt(c, -kappa * s, s / kappa, c)
    tau_s = quarter_turn(exact=False)
    _check_finite(kappa, a, b, tau_s)
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="alt", kappa=Scalar.flt(kappa))


def swap_pair(t, kappa, ctx: KappaContext | None = None) -> MatrixSet:
    """The zero-corner pair of trace t with the matrix that swaps it.

    A = [[0, -1/kappa], [kappa, t]] and B = [[0, -kappa], [1/kappa, t]]
    both have det 1, so t = 2*cos(phi) fixes the rotation angle, and
    S = [[d, 1], [-1, -d]] with d = t*kappa/(kappa**2 + 1) satisfies
    S A S**-1 = B and S B S**-1 = A.  Exact when t and kappa are exact
    Scalars, with ctx (kappa = c**3) for normalize; binary64 otherwise.
    """
    # The arithmetic runs on the raw Fractions or floats, wrapped once.
    if all(isinstance(x, Scalar) and x.is_exact for x in (t, kappa)):
        t, k, num = t.value, kappa.value, Fraction
    else:
        t, k, num = float(t), float(kappa), float
    if not k > 1:
        raise ValueError(f"need kappa > 1, got {k}")
    inv, d = 1 / k, t * k / (k * k + 1)
    zero, one, kappa, t = Scalar(num(0)), Scalar(num(1)), Scalar(k), Scalar(t)
    a = Mat2(zero, Scalar(-inv), kappa, t)
    b = Mat2(zero, -kappa, Scalar(inv), t)
    tau_s = Mat2(Scalar(d), one, -one, Scalar(-d))
    if num is float:
        _check_finite(k, a, b, tau_s)
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="main", kappa=kappa, ctx=ctx)


def example_main(kappa: float, phi: float) -> MatrixSet:
    """The zero-corner pair at any angle; float backend."""
    return swap_pair(2.0 * _snap_angle(phi)[0], kappa)


def example_main_special(ctx: KappaContext) -> MatrixSet:
    """The zero-corner pair at phi = 2*pi/3, exact: trace -1, det 1."""
    return swap_pair(Scalar.exact(-1), ctx.power(3), ctx)


def custom_set(
    a: Mat2, b: Mat2, tau_s: Mat2 | None = None, ctx: KappaContext | None = None
) -> MatrixSet:
    """Wrap a user-supplied pair.  kappa is c**3 with a context (exact pairs
    only), and else such that kappa**2 is the spectral radius of B @ A @ A,
    matching the normalization convention."""
    exact = same_backend(a, b)
    if ctx is None:
        kappa = Scalar.flt(math.sqrt(float(spectral_radius(b @ a @ a))))
    elif exact:
        kappa = ctx.power(3)
    else:
        raise ValueError("--c applies to exact pairs only; this pair is float")
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="custom", kappa=kappa, ctx=ctx)


def normalize(mset: MatrixSet, rel_tol: float = REL_TOL) -> NormalizedSet:
    """Divide both matrices by lam**(1/3), lam the top eigenvalue of BAA.

    Requires A**3 = B**3 = I (that is what makes the twelve-vertex
    construction close up); on the exact backend lam = kappa**2 exactly
    and the scale is c**2, so the normalized entries stay rational.

    One body serves both backends.  The checks run on the entries scaled
    by the lcm F of their denominators (matrix2.scaled_entries; F = 1 and
    the floats themselves on floats) and compare through scalar.allclose,
    exactly on ints and within rel_tol on floats: (F A)^3 == F^3 I and the
    same for B, and the normalized cube A~^3 == I/lam as
    p (G A~)^3 == q G^3 I, with G the scale of A~ and B~ together
    (NormalizedSet.scaled, formed here once per set).  Only lam, the scale
    and the eigenvalue identity depend on the backend.  On ints lam = p/q
    is kappa**2 = c**6, checked to be a root of x^2 - tr(BAA) x + det(BAA)
    as p^2 F^6 - tr(F^3 BAA) p q F^3 + det(F^3 BAA) q^2 == 0, and the only
    Fractions formed are lam, the scale and the entries of A~ and B~.  On
    floats lam is the spectral radius of BAA, checked to be finite before
    the cube identities (at a non-finite lam rounding fails them, which
    would read as a mathematical failure), and p/q = 1/(1/lam).
    """
    a, b, ctx = mset.a, mset.b, mset.ctx
    f, (ai, bi) = scaled_entries((a, b))
    exact = a.is_exact
    if exact:
        if ctx is None:
            raise ValueError(
                "exact pairs need a cube-root context (kappa = c**3) to normalize"
            )
        lam, scale = ctx.power(6), ctx.power(2)
    else:
        if ctx is not None:
            raise TypeError("a cube-root context applies to exact pairs only")
        lam = spectral_radius(b @ a @ a)
        scale = Scalar.flt(float(lam) ** (1.0 / 3.0))
        if not (math.isfinite(lam.value) and math.isfinite(scale.value)):
            raise ValueError(f"lam = {lam} is out of float range; cannot normalize")
    f3 = f**3
    for m, name in ((ai, "A"), (bi, "B")):
        if not _cube_is(m, 1, f3, rel_tol):
            raise ValueError(f"{name}**3 is not the identity; cannot normalize")
    if exact:
        # lam must be an eigenvalue of BAA: x^2 - tr*x + det annihilates it.
        p, q = lam.value.numerator, lam.value.denominator
        m11, m12, m21, m22 = mul_entries(mul_entries(bi, ai), ai)
        if p * p * f3 * f3 - (m11 + m22) * p * q * f3 + (m11 * m22 - m12 * m21) * q * q:
            raise ValueError("kappa**2 is not an eigenvalue of B @ A @ A")
    else:
        p, q = 1, 1 / lam.value
    inv = 1 / scale
    at, bt = a.scale(inv), b.scale(inv)
    norm = NormalizedSet(at=at, bt=bt, lam=lam, scale=scale, source=mset)
    # Sanity: the normalized cube must equal (1/lam) * I.
    g, (ati, _) = norm.scaled
    if not _cube_is(ati, p, q * g**3, rel_tol):
        raise ValueError("normalization failed the cube identity")
    return norm


def _cube_is(m: tuple, p, q, rel_tol: float) -> bool:
    """Whether p m^3 == q I for the row-major 4-tuple m, the cube formed
    as (m m) m, through scalar.allclose: exact on ints, within rel_tol on
    floats."""
    cube = tuple([p * x for x in mul_entries(mul_entries(m, m), m)])
    return allclose(cube, (q, 0, 0, q), rel_tol)


def eigenvectors_vw(ctx: KappaContext) -> tuple[Vec2, Vec2]:
    """Closed-form fixed vectors of the normalized triple products for the
    exact zero-corner family: v = (1, kappa/(1+kappa^2)), w = (1, 0)."""
    kappa = ctx.power(3)
    v = Vec2(Scalar.exact(1), kappa / (1 + kappa * kappa))
    w = Vec2(Scalar.exact(1), Scalar.exact(0))
    return v, w


def eigenvectors_from_products(
    norm: NormalizedSet, rel_tol: float = REL_TOL
) -> tuple[Vec2, Vec2]:
    """Fixed vectors of B~A~A~ and B~B~A~ (eigenvalue 1), first coordinate 1.

    Works on either backend and for any pair satisfying the normalization
    contract; the eigenvalue-1 residual is checked inside the extraction.
    On the exact backend the triple products are formed as ints, G^3 times
    the products, from norm.scaled (G the lcm of the denominators of A~
    and B~), and each
    vector is one Fraction; floats go through eigenvector_unit_first.
    """
    at, bt = norm.at, norm.bt
    if at.is_exact:
        g, (ati, bti) = norm.scaled
        g3 = g**3
        products = (
            mul_entries(mul_entries(bti, ati), ati),
            mul_entries(mul_entries(bti, bti), ati),
        )
        return tuple(_unit_first_fixed_vector(m, g3) for m in products)
    one = Scalar.flt(1.0)
    v = eigenvector_unit_first(bt @ at @ at, one, rel_tol)
    w = eigenvector_unit_first(bt @ bt @ at, one, rel_tol)
    return v, w


def _unit_first_fixed_vector(m: tuple, s: int) -> Vec2:
    """eigenvector_unit_first(M, 1) for M = m / s, m a row-major 4-tuple of
    ints and s > 0: the same tests, messages and row choice, on ints."""
    m11, m12, m21, m22 = m
    t, d = m11 + m22, m11 * m22 - m12 * m21
    if s * s - t * s + d != 0:
        raise EigenvectorError("1 is not an eigenvalue")
    if 2 * s == t:
        raise EigenvectorError("eigenvalue is not simple")
    # Rows of s (M - I); the eigenvector is orthogonal to the first nonzero.
    a, b = (m11 - s, m12) if (m11 != s or m12 != 0) else (m21, m22 - s)
    if b == 0:
        raise EigenvectorError("eigenvector is parallel to (0, 1)")
    return Vec2(Scalar(Fraction(1)), Scalar(Fraction(-a, b)))
