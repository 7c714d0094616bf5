"""Constructors for the two parametric matrix pairs under study.

Both families are rotation-with-stretching pairs sharing trace 2*cos(phi)
and determinant 1.  The `main` family additionally has a zero upper-left
entry, which keeps every derived quantity rational once kappa is a
rational cube; at the distinguished angle phi = 2*pi/3 the pair satisfies
A**3 = B**3 = I, which is what the whole polygon construction rests on.

The `alt` family keeps the textbook rotation shape.  Its entries involve
sines and cosines, so that path runs on the float backend.
"""

from __future__ import annotations

import math

from .matrix2 import Mat2, Vec2, eigenvector_unit_first, quarter_turn, spectral_radius
from .scalar import REL_TOL, KappaContext, Record, Scalar

__all__ = [
    "MatrixSet",
    "NormalizedSet",
    "DISTINGUISHED_PHI",
    "at_distinguished_angle",
    "example_alt",
    "example_main",
    "example_main_special",
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
    radius exactly 1."""

    __slots__ = ("at", "bt", "lam", "scale", "source")

    def __init__(self, at: Mat2, bt: Mat2, lam: Scalar, scale: Scalar, source: MatrixSet):
        self._init(at, bt, lam, scale, source)  # scale is lam**(1/3)


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


def example_main(kappa: float, phi: float) -> MatrixSet:
    """Zero-corner pair; float backend for general angles."""
    kappa = float(kappa)
    if not kappa > 1:
        raise ValueError(f"need kappa > 1, got {kappa}")
    t2 = 2.0 * _snap_angle(phi)[0]
    a = Mat2.flt(0.0, -1.0 / kappa, kappa, t2)
    b = Mat2.flt(0.0, -kappa, 1.0 / kappa, t2)
    d = t2 * kappa / (kappa * kappa + 1.0)
    tau_s = Mat2.flt(d, 1.0, -1.0, -d)
    _check_finite(kappa, a, b, tau_s)
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="main", kappa=Scalar.flt(kappa))


def example_main_special(ctx: KappaContext) -> MatrixSet:
    """The zero-corner pair at phi = 2*pi/3, exact: trace -1, det 1."""
    kappa = ctx.power(3)
    inv_kappa = ctx.power(-3)
    zero = Scalar.exact(0)
    minus_one = Scalar.exact(-1)
    a = Mat2(zero, -inv_kappa, kappa, minus_one)
    b = Mat2(zero, -kappa, inv_kappa, minus_one)
    d = -kappa / (kappa * kappa + 1)
    tau_s = Mat2(d, Scalar.exact(1), minus_one, -d)
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="main", kappa=kappa, ctx=ctx)


def custom_set(
    a: Mat2,
    b: Mat2,
    tau_s: Mat2 | None = None,
    ctx: KappaContext | None = None,
    kappa: Scalar | None = None,
) -> MatrixSet:
    """Wrap a user-supplied pair.  kappa defaults so that kappa**2 is the
    spectral radius of B @ A @ A, matching the normalization convention."""
    if a.is_exact != b.is_exact:
        raise TypeError("matrix backends must match")
    if kappa is None:
        if ctx is not None:
            kappa = ctx.power(3)
        else:
            baa = b @ a @ a
            kappa = Scalar.flt(math.sqrt(float(spectral_radius(baa))))
    return MatrixSet(a=a, b=b, tau_s=tau_s, family="custom", kappa=kappa, ctx=ctx)


def normalize(mset: MatrixSet, rel_tol: float = REL_TOL) -> NormalizedSet:
    """Divide both matrices by lam**(1/3), lam the top eigenvalue of BAA.

    Requires A**3 = B**3 = I (that is what makes the twelve-vertex
    construction close up); on the exact backend lam = kappa**2 exactly
    and the scale is c**2, so the normalized entries stay rational.
    """
    a, b = mset.a, mset.b
    if a.is_exact and mset.ctx is None:
        raise ValueError(
            "exact pairs need a cube-root context (kappa = c**3) to normalize"
        )
    baa = b @ a @ a
    if mset.ctx is None:
        lam = spectral_radius(baa)
        scale = Scalar.flt(float(lam) ** (1.0 / 3.0))
        # Checked before the cube identities: at such a lam, rounding
        # fails them, which would read as a mathematical failure.
        if not (math.isfinite(lam.value) and math.isfinite(scale.value)):
            raise ValueError(f"lam = {lam} is out of float range; cannot normalize")
    for m, name in ((a, "A"), (b, "B")):
        if not (m @ m @ m).isclose(Mat2.identity_like(m), rel_tol):
            raise ValueError(f"{name}**3 is not the identity; cannot normalize")
    if mset.ctx is not None:
        lam = mset.ctx.power(6)
        # lam must be an eigenvalue of BAA: x^2 - tr*x + det annihilates it.
        if lam * lam - baa.trace() * lam + baa.det() != 0:
            raise ValueError("kappa**2 is not an eigenvalue of B @ A @ A")
        scale = mset.ctx.power(2)
    inv = 1 / scale
    at, bt = a.scale(inv), b.scale(inv)
    norm = NormalizedSet(at=at, bt=bt, lam=lam, scale=scale, source=mset)
    # Sanity: the normalized cubes must equal (1/lam) * I.
    cube = at @ at @ at
    expected = Mat2.identity_like(at).scale(1 / lam)
    if not cube.isclose(expected, rel_tol):
        raise ValueError("normalization failed the cube identity")
    return norm


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
    """
    at, bt = norm.at, norm.bt
    one = Scalar.exact(1) if at.is_exact else Scalar.flt(1.0)
    v = eigenvector_unit_first(bt @ at @ at, one, rel_tol)
    w = eigenvector_unit_first(bt @ bt @ at, one, rel_tol)
    return v, w
