"""2x2 linear algebra over dual-backend scalars.

Everything is closed form: trace, determinant, inverse, spectra.  The
spectral radius is the only operation that leaves the rationals (it takes
a square root), so it always returns a float-backend scalar; exact
certificate logic sticks to trace/determinant comparisons instead.

Backends and tolerance: scalar.same_backend is the one backend rule and
scalar.isclose/le/ge the one tolerance rule.  scaled_entries and
eigenvector_unit_first call same_backend, so mixed operands raise
BackendMismatchError with the package's one message; Mat2.isclose and
Vec2.isclose compare entry by entry through Scalar.isclose.

Cost model: Mat2 and Vec2 are slotted `scalar.Record`s, like every value
record of the package.  Construction checks, with one chained identity
test of the entries' `is_exact` flags, that every entry has one backend,
calling same_backend only to raise, and then sets two or four slots
through one bound `object.__setattr__` rather than the loop of
`Record._init`: about 0.9 us per Vec2 and 1.4 us per Mat2 on a float
backend (Python 3.11).
`Mat2 @ Mat2` and `Mat2 @ Vec2` compare the two operands' flags by
identity once, the same way, then hand the raw entry values to
mul_entries or apply_entries, the one product kernel of the package; only
the result entries are wrapped.  Each entry is a bilinear form a*b + c*d,
computed as (a*b) + (c*d), the order of the scalar formula, so floats
round exactly as Scalar arithmetic would and exact entries are the
rationals of Fraction arithmetic.  `dot` is the same formula on Scalars.

The exact certificate skips Mat2 for its checks: scaled_entries puts
matrices over one common denominator (one lcm) as row-major 4-tuples of
ints, and mul_entries and apply_entries form products and images of those
tuples, with no Fraction and no gcd.  An identity or a sign of the scaled
ints is that of the rationals.  On floats the same kernels run on the
floats themselves, with scale 1, so a float product is bit for bit that
of Mat2 @, and scalar.allclose compares the tuples exactly on ints and
within the tolerance on floats.

One eigenvector body serves both backends: unit_first_vector, on a tuple
of scaled_entries and its scale (ints over a common denominator when
exact, the floats themselves with scale 1 when not).  eigenvector_unit_first
is that routine on scaled_entries((m,)), and
families.eigenvectors_from_products calls it on the fixed-vector products
of mul_entries.  Its float row rule, robust_row, also gives the real
eigendirections of the float irreducibility test (permutability), and its
residual, eigen_residual, the exact eigenvalue check of families.normalize.

Where the kernel runs: Mat2 @; normalize and eigenvectors_from_products
(families), verify_tau on both backends (on ints, a float pair's
entries taken exactly) and the float is_irreducible (permutability);
build_polygon and the images of the polygon's vertices (polytope); and
the word oracle of words, on ints for both backends, where each hull
image is one apply_entries, each necklace prefix, pair product or tree
node one mul_entries and each necklace of the last two lengths one
trace_entries.
One inline copy of a product formula stays, for a measured cost:
polytope._gauges writes out its sector formula (polytope._sector, not a
kernel of this module), because through it certify ran about 5% slower
on float inputs and 6% on exact ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import REL_TOL, Record, Scalar, same_backend

__all__ = [
    "Vec2",
    "Mat2",
    "SingularMatrixError",
    "EigenvectorError",
    "dot",
    "rot90",
    "quarter_turn",
    "spectral_radius",
    "radius_from_invariants",
    "radius_of_ratios",
    "similarity",
    "eigenvector_unit_first",
    "unit_first_vector",
    "eigen_residual",
    "robust_row",
    "common_scale",
    "scaled_entries",
    "mul_entries",
    "apply_entries",
    "trace_entries",
]


class SingularMatrixError(ValueError):
    """Inverse or similarity requested for a singular matrix."""


class EigenvectorError(ValueError):
    """Eigenvector extraction failed (bad eigenvalue or degenerate direction)."""


# Vec2 and Mat2 set their slots through this bound function, not through
# Record._init: they are built in the certificate's inner loops.
_set = object.__setattr__


class Vec2(Record):
    __slots__ = ("x1", "x2")

    def __init__(self, x1: Scalar, x2: Scalar):
        if x1.is_exact is not x2.is_exact:
            same_backend(x1, x2)
        _set(self, "x1", x1)
        _set(self, "x2", x2)

    @classmethod
    def exact(cls, x1, x2) -> "Vec2":
        return cls(Scalar.exact(x1), Scalar.exact(x2))

    @classmethod
    def flt(cls, x1, x2) -> "Vec2":
        return cls(Scalar.flt(x1), Scalar.flt(x2))

    @property
    def is_exact(self) -> bool:
        return self.x1.is_exact

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x1, -self.x2)

    def scale(self, s: Scalar) -> "Vec2":
        return Vec2(self.x1 * s, self.x2 * s)

    def isclose(self, other: "Vec2", rel_tol: float = REL_TOL) -> bool:
        return self.x1.isclose(other.x1, rel_tol) and self.x2.isclose(
            other.x2, rel_tol
        )

    def as_strings(self) -> tuple[str, str]:
        return (str(self.x1), str(self.x2))


def common_scale(values) -> tuple[int, list[int]]:
    """The lcm D of the denominators of some Fractions, ints or finite
    floats (each exactly its as_integer_ratio), and D times each."""
    ratios = [q.as_integer_ratio() for q in values]
    d = math.lcm(*(q for _, q in ratios))
    return d, [p * (d // q) for p, q in ratios]


def scaled_entries(mats) -> tuple[int, list[tuple]]:
    """(F, rows): each matrix's row-major entries times the lcm F of all
    their denominators, as ints, for exact matrices; F = 1 and the floats
    themselves for float ones.  The backends must agree (same_backend)."""
    exact = same_backend(*mats)
    values = [x for m in mats for x in m._values()]
    f, values = common_scale(values) if exact else (1, values)
    return f, [tuple(values[k:k + 4]) for k in range(0, len(values), 4)]


def mul_entries(a: tuple, b: tuple) -> tuple:
    """The product of two row-major 4-tuples, each entry formed as
    (a_i1 * b_1j) + (a_i2 * b_2j): the int product F F' a b of scaled ints
    F a, F' b, or the float product of Mat2 @."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
    )


def apply_entries(m: tuple, x: tuple) -> tuple:
    """The row-major 4-tuple m applied to the pair x, in the order of
    mul_entries."""
    x1, x2 = x
    return (m[0] * x1 + m[1] * x2, m[2] * x1 + m[3] * x2)


def trace_entries(a: tuple, b: tuple) -> int | float:
    """The trace of the product of two row-major 4-tuples: the diagonal of
    mul_entries(a, b) summed, with no off-diagonal entry formed.  The word
    oracle calls it on ints, where the order of the sum does not matter."""
    return a[0] * b[0] + a[1] * b[2] + a[2] * b[1] + a[3] * b[3]


def dot(x: Vec2, y: Vec2) -> Scalar:
    return x.x1 * y.x1 + x.x2 * y.x2


def rot90(x: Vec2) -> Vec2:
    """Counterclockwise quarter turn: (x1, x2) -> (-x2, x1)."""
    return Vec2(-x.x2, x.x1)


class Mat2(Record):
    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: Scalar, m12: Scalar, m21: Scalar, m22: Scalar):
        if not (m11.is_exact is m12.is_exact is m21.is_exact is m22.is_exact):
            same_backend(m11, m12, m21, m22)
        _set(self, "m11", m11)
        _set(self, "m12", m12)
        _set(self, "m21", m21)
        _set(self, "m22", m22)

    @classmethod
    def exact(cls, m11, m12, m21, m22) -> "Mat2":
        return cls(*(Scalar.exact(v) for v in (m11, m12, m21, m22)))

    @classmethod
    def flt(cls, m11, m12, m21, m22) -> "Mat2":
        return cls(*(Scalar.flt(v) for v in (m11, m12, m21, m22)))

    @classmethod
    def identity_like(cls, sample: "Mat2") -> "Mat2":
        one = Scalar.one_like(sample.m11)
        zero = Scalar.zero_like(sample.m11)
        return cls(one, zero, zero, one)

    @property
    def is_exact(self) -> bool:
        return self.m11.is_exact

    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.m11, self.m12, self.m21, self.m22)

    def _values(self) -> tuple:
        """The raw row-major entry values, for the tuple kernels."""
        return (self.m11.value, self.m12.value, self.m21.value, self.m22.value)

    def as_strings(self) -> tuple[str, str, str, str]:
        """Row-major 4-tuple of scalar strings."""
        return tuple(str(e) for e in self.entries())

    def trace(self) -> Scalar:
        return self.m11 + self.m22

    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other):
        if isinstance(other, Mat2):
            if self.m11.is_exact is not other.m11.is_exact:
                same_backend(self, other)
            return Mat2(*map(Scalar, mul_entries(self._values(), other._values())))
        if isinstance(other, Vec2):
            if self.m11.is_exact is not other.x1.is_exact:
                same_backend(self, other)
            x = (other.x1.value, other.x2.value)
            return Vec2(*map(Scalar, apply_entries(self._values(), x)))
        return NotImplemented

    def scale(self, s: Scalar) -> "Mat2":
        return Mat2(self.m11 * s, self.m12 * s, self.m21 * s, self.m22 * s)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.m11, -self.m12, -self.m21, -self.m22)

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise SingularMatrixError("matrix is singular")
        return Mat2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def isclose(self, other: "Mat2", rel_tol: float = REL_TOL) -> bool:
        return all(
            a.isclose(b, rel_tol) for a, b in zip(self.entries(), other.entries())
        )


def quarter_turn(exact: bool = True) -> Mat2:
    """The rotation by a quarter turn counterclockwise; squares to -I."""
    return Mat2.exact(0, -1, 1, 0) if exact else Mat2.flt(0.0, -1.0, 1.0, 0.0)


def spectral_radius(m: Mat2) -> Scalar:
    """Largest eigenvalue modulus; always a float-backend scalar.

    The discriminant sign is decided on the input backend, so the complex
    vs. real branch is exact for exact matrices, which take
    radius_of_ratios on their entries over one denominator.  The float
    trace and determinant are scaled by 2**-e and 4**-e, with 2**e the
    power of two just above the larger of |t| and sqrt(|d|), and the
    radius by 2**e back, so no step of the formula over- or underflows
    where the radius fits a float.  An exact radius too large for a float
    raises ValueError.
    """
    if m.is_exact:
        f, (a, b, c, d) = common_scale(m._values())
        try:
            return Scalar.flt(radius_of_ratios(a + d, a * d - b * c, f, f * f))
        except OverflowError:
            raise ValueError(
                "exact matrix leaves the float range: its spectral radius is too "
                "large for a float"
            ) from None
    t, d = m.trace().value, m.det().value
    e = math.frexp(max(abs(t), math.sqrt(abs(d))))[1]
    t, d = math.ldexp(t, -e), math.ldexp(d, -2 * e)
    disc = t * t - 4 * d
    return Scalar.flt(math.ldexp(radius_from_invariants(t, d, disc if disc >= 0 else None), e))


def radius_of_ratios(t: int, d: int, f: int, f2: int) -> float:
    """The spectral radius of trace t / f and determinant d / f2 (ints, f2
    = f * f > 0), or OverflowError when it is too large for a float.

    The discriminant's sign is decided on the ints.  The ratios are scaled
    by 2**-e and 4**-e, with e from the bit lengths, so that the larger of
    |t / f| and sqrt(|d / f2|) is about 1; each scaled quotient is int /
    int, correctly rounded, and the radius is scaled by 2**e back.
    """
    disc = t * t - 4 * d
    e = max(abs(t).bit_length() - f.bit_length(), (abs(d).bit_length() - f2.bit_length()) // 2)
    if e > 0:
        f, f2 = f << e, f2 << 2 * e
    else:
        t, d, disc = t << -e, d << -2 * e, disc << -2 * e
    discf = disc / f2 if disc >= 0 else None
    return math.ldexp(radius_from_invariants(t / f, d / f2, discf), e)


def radius_from_invariants(t: float, d: float, disc: float | None) -> float:
    """Spectral radius from the float trace t and determinant d.

    `disc` is the float discriminant t*t - 4*d when its sign, decided by
    the caller on the input backend, is >= 0, and None when the
    eigenvalues are a complex-conjugate pair.
    """
    if disc is not None:
        r = math.sqrt(max(disc, 0.0))
        return max(abs((t + r) / 2), abs((t - r) / 2))
    # Complex-conjugate pair: |lambda|^2 = det, which is positive here.
    return math.sqrt(d)


def similarity(s: Mat2, x: Mat2) -> Mat2:
    """The conjugate s^-1 @ x @ s."""
    return s.inverse() @ x @ s


def eigenvector_unit_first(
    m: Mat2, lam: Scalar | int, rel_tol: float = REL_TOL
) -> Vec2:
    """Eigenvector of a simple real eigenvalue, scaled to first coordinate 1.

    Raises EigenvectorError if lam is not an eigenvalue (exact residual on
    the exact backend, tolerance on float), if it is not simple, or if the
    eigendirection is parallel to (0, 1).  The body is unit_first_vector,
    on the scaled entries of m.
    """
    if isinstance(lam, int):
        lam = Scalar.exact(lam) if m.is_exact else Scalar.flt(lam)
    same_backend(m, lam)
    f, (e,) = scaled_entries((m,))
    return unit_first_vector(e, f, lam.value, rel_tol)


def unit_first_vector(e: tuple, f: int, lam, rel_tol: float = REL_TOL) -> Vec2:
    """eigenvector_unit_first for M = e / f, e a row-major 4-tuple of
    scaled_entries and f its scale: ints over f on the exact backend, the
    floats themselves with f = 1 on floats.

    With lam = p/q (as_integer_ratio on ints, p = lam and q = 1 on floats)
    the tests read three quantities cleared of denominators: the residual
    of lam (eigen_residual, (q f)^2 times lam^2 - tr(M) lam + det(M)), and
    q f times 2 lam - tr(M) and M - lam I.  On ints they are exact, and
    the eigenvector is orthogonal to the first nonzero row of q f (M - lam
    I).  On floats q f = 1, so these are the float operations of the
    unscaled formulas, in their order; the tests allow rel_tol and the row
    is robust_row's.
    """
    e11, e12, e21, e22 = e
    exact = not isinstance(e11, float)
    p, q = lam.as_integer_ratio() if exact else (float(lam), 1)
    pf = p * f
    residual = eigen_residual(e, pf, q)
    simple = 2 * pf - (e11 + e22) * q
    if exact:
        if residual:
            raise EigenvectorError(f"{Fraction(p, q)} is not an eigenvalue")
        if not simple:
            raise EigenvectorError("eigenvalue is not simple")
        a, b = q * e11 - pf, q * e12
        if not (a or b):
            a, b = q * e21, q * e22 - pf
        first_zero = b == 0
    else:
        if abs(residual) > rel_tol * max(1.0, p * p):
            raise EigenvectorError(f"{p!r} is not an eigenvalue (residual too large)")
        if abs(simple) <= rel_tol * max(1.0, abs(p)):
            raise EigenvectorError("eigenvalue is not simple")
        a, b = robust_row(e, p)
        first_zero = abs(b) <= rel_tol * abs(a)
    # The eigenvector (b, -a) is orthogonal to the row (a, b).
    if first_zero:
        raise EigenvectorError("eigenvector is parallel to (0, 1)")
    if exact:
        return Vec2(Scalar(Fraction(1)), Scalar(Fraction(-a, b)))
    return Vec2(Scalar(1.0), Scalar(-a / b))


def eigen_residual(e: tuple, pf, q):
    """(p f)^2 - t (p f) q + d q^2, for t and d the trace and determinant
    of the row-major 4-tuple e: (q f)^2 times lam^2 - tr(M) lam + det(M)
    for M = e / f and lam = p / q, so 0 iff lam is an eigenvalue of M."""
    e11, e12, e21, e22 = e
    return pf * pf - (e11 + e22) * pf * q + (e11 * e22 - e12 * e21) * q * q


def robust_row(e: tuple, lam: float) -> tuple:
    """The row (a, b) of the float matrix e - lam I, e a row-major 4-tuple,
    with the larger |a| + |b|, the first on a tie.  An eigenvector of lam
    is (b, -a)."""
    rows = ((e[0] - lam, e[1]), (e[2], e[3] - lam))
    return max(rows, key=lambda r: abs(r[0]) + abs(r[1]))
