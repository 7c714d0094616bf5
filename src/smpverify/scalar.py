"""Dual-backend scalar arithmetic: exact rationals or binary64 floats.

The exact backend stores arbitrary-precision rationals and is closed under
+, -, *, / and comparison.  Fractional powers of the stretch parameter are
handled through the substitution kappa = c**3 with rational c: every
exponent that occurs in the polygon construction is a multiple of one
third, so all derived quantities stay inside the rationals.  The float
backend mirrors the same operations in binary64 for parameter scans.

Two rules, each in one place, hold the package's backend decisions.

same_backend(*items) is the backend rule: it returns whether the items
(Scalars, Mat2s, Vec2s, Polygons, anything with an `is_exact` flag) are
exact, and it raises BackendMismatchError, with the package's one message,
when exact and float items meet.  So a certificate that starts exact stays
exact, and every mixed-backend error reads the same.

isclose, le and ge are the tolerance policy: the one comparison primitive
of the package, on raw values.  A comparison is exact, and ignores its
tolerance, when neither operand is a float (an isinstance test, so a
subclass of float, such as numpy's float64, counts as a float); otherwise
it allows the relative slack `rel_tol`, whose default everywhere is the
module constant REL_TOL.  Scalar.isclose/le/ge delegate to them, and the
certificate's tuple checks call allclose, isclose entry by entry, on the
raw ints or floats.  There is no process-wide setting: a caller that
wants another tolerance passes it (the command line does so with
`certify --tol`).

Cost model: a Scalar's backend is fixed once, at construction, by an exact
type test (`type(value) is Fraction` or `is float`) and stored in the
`is_exact` slot.  Only a subclass of Fraction or float, or a rejected
value, pays for an isinstance check, which for Fraction goes through
ABCMeta.  Each operation then compares the two flags by identity and does
the raw arithmetic, so a float operation costs a few hundred nanoseconds
over the bare float operation; it calls same_backend only to raise.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "BackendMismatchError",
    "same_backend",
    "isclose",
    "allclose",
    "le",
    "ge",
    "Scalar",
    "KappaContext",
    "FloatKappa",
    "parse_scalar",
    "REL_TOL",
]

# The relative tolerance of float-backend comparisons, unless a caller
# passes another.
REL_TOL = 1e-12


class BackendMismatchError(TypeError):
    """Exact and float values met in one expression."""


def same_backend(*items) -> bool:
    """Whether the items, each with an `is_exact` flag, are exact.

    Raises BackendMismatchError when exact and float items meet.
    """
    exact = items[0].is_exact
    for item in items[1:]:
        if item.is_exact is not exact:
            raise BackendMismatchError("cannot combine exact and float values")
    return exact


def isclose(x, y, rel_tol: float = REL_TOL) -> bool:
    """x == y, exactly unless an operand is a float; then within rel_tol,
    relative or absolute."""
    if isinstance(x, float) or isinstance(y, float):
        return math.isclose(x, y, rel_tol=rel_tol, abs_tol=rel_tol)
    return x == y


def allclose(x: tuple, y: tuple, rel_tol: float = REL_TOL) -> bool:
    """Two tuples of raw values equal entry by entry through isclose.
    Equal tuples, as every passing exact check has, skip the per-entry
    calls."""
    return x == y or all(isclose(p, q, rel_tol) for p, q in zip(x, y))


def le(x, y, rel_tol: float = REL_TOL) -> bool:
    """x <= y, exactly unless an operand is a float; then with the slack
    rel_tol * max(1, |y|)."""
    if isinstance(x, float) or isinstance(y, float):
        return x <= y + rel_tol * max(1.0, abs(y))
    return x <= y


def ge(x, y, rel_tol: float = REL_TOL) -> bool:
    """x >= y, exactly unless an operand is a float; then with the slack
    rel_tol * max(1, |y|)."""
    if isinstance(x, float) or isinstance(y, float):
        return x >= y - rel_tol * max(1.0, abs(y))
    return x >= y


class Record:
    """Base of every value record: Mat2, Word, MatrixSet, Polygon, Certificate, ...

    A subclass lists its fields in __slots__ and sets them once, in
    __init__, through _init.  Records compare and hash as the tuple of
    their fields and refuse assignment, as frozen dataclasses do, but cost
    neither the import of the dataclasses module nor a decorator run.  A
    "__dict__" slot, listed last, is never a field: Polygon and
    NormalizedSet keep their cached_property values there, and equality,
    hash, repr, copy and pickle ignore them.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _names(self):
        return [name for name in self.__slots__ if name != "__dict__"]

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names()])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names())
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        # Rebuild through __init__: the default slot-state protocol of
        # copy and pickle would assign the fields.
        return (type(self), self._fields())


class Scalar:
    """A number carried by exactly one backend: Fraction or float."""

    __slots__ = ("value", "is_exact")

    def __init__(self, value):
        kind = type(value)
        if kind is Fraction:
            self.is_exact = True
        elif kind is float:
            self.is_exact = False
        elif not isinstance(value, (Fraction, float)):
            raise TypeError(f"Scalar wraps Fraction or float, got {value!r}")
        else:
            self.is_exact = isinstance(value, Fraction)
        self.value = value

    @classmethod
    def exact(cls, value) -> "Scalar":
        """Exact-backend scalar from an int, Fraction, or 'p/q' string."""
        return cls(Fraction(value))

    @classmethod
    def flt(cls, value) -> "Scalar":
        """Float-backend scalar."""
        return cls(float(value))

    @classmethod
    def one_like(cls, sample: "Scalar") -> "Scalar":
        return cls(Fraction(1)) if sample.is_exact else cls(1.0)

    @classmethod
    def zero_like(cls, sample: "Scalar") -> "Scalar":
        return cls(Fraction(0)) if sample.is_exact else cls(0.0)

    @property
    def backend(self) -> str:
        return "exact" if self.is_exact else "float"

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise BackendMismatchError("float scalar has no exact value")
        return self.value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if self.is_exact is not other.is_exact:
                same_backend(self, other)
            return other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return Fraction(other) if self.is_exact else float(other)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        ov = self._coerce(other)
        return NotImplemented if ov is None else Scalar(self.value + ov)

    __radd__ = __add__

    def __sub__(self, other):
        ov = self._coerce(other)
        return NotImplemented if ov is None else Scalar(self.value - ov)

    def __rsub__(self, other):
        ov = self._coerce(other)
        return NotImplemented if ov is None else Scalar(ov - self.value)

    def __mul__(self, other):
        ov = self._coerce(other)
        return NotImplemented if ov is None else Scalar(self.value * ov)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ov = self._coerce(other)
        if ov is None:
            return NotImplemented
        if ov == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.value / ov)

    def __rtruediv__(self, other):
        ov = self._coerce(other)
        if ov is None:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(ov / self.value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if self.value == 0 and exponent < 0:
            raise ZeroDivisionError("zero to a negative power")
        return Scalar(self.value**exponent)

    def __neg__(self):
        return Scalar(-self.value)

    def __abs__(self):
        return Scalar(abs(self.value))

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            if self.is_exact is not other.is_exact:
                return False
            return self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.is_exact, self.value))

    def _cmp_value(self, other):
        ov = self._coerce(other)
        if ov is None:
            raise TypeError(f"cannot compare Scalar with {other!r}")
        return ov

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)

    # -- tolerance-aware comparison (float backend only) --------------

    def isclose(self, other, rel_tol: float = REL_TOL) -> bool:
        """Equality check: exact on the exact backend, tolerant on float."""
        return isclose(self.value, self._cmp_value(other), rel_tol)

    def le(self, other, rel_tol: float = REL_TOL) -> bool:
        """self <= other, allowing a relative slack on the float backend."""
        return le(self.value, self._cmp_value(other), rel_tol)

    def ge(self, other, rel_tol: float = REL_TOL) -> bool:
        return ge(self.value, self._cmp_value(other), rel_tol)

    # -- formatting ---------------------------------------------------

    def __float__(self):
        return float(self.value)

    def __str__(self):
        # Exact rationals print decimal-free as p/q; floats print as the
        # shortest round-trip decimal.
        return str(self.value) if self.is_exact else repr(self.value)

    def __repr__(self):
        return f"Scalar({self.value!r})"


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q' or an integer as exact, a decimal literal as float."""
    text = text.strip()
    if "/" in text or text.lstrip("+-").isdigit():
        return Scalar.exact(Fraction(text))
    return Scalar.flt(float(text))


class KappaContext(Record):
    """Exact stretch parameter kappa = c**3 for a rational c > 1.

    Every power kappa**(k/3) that the construction needs is c**k, so the
    whole certificate can run without leaving the rationals.
    """

    __slots__ = ("c",)

    def __init__(self, c: Fraction):
        c = Fraction(c)
        if not c > 1:
            raise ValueError(f"need c > 1, got {c}")
        self._init(c)

    def power(self, k_thirds: int) -> Scalar:
        """kappa**(k_thirds/3) == c**k_thirds, exactly."""
        return Scalar.exact(self.c**k_thirds)


class FloatKappa(Record):
    """Float-backend stretch parameter with the same power interface."""

    __slots__ = ("kappa_value",)

    def __init__(self, kappa_value: float):
        kappa_value = float(kappa_value)
        if not kappa_value > 1:
            raise ValueError(f"need kappa > 1, got {kappa_value}")
        self._init(kappa_value)

    def power(self, k_thirds: int) -> Scalar:
        try:
            return Scalar.flt(self.kappa_value ** (k_thirds / 3.0))
        except OverflowError:
            raise ValueError(
                f"{self.kappa_value!r}**({k_thirds}/3) is out of float range"
            ) from None

