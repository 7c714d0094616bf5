"""Words over the two-letter alphabet {A, B} and finite growth bounds.

A word stores its symbols in application order (the first symbol acts
first), while the display form is the usual matrix juxtaposition, i.e. the
reverse: the word displayed "BAA" evaluates to B @ A @ A.  Cyclic
operations (normal form, necklace enumeration) work on the display string.

The finite bounds are the brute-force oracle of the workbench:

  rho_bar_n = max over length-n products of spectral_radius(product)**(1/n)
  rho_n     = max over length-n products of norm(product)**(1/n)

The first maximum runs over one representative per cyclic class (the
spectral radius is invariant under rotation of factors); the second runs
over all 2**n words because norms are not cyclic-invariant.

Both run on plain row-major 4-tuples rather than Mat2.  An exact pair is
scaled by the lcm D of its eight entry denominators, so a length-n product
is an int tuple standing for itself divided by D**n and all arithmetic is
on Python ints.  A float pair keeps its floats, with D = 1, and multiplies
in the same order as Mat2 @, so it rounds exactly as Mat2 would.

Floats enter only at the end of each product.  rho_bar_n forms trace,
determinant and discriminant as ints, decides the discriminant's sign
exactly, and then divides by D**n or D**(2n); int / int is correctly
rounded, so every value matches float() of the exact rational.  rho_n
with the default box norm compares int row sums and divides the largest
by D**n once.  Any other norm gets one Mat2 per leaf, built from the
tuple, through its matrix_norm(Mat2) method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matrix2 import Mat2
from .scalar import Scalar
from . import matrix2

__all__ = [
    "Word",
    "BoundsRow",
    "BoxNorm",
    "DEFAULT_WORD_CAP",
    "evaluate",
    "cyclic_normal_form",
    "necklaces",
    "factor_counts",
    "rho_bar_n",
    "rho_n",
    "bounds_table",
    "format_bounds_text",
    "format_bounds_csv",
]

DEFAULT_WORD_CAP = 20

_ALPHABET = ("A", "B")


@dataclass(frozen=True)
class Word:
    """A nonempty word over {A, B} in application order."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("words must have length >= 1")
        if any(s not in _ALPHABET for s in self.symbols):
            raise ValueError(f"symbols must be 'A' or 'B', got {self.symbols!r}")

    @classmethod
    def from_display(cls, text: str) -> "Word":
        """Build from the juxtaposition form, e.g. 'BAA' for B @ A @ A."""
        return cls(tuple(reversed(text)))

    @property
    def display(self) -> str:
        return "".join(reversed(self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return self.display


def evaluate(w: Word, a: Mat2, b: Mat2) -> Mat2:
    """The matrix product named by the word's display form."""
    if a.is_exact != b.is_exact:
        raise TypeError("matrix backends must match")
    factors = {"A": a, "B": b}
    product = factors[w.symbols[0]]
    for sym in w.symbols[1:]:
        product = factors[sym] @ product
    return product


def cyclic_normal_form(w: Word) -> Word:
    """Lexicographically least rotation of the display form (A < B)."""
    d = w.display
    best = min(d[i:] + d[:i] for i in range(len(d)))
    return Word.from_display(best)


def necklaces(n: int) -> list[Word]:
    """One representative per cyclic class of {A,B}**n, sorted.

    Uses the classic recursive pre-necklace generator, which emits exactly
    the lexicographically least rotations in increasing order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a = [0] * (n + 1)
    out: list[str] = []

    def gen(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.append("".join(_ALPHABET[a[i]] for i in range(1, n + 1)))
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, 2):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return [Word.from_display(s) for s in out]


def factor_counts(w: Word) -> tuple[int, int]:
    """Multiplicities (count of A, count of B)."""
    n_a = sum(1 for s in w.symbols if s == "A")
    return (n_a, len(w.symbols) - n_a)


@dataclass(frozen=True)
class BoundsRow:
    n: int
    rho_bar: float
    rho: float | None
    maximizers: tuple[Word, ...]


class BoxNorm:
    """Operator norm induced by the max-absolute-coordinate vector norm."""

    def matrix_norm(self, m: Mat2) -> Scalar:
        return _box_norm(m.entries())


def _box_norm(entries):
    """Larger absolute row sum of row-major entries; any ordered numbers."""
    m11, m12, m21, m22 = entries
    rows = (abs(m11) + abs(m12), abs(m21) + abs(m22))
    return rows[0] if rows[0] >= rows[1] else rows[1]


def _check_cap(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > cap:
        raise ValueError(f"word length {n} exceeds cap {cap}")


def _scaled_pair(a: Mat2, b: Mat2):
    """Row-major 4-tuples of D*a and D*b, and the scale D.

    Exact pairs are scaled by the lcm D of their eight denominators, so
    the tuples hold ints; float pairs keep their floats, with D = 1.
    """
    if a.is_exact != b.is_exact:
        raise TypeError("matrix backends must match")
    entries = a.entries() + b.entries()
    if not a.is_exact:
        return tuple(e.value for e in entries[:4]), tuple(e.value for e in entries[4:]), 1
    d = math.lcm(*(e.value.denominator for e in entries))
    scaled = [e.value.numerator * (d // e.value.denominator) for e in entries]
    return tuple(scaled[:4]), tuple(scaled[4:]), d


def _mul(x, y):
    """Row-major 2x2 product x @ y, in the operation order of Mat2 @."""
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (
        x11 * y11 + x12 * y21,
        x11 * y12 + x12 * y22,
        x21 * y11 + x22 * y21,
        x21 * y12 + x22 * y22,
    )


def rho_bar_n(
    a: Mat2,
    b: Mat2,
    n: int,
    tie_rel_tol: float = 1e-9,
    cap: int = DEFAULT_WORD_CAP,
) -> BoundsRow:
    """Brute-force lower bound row: max of rooted spectral radii.

    The maximizer list holds every necklace whose rooted spectral radius is
    within tie_rel_tol (relative) of the maximum.
    """
    _check_cap(n, cap)
    ta, tb, d = _scaled_pair(a, b)
    factors = {"A": ta, "B": tb}
    dn, dn2 = d**n, d ** (2 * n)
    scored = []
    for w in necklaces(n):
        p = factors[w.symbols[0]]
        for sym in w.symbols[1:]:
            p = _mul(factors[sym], p)
        # p is D**n times the product: trace scales by D**n, det and
        # discriminant by D**(2n).  The discriminant's sign is decided
        # before any rounding.
        t = p[0] + p[3]
        det = p[0] * p[3] - p[1] * p[2]
        disc = t * t - 4 * det
        r = matrix2.radius_from_invariants(
            t / dn, det / dn2, disc / dn2 if disc >= 0 else None
        )
        scored.append((r ** (1.0 / n), w))
    best = max(r for r, _ in scored)
    cut = best - tie_rel_tol * max(1.0, abs(best))
    maximizers = tuple(w for r, w in scored if r >= cut)
    return BoundsRow(n=n, rho_bar=best, rho=None, maximizers=maximizers)


def rho_n(
    a: Mat2,
    b: Mat2,
    n: int,
    norm=None,
    cap: int = DEFAULT_WORD_CAP,
) -> Scalar:
    """Upper bound over all 2**n words: max of norm(product)**(1/n).

    `norm` is any object with matrix_norm(Mat2) -> Scalar; defaults to the
    box norm.  The maximum itself is taken in the input backend (exact if
    the matrices are exact) and only the final root is floating point.
    """
    _check_cap(n, cap)
    ta, tb, d = _scaled_pair(a, b)
    dn = d**n
    if norm is None:
        leaf = _box_norm
    elif a.is_exact:
        def leaf(p):
            return norm.matrix_norm(Mat2(*(Scalar(Fraction(x, dn)) for x in p)))
    else:
        def leaf(p):
            return norm.matrix_norm(Mat2(*(Scalar(x) for x in p)))
    best = None
    # Depth-first over suffix products; each step applies one more factor
    # on the left, so depth k holds the product of the last k factors.
    stack = [(tb, 1), (ta, 1)]
    while stack:
        p, depth = stack.pop()
        if depth == n:
            v = leaf(p)
            if best is None or v > best:
                best = v
            continue
        stack.append((_mul(tb, p), depth + 1))
        stack.append((_mul(ta, p), depth + 1))
    if norm is None:
        # int / int rounds correctly, as float(Fraction) does.
        best = best / dn
    return Scalar.flt(float(best) ** (1.0 / n))


def bounds_table(
    a: Mat2,
    b: Mat2,
    n_max: int,
    norm=None,
    tie_rel_tol: float = 1e-9,
    cap: int = DEFAULT_WORD_CAP,
) -> list[BoundsRow]:
    """Rows for n = 1..n_max with both bound columns filled."""
    _check_cap(n_max, cap)
    rows = []
    for n in range(1, n_max + 1):
        lower = rho_bar_n(a, b, n, tie_rel_tol=tie_rel_tol, cap=cap)
        upper = rho_n(a, b, n, norm=norm, cap=cap)
        rows.append(
            BoundsRow(
                n=n, rho_bar=lower.rho_bar, rho=float(upper), maximizers=lower.maximizers
            )
        )
    return rows


def _fmt_maximizers(row: BoundsRow) -> str:
    return ";".join(w.display for w in row.maximizers)


def format_bounds_text(rows) -> str:
    lines = [f"{'n':>3}  {'rho_bar_n':<22}  {'rho_n':<22}  maximizers"]
    for row in rows:
        rho = "" if row.rho is None else repr(row.rho)
        lines.append(
            f"{row.n:>3}  {row.rho_bar!r:<22}  {rho:<22}  {_fmt_maximizers(row)}"
        )
    return "\n".join(lines)


def format_bounds_csv(rows) -> str:
    lines = ["n,rho_bar_n,rho_n,maximizers"]
    for row in rows:
        rho = "" if row.rho is None else repr(row.rho)
        lines.append(f"{row.n},{row.rho_bar!r},{rho},{_fmt_maximizers(row)}")
    return "\n".join(lines)
