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

Both come from one depth-first walk of the tree of suffix products.  A
node at depth k is the product of the last k factors of a word, and its
two children multiply one more factor on the left, in the operation order
of Mat2 @.  rho_n to n, rho_bar_n to n and bounds_table to n_max are one
walk each.  Every node's product is formed once, with the association of
evaluate, so floats round exactly as Mat2 would.  The walk keeps an
explicit stack, never a whole level of the tree.

A node is named by an int code: A = 0, B = 1, with the leftmost display
symbol in the top bit, so for one length code order is the lexicographic
order of the display strings.  One run of the prenecklace generator fills
the set of necklace codes for every length up to the walk's depth.  A
necklace node gets a spectral radius; every node at a scored depth gets a
norm.  A node is expanded only if a requested score lies at or below it.
rho_bar_n alone expands only the suffixes of the scored necklaces.

With norms requested, an exact pair under the built-in box norm (norm is
None) is walked by branch and bound, in the manner of Gripenberg
(Computing the joint spectral radius, LAA 1996), but exact: the maxima are
those of the full walk, bit for bit.  cap[m] bounds the box norm of every
length-m product: the exact largest for m <= 6, from a pre-walk of those
126 products, and the least cap[i] * cap[m - i] beyond, as the box norm
(the induced max-norm) is submultiplicative.  A depth-k node of norm v
then bounds each descendant at depth j by cap[j - k] * v.  Its children
are formed only if that bound beats the largest norm seen so far at some
scored depth j (or none is seen yet there), or if a child is the suffix
of a scored necklace, so every necklace is still scored.  Float pairs and
any other norm (a polygon, or an explicit BoxNorm()) expand every node: a
float product is not exactly submultiplicative, so a float bound could
drop a maximum in its last bit.

The walk runs on plain row-major 4-tuples rather than Mat2.  An exact pair
is scaled by the lcm D of its eight entry denominators, so a depth-k node
is an int tuple standing for itself divided by D**k and all arithmetic is
on Python ints.  A float pair keeps its floats, with D = 1.

Floats enter only at the end of each product.  A radius forms trace,
determinant and discriminant as ints, decides the discriminant's sign
exactly, and then divides by D**k or D**(2k); int / int is correctly
rounded, so every value matches float() of the exact rational, or raises
OverflowError when that rational is too large for a float; the walk then
raises ValueError naming the least such word length, as it does for a
float product that overflows.  The determinant is multiplicative, so an
exact walk reads it from a table by length and count of B, and keeps
there too the rooted radius sqrt(det)**(1/k) of a complex eigenvalue pair.  The default box norm compares int row sums
and divides the largest by D**k once.  Any other norm gets one Mat2 per
node, built from the tuple, through its matrix_norm(Mat2) method.  A Word
is built only for the maximizers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .matrix2 import Mat2, common_scale
from .scalar import Record, Scalar
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

# Necklaces whose rooted spectral radius lies within this relative distance
# of the largest are all listed as maximizers.
_TIE_TOL = 1e-9

_ALPHABET = ("A", "B")

# Word length up to which _box_caps takes the exact largest box norm.
_CAP_DEPTH = 6


class Word(Record):
    """A nonempty word over {A, B} in application order."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[str, ...]):
        if len(symbols) == 0:
            raise ValueError("words must have length >= 1")
        if any(s not in _ALPHABET for s in symbols):
            raise ValueError(f"symbols must be 'A' or 'B', got {symbols!r}")
        self._init(symbols)

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
    """One representative per cyclic class of {A,B}**n, sorted."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [Word.from_display(_display(code, n)) for code in _necklace_codes(n)[n]]


_BITS_TO_SYMBOLS = str.maketrans("01", "AB")


def _display(code: int, n: int) -> str:
    """Display string of a length-n code."""
    return format(code, f"0{n}b").translate(_BITS_TO_SYMBOLS)


def _necklace_codes(n_max: int) -> list[list[int]]:
    """Codes of the necklaces of each length k = 0..n_max, ascending.

    One run of the recursive prenecklace generator of Fredricksen, Kessler
    and Maiorana.  Every prefix it visits is a prenecklace, and one of
    length k with period p is a necklace iff p divides k.  It visits the
    prefixes of each length in lexicographic order, which is code order.
    """
    codes: list[list[int]] = [[] for _ in range(n_max + 1)]
    a = [0] * (n_max + 1)

    def gen(t: int, p: int, code: int) -> None:
        # a[1..t-1] is a prenecklace with period p, and code encodes it.
        if (t - 1) % p == 0:
            codes[t - 1].append(code)
        if t > n_max:
            return
        a[t] = a[t - p]
        gen(t + 1, p, 2 * code + a[t])
        if a[t - p] == 0:
            a[t] = 1
            gen(t + 1, t, 2 * code + 1)

    gen(1, 1, 0)
    return codes


def factor_counts(w: Word) -> tuple[int, int]:
    """Multiplicities (count of A, count of B)."""
    n_a = sum(1 for s in w.symbols if s == "A")
    return (n_a, len(w.symbols) - n_a)


class BoundsRow(Record):
    __slots__ = ("n", "rho_bar", "rho", "maximizers")

    def __init__(
        self, n: int, rho_bar: float, rho: float | None, maximizers: tuple[Word, ...]
    ):
        self._init(n, rho_bar, rho, maximizers)


class BoxNorm:
    """Operator norm induced by the max-absolute-coordinate vector norm."""

    def matrix_norm(self, m: Mat2) -> Scalar:
        m11, m12, m21, m22 = m.entries()
        r0, r1 = abs(m11) + abs(m12), abs(m21) + abs(m22)
        return r0 if r0 >= r1 else r1


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > DEFAULT_WORD_CAP:
        raise ValueError(f"word length {n} exceeds cap {DEFAULT_WORD_CAP}")


def _scaled_pair(a: Mat2, b: Mat2):
    """Row-major 4-tuples of D*a and D*b, and the scale D.

    Exact pairs are scaled by the lcm D of their eight denominators, so
    the tuples hold ints; float pairs keep their floats, with D = 1.
    """
    if a.is_exact != b.is_exact:
        raise TypeError("matrix backends must match")
    values = [e.value for e in a.entries() + b.entries()]
    d, scaled = common_scale(values) if a.is_exact else (1, values)
    return tuple(scaled[:4]), tuple(scaled[4:]), d


def _times(f, p):
    """The row-major 4-tuple f @ p."""
    f11, f12, f21, f22 = f
    p11, p12, p21, p22 = p
    return (f11 * p11 + f12 * p21, f11 * p12 + f12 * p22,
            f21 * p11 + f22 * p21, f21 * p12 + f22 * p22)


def _box_caps(ta, tb, hi):
    """cap[m] for m = 0..hi: an int at least the largest box norm of a
    length-m product of the int tuples ta and tb.

    Exact for m <= 6, from all 126 of those products; beyond, the least
    cap[i] * cap[m - i], since the box norm is submultiplicative.
    """
    caps = [1]
    level = [(1, 0, 0, 1)]
    for m in range(1, min(hi, _CAP_DEPTH) + 1):
        level = [_times(f, p) for p in level for f in (ta, tb)]
        caps.append(max(max(abs(p[0]) + abs(p[1]), abs(p[2]) + abs(p[3])) for p in level))
    for m in range(len(caps), hi + 1):
        caps.append(min(caps[i] * caps[m - i] for i in range(1, m // 2 + 1)))
    return caps


def _suffix_sets(codes, lo, hi):
    """live[k] for k = 0..hi + 1: the length-k suffixes of codes[j] for
    j in max(k, lo)..hi, or empty sets if codes is None."""
    live = [set() for _ in range(hi + 2)]
    for k in range(hi, 0, -1):
        live[k] = {c & ((1 << k) - 1) for c in live[k + 1]}
        if codes is not None and k >= lo:
            live[k].update(codes[k])
    return live


def _walk(a, b, lo, hi, norm=None, norms=True, radii=True):
    """One depth-first walk of the suffix-product tree of (a, b) to depth hi.

    Scores the nodes at depths lo..hi: the norm of every node when `norms`
    is true (BoxNorm if `norm` is None, else norm.matrix_norm), and the
    rooted spectral radius of every necklace when `radii` is true.  Returns
    (rho, bars, visits), keyed by depth k: rho[k] is the largest norm at
    depth k to the power 1/k, bars[k] is (rho_bar, maximizers), and visits
    is the number of nodes formed.  A score that is not finite (float
    backend) or too large to convert to a float (exact backend) raises
    ValueError naming the least word length where one occurs.
    """
    ta, tb, d = _scaled_pair(a, b)
    dk = [d**k for k in range(2 * hi + 1)]
    if norm is None:
        leaf = None
    elif a.is_exact:
        def leaf(p, k):
            return norm.matrix_norm(Mat2(*(Scalar(Fraction(x, dk[k])) for x in p)))
    else:
        def leaf(p, k):
            return norm.matrix_norm(Mat2(*(Scalar(x) for x in p)))
    # Float products can overflow, and exact ones can outgrow the float
    # range of their scores.  The least depth where either happens is
    # raised after the walk.
    finite = None if a.is_exact else math.isfinite
    overflow = hi + 1
    # Exact box-norm walks prune: see the module docstring.
    prune = norms and leaf is None and finite is None
    expand_all = norms and not prune
    necklace = [set(c) for c in _necklace_codes(hi)] if radii else None
    # The suffixes of the scored necklaces, expanded whatever the norms say.
    live = None if expand_all else _suffix_sets(necklace, lo, hi)
    if prune:
        cap = _box_caps(ta, tb, hi)
        # A depth-i node with box norm v is grown iff v > thr[i], the least
        # over depths j in max(i + 1, lo)..hi of term[i][j]: -1 while
        # top[j] is unset, else top[j] // cap[j - i], or inf if cap[j - i]
        # is 0.  Each term only rises, as top[j] does.
        term = [
            [-1 if j >= max(i + 1, lo) else math.inf for j in range(hi + 1)]
            for i in range(hi + 1)
        ]
        thr = [min(row) for row in term]
    dets = elliptic = None
    if radii and finite is None:
        # det is multiplicative: a depth-k node with nb factors B has det
        # det(A)**(k - nb) * det(B)**nb.  When its eigenvalues are a
        # complex pair, its rooted radius depends on that det alone.
        da = ta[0] * ta[3] - ta[1] * ta[2]
        db = tb[0] * tb[3] - tb[1] * tb[2]
        dets = [[da ** (k - nb) * db**nb for nb in range(k + 1)] for k in range(hi + 1)]
        elliptic = [[None] * (k + 1) for k in range(hi + 1)]
    top = [None] * (hi + 1)
    scored = [[] for _ in range(hi + 1)]
    visits = 0
    a11, a12, a21, a22 = ta
    b11, b12, b21, b22 = tb
    # A node is (*product, depth k, code).  Its children apply one more
    # factor on the left, in the operation order of Mat2 @, and set bit k
    # of the code for B.
    stack = [(*tb, 1, 1), (*ta, 1, 0)]
    if not norms:
        stack = [node for node in stack if node[5] in live[1]]
    push, pop = stack.append, stack.pop
    while stack:
        p11, p12, p21, p22, k, code = pop()
        visits += 1
        if prune or norms and k >= lo:
            if leaf is None:
                # BoxNorm, inlined: the larger absolute row sum.
                r0, r1 = abs(p11) + abs(p12), abs(p21) + abs(p22)
                v = r0 if r0 >= r1 else r1
            else:
                v = leaf((p11, p12, p21, p22), k)
        if k >= lo:
            if norms:
                # Both row sums are checked: a nan row loses the comparison.
                if finite is not None and not (
                    finite(r0) and finite(r1) if leaf is None else finite(v)
                ):
                    overflow = min(overflow, k)
                best = top[k]
                if best is None or v > best:
                    top[k] = v
                    if prune:
                        for i in range(1, k):
                            c = cap[k - i]
                            row = term[i]
                            old, row[k] = row[k], v // c if c else math.inf
                            if old == thr[i]:
                                thr[i] = min(row)
            if radii and code in necklace[k]:
                # p is D**k times the product: trace scales by D**k, det
                # and discriminant by D**(2k).  The discriminant's sign is
                # decided before any rounding.
                t = p11 + p22
                if dets is None:
                    det = p11 * p22 - p12 * p21
                else:
                    nb = code.bit_count()
                    det = dets[k][nb]
                disc = t * t - 4 * det
                if finite is not None and not finite(disc):
                    # A finite disc gives a finite radius; any other
                    # leaves the radius inf or nan.
                    overflow = min(overflow, k)
                elif disc < 0 and elliptic is not None and elliptic[k][nb] is not None:
                    scored[k].append((elliptic[k][nb], code))
                else:
                    try:
                        r = matrix2.radius_from_invariants(
                            t / dk[k],
                            det / dk[2 * k],
                            disc / dk[2 * k] if disc >= 0 else None,
                        )
                    except OverflowError:
                        # An exact quotient too large for a float.
                        overflow = min(overflow, k)
                    else:
                        r **= 1.0 / k
                        if disc < 0 and elliptic is not None:
                            elliptic[k][nb] = r
                        scored[k].append((r, code))
            if k == hi:
                continue
        grow = expand_all or prune and v > thr[k]
        bcode = code | 1 << k
        if grow or bcode in live[k + 1]:
            push((b11 * p11 + b12 * p21, b11 * p12 + b12 * p22,
                  b21 * p11 + b22 * p21, b21 * p12 + b22 * p22, k + 1, bcode))
        if grow or code in live[k + 1]:
            push((a11 * p11 + a12 * p21, a11 * p12 + a12 * p22,
                  a21 * p11 + a22 * p21, a21 * p12 + a22 * p22, k + 1, code))
    rho, bars = {}, {}
    if norms:
        for k in range(lo, min(overflow, hi + 1)):
            try:
                # int / int rounds correctly, as float(Fraction) does.
                best = float(top[k] / dk[k] if leaf is None else top[k])
            except OverflowError:
                overflow = k
                break
            rho[k] = best ** (1.0 / k)
    if overflow <= hi:
        if finite is None:
            raise ValueError(
                f"exact products leave the float range at word length {overflow}: "
                "a norm, trace or determinant is too large for a float"
            )
        raise ValueError(
            f"float products overflow at word length {overflow}: "
            "a norm or spectral radius is not finite"
        )
    if radii:
        for k in range(lo, hi + 1):
            best = max(r for r, _ in scored[k])
            cut = best - _TIE_TOL * max(1.0, abs(best))
            codes = sorted(c for r, c in scored[k] if r >= cut)
            bars[k] = (best, tuple(Word.from_display(_display(c, k)) for c in codes))
    return rho, bars, visits


def rho_bar_n(a: Mat2, b: Mat2, n: int) -> BoundsRow:
    """Brute-force lower bound row: max of rooted spectral radii.

    The maximizer list holds every necklace whose rooted spectral radius is
    within a relative distance of 1e-9 of the maximum.
    """
    _check_cap(n)
    _, bars, _ = _walk(a, b, n, n, norms=False)
    best, maximizers = bars[n]
    return BoundsRow(n=n, rho_bar=best, rho=None, maximizers=maximizers)


def rho_n(a: Mat2, b: Mat2, n: int, norm=None) -> Scalar:
    """Upper bound over all 2**n words: max of norm(product)**(1/n).

    `norm` is any object with matrix_norm(Mat2) -> Scalar; defaults to the
    box norm.  The maximum itself is taken in the input backend (exact if
    the matrices are exact) and only the final root is floating point.
    """
    _check_cap(n)
    rho, _, _ = _walk(a, b, n, n, norm=norm, radii=False)
    return Scalar.flt(rho[n])


def bounds_table(a: Mat2, b: Mat2, n_max: int, norm=None) -> list[BoundsRow]:
    """Rows for n = 1..n_max with both bound columns filled, from one walk."""
    _check_cap(n_max)
    rho, bars, _ = _walk(a, b, 1, n_max, norm=norm)
    return [
        BoundsRow(n=n, rho_bar=bars[n][0], rho=rho[n], maximizers=bars[n][1])
        for n in range(1, n_max + 1)
    ]


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
