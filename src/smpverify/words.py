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

The box norm is the norm when `norm` is None or an object whose type is
exactly BoxNorm; the route is the same for both spellings.

Both backends take one route, on ints.  Every finite float is an exact
dyadic rational, so the eight entries of a float pair are read exactly,
as those of an exact pair are (matrix2.common_scale): the pair is scaled
by the lcm D of its entry denominators, a length-k product is an int
4-tuple standing for itself divided by D**k, and all arithmetic is on
Python ints.  A float pair's table is that of the exact pair of its
entries, bit for bit.  A pair with an entry that is not finite is
refused.

rho_n comes from a hull of images (_hull_tops), one routine for every
polygonal norm: the norm of M induced by a balanced convex polygon with
vertices +-u_i is the largest gauge of the points M u_i, and the gauge is
convex, so the largest norm of a length-k product is taken at a vertex of
the symmetric convex hull P_k of those points M u_i.  P_k is also the
symmetric hull of the images under A and B of the vertices of P_{k-1}.
This is the invariant-polytope iteration of Guglielmi and Protasov (Exact
computation of joint spectral characteristics of linear operators, FoCM
2013) with the norm read off each P_k.  P_k is kept as its lower chain, in
counterclockwise order, so from k = 2 on the lower chain of A P_{k-1} is a
run of its consecutive images (reversed when det A < 0) from the least,
and only the runs of A and B are sorted into P_k: 134 points at n = 11 on
the main pair at c = 233/224, against 220 images.  The box norm is the
polygon norm of the unit square: u in {(1, 1), (1, -1)}, and the gauge is
the largest |coordinate|; on the main pair at c = 11/10, P_k has at most
24 vertices up to k = 20.  A polygon norm comes through a _hull hook on
the norm's type (Polygon._hull), which gives its half-vertices and its
largest gauge, both exact (a float polygon's vertices read as dyadic
rationals), or None when that gauge is not a norm; so this module does
not import the polygon's.  rho_bar_n to n runs the prenecklace generator of
Fredricksen, Kessler and Maiorana, every prefix shorter than n - 1
carrying its product with one more factor on the right (the entries are
ints, so the association does not matter); a prefix of length n - 2
expands the last two lengths inline, each necklace among them formed only
as its trace, with one factor or with one of the four pair products AA,
AB, BA, BB, and a prefix of those lengths that is not a necklace not at
all.  At n = 11 on the main pair at c = 233/224 this forms 298 products
(4 of them the pair products), 296 traces and 110 hull points, against
4094 nodes of the full tree.  A hull image is one apply_entries, a
product one mul_entries and a trace of the last two lengths one
trace_entries, the kernels of matrix2.

Any other norm object, one without a usable hull (a wrapper around a
norm, a BoxNorm subclass, a polygon whose gauge is not a norm), is
scored by one depth-first walk of the tree of suffix products
(_walk_tree), on the same ints.  A node at depth k is the product of the
last k factors of a word, and its two children multiply one more factor
on the left; every node is expanded, and the walk keeps an explicit
stack, never a whole level of the tree.  Every node at a scored depth
gets one Mat2 in the pair's own backend, the Fraction x / D**k of each
entry x or that quotient correctly rounded to a float, and one
matrix_norm(Mat2) call; a necklace node gives its trace to the scoring
below.
rho_n to n, rho_bar_n to n and bounds_table to n_max are one walk each.

A node is named by an int code: A = 0, B = 1, with the leftmost display
symbol in the top bit, so for one length code order is the lexicographic
order of the display strings.  One run of the prenecklace generator fills
the set of necklace codes for every length up to the tree walk's depth.

Floats enter only at the end.  Each walk appends the |trace| (an int)
and code of every necklace straight to its group in the scoring
(_Scores), a list found by the necklace's length k and count nb of B,
with no call per necklace; the recursion's closure is deleted on return,
so no reference cycle keeps the groups alive.  The determinant is
multiplicative, so a table by k and nb gives it, built by running
products, and the necklaces are grouped by length and by the
determinant's int value: one group per length when det A = det B, as on
the main and alt pairs, two (by the parity of nb) when det A = -det B,
and one per count of B when the determinants are nonzero and differ in
absolute value.  Within a group the
spectral radius does not decrease as |trace| grows: it is sqrt(det) for a
complex eigenvalue pair (trace**2 < 4 det) and (|trace| + sqrt(disc)) / 2
otherwise.  So a group is ranked on exact ints, and floats are formed only
where the result can be read: the rooted radius of each group's largest
|trace|, which gives rho_bar_n and every overflow; then, in the groups
that reach the tie cut, the radii in decreasing |trace| until one falls
below the cut by more than rounding, the elliptic members all at once, as
they share one radius; a group whose largest |trace| is elliptic is taken
whole.  rho_bar_n at n = 11 on c = 251/236 forms 3 radii for its 188
necklaces, which make one group.  A radius forms determinant and
discriminant as ints, decides the discriminant's sign exactly, and then
divides by D**k or D**(2k) (matrix2.radius_of_ratios, which first scales
both by a power of two, so that no quotient leaves the float range where
the radius fits); int / int is correctly rounded, so every value matches
float() of the exact rational, or raises OverflowError when the radius is
too large for a float; the walk then raises ValueError naming the least
such word length.  The box norm, spelled None or BoxNorm(), is never called:
the hull compares ints.  The hull scores a length by an unreduced int
ratio, the largest |coordinate| over D**k or a polygon's largest gauge
(compared by cross-multiplication), and divides that pair, unreduced, into
one float per length.  A Word is built only for the maximizers, from its
code, all those of one length in one loop, and keeps the display string
it was built from, so formatting the table does not form it again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul, truediv

from .matrix2 import Mat2, apply_entries, common_scale, mul_entries, trace_entries
from .scalar import Record, Scalar, same_backend
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


class Word(Record):
    """A nonempty word over {A, B} in application order.

    The display form is computed once and kept, outside the fields, for
    the life of the word; a word built from a code gets it with its
    symbols.
    """

    __slots__ = ("symbols", "__dict__")

    def __init__(self, symbols: tuple[str, ...]):
        if len(symbols) == 0:
            raise ValueError("words must have length >= 1")
        if symbols.count("A") + symbols.count("B") != len(symbols):
            raise ValueError(f"symbols must be 'A' or 'B', got {symbols!r}")
        self._init(symbols)

    @classmethod
    def from_display(cls, text: str) -> "Word":
        """Build from the juxtaposition form, e.g. 'BAA' for B @ A @ A."""
        return cls(tuple(reversed(text)))

    @classmethod
    def _from_codes(cls, codes, n: int) -> list["Word"]:
        """The words of the length-n codes (see the module docstring), in
        their order, built unchecked: every code names a valid word."""
        new, set_symbols, top, built = cls.__new__, cls.symbols.__set__, 1 << n, []
        for code in codes:
            # The bit 2**n makes bin() give all n digits after "0b1".
            display = bin(code | top)[3:].translate(_BITS_TO_SYMBOLS)
            w = new(cls)
            set_symbols(w, tuple(display[::-1]))
            w.__dict__["display"] = display
            built.append(w)
        return built

    @cached_property
    def display(self) -> str:
        return "".join(reversed(self.symbols))

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return self.display


def evaluate(w: Word, a: Mat2, b: Mat2) -> Mat2:
    """The matrix product named by the word's display form."""
    same_backend(a, b)
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
    return Word._from_codes(_necklace_codes(n)[n], n)


_BITS_TO_SYMBOLS = str.maketrans("01", "AB")


def _display(code: int, n: int) -> str:
    """Display string of a length-n code."""
    return bin(code | 1 << n)[3:].translate(_BITS_TO_SYMBOLS)


def _prenecklaces(n_max, lists, lo=0, factors=None):
    """Run the recursive prenecklace generator of Fredricksen, Kessler and
    Maiorana to length n_max >= 1, appending each necklace of length k =
    lo..n_max straight to lists[k][nb], nb its count of B; returns the
    number of products it formed.

    With factors = (ta, tb) a necklace is appended as (|trace|, code), its
    group entry in _Scores; without, as its code.  Every prefix it visits
    is a prenecklace, and one of length k with period p is a necklace iff
    p divides k.  It visits the prefixes of each length in lexicographic
    order, which is code order.  With factors, each prefix shorter than
    n_max - 1 carries its product: the empty prefix the identity, and one
    a symbol longer one mul_entries with the symbol's factor on the right;
    a necklace's trace is read off its product.  A prefix of length
    n_max - 2 expands its children and grandchildren inline: each necklace
    among them is formed only as its trace, one trace_entries of the
    prefix's product and its last factor or, for a grandchild, one of the
    four pair products AA, AB, BA, BB, formed once.  No product of length
    n_max - 1 is formed, and a prefix of the last two lengths that is not a
    necklace is not formed at all.  For n_max = 1 the empty prefix expands
    its children alone, and no pair product is formed.

    The recursion is a closure that calls itself, a reference cycle that
    holds `lists`; it is broken on return, so the lists are freed by
    reference counting, without waiting for a cyclic collection.
    """
    a = [0] * (n_max + 1)
    formed = 0
    if factors and n_max > 1:
        pairs = [[mul_entries(x, y) for y in factors] for x in factors]
        formed = 4

    def gen(t: int, p: int, code: int, nb: int, product) -> None:
        # a[1..t-1] is a prenecklace with period p, code encodes it, nb
        # counts its B, and product is its product.
        nonlocal formed
        if (t - 1) % p == 0 and t > lo:
            lists[t - 1][nb].append((abs(product[0] + product[3]), code) if factors else code)
        bit = a[t] = a[t - p]
        code *= 2
        if t < n_max - 1:
            formed += 2 - bit
            gen(t + 1, p, code + bit, nb + bit, factors and mul_entries(product, factors[bit]))
            if bit == 0:
                a[t] = 1
                gen(t + 1, t, code + 1, nb + 1, factors and mul_entries(product, factors[1]))
            return
        # The children have length t and period q: the first p, a
        # necklace iff p divides t, and the second t, always a necklace.
        for c, q in ((0, p), (1, t)) if bit == 0 else ((1, p),):
            a[t] = c
            child = code + c
            if t % q == 0 and t >= lo:
                lists[t][nb + c].append(
                    (abs(trace_entries(product, factors[c])), child) if factors else child
                )
            if t == n_max:
                continue
            # Its children have length n_max: the first, with period q,
            # is a necklace iff q divides n_max, and the second always is.
            g, child = a[n_max - q], 2 * child
            if n_max % q == 0:
                lists[n_max][nb + c + g].append(
                    (abs(trace_entries(product, pairs[c][g])), child + g) if factors else child + g
                )
            if g == 0:
                lists[n_max][nb + c + 1].append(
                    (abs(trace_entries(product, pairs[c][1])), child + 1) if factors else child + 1
                )

    gen(1, 1, 0, 0, factors and (1, 0, 0, 1))
    del gen
    return formed


def _necklace_codes(n_max: int) -> list[list[int]]:
    """Codes of the necklaces of each length k = 0..n_max, ascending."""
    codes: list[list[int]] = [[] for _ in range(n_max + 1)]
    # Every count of B of one length appends to that length's list.
    _prenecklaces(n_max, [[c] * (k + 1) for k, c in enumerate(codes)])
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
        # A nan row sum loses every comparison, so it is picked out.
        return r1 if r1 > r0 or r1 != r1 else r0


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > DEFAULT_WORD_CAP:
        raise ValueError(f"word length {n} exceeds cap {DEFAULT_WORD_CAP}")


def _half_hull(points):
    """One vertex of each opposite pair of the convex hull of `points`.

    `points` is a sorted list of int pairs, repeats allowed, that holds the
    lower hull of a set closed under negation: its first point p is the
    lexicographically least and its last -p the greatest, so the lower hull
    runs from p to -p, and the upper hull is its negation.  Returns the
    lower hull without -p: empty when p is 0, [p] when the points are
    collinear.
    """
    chain = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (px, py) = chain[-2], chain[-1]
            if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append((x, y))
    # A chain that ends where it starts holds only 0, or nothing.
    return chain[:-1] if chain[:1] != chain[-1:] else []


# The box norm is the polygon norm of the unit square: its half-vertices,
# and the score of a hull level over f = D**k, the largest |coordinate|.
_SQUARE = ([(1, 1), (1, -1)], lambda half, f: (max(max(abs(x), abs(y)) for x, y in half), f))


def _hull_tops(ta, tb, half, score, d, hi):
    """(tops, images): tops[k] for k = 0..hi is the largest norm of a
    length-k product of the int tuples ta and tb, and images is the number
    of points formed.

    The norm is that of a balanced polygon with half-vertices `half` (int
    points).  tops[k] is score(V_k, D**k), an unreduced (num, den): the
    largest gauge over V_k, which holds one vertex of each opposite pair of
    P_k, the symmetric convex hull of A V_{k-1}, B V_{k-1} and their
    negations, with V_0 = half: see the module docstring.  tops[0] is
    (1, 1), the identity's, and an empty V_k (every image 0) scores (0, 1).

    From k = 2 on, V_{k-1} (h points) is _half_hull's strictly convex
    lower chain, in counterclockwise order, so the images M V_{k-1},
    -M V_{k-1} are the counterclockwise vertex cycle of M P_{k-1}
    (clockwise when det M < 0), and the lower chain of M P_{k-1} is the
    h + 1 entries of that cycle from its least point on: only these chains
    are sorted, 2h + 2 points.  Every image is sorted at the seed level,
    whose order is not known, when det M = 0, which makes the images
    collinear, and when V_{k-1} is empty.
    """
    tops, images = [(1, 1)], 0
    dets = [t[0] * t[3] - t[1] * t[2] for t in (ta, tb)]
    for k in range(1, hi + 1):
        h, points = len(half), []
        for t, det in zip((ta, tb), dets):
            ring = [apply_entries(t, u) for u in half]
            ring += [(-x, -y) for x, y in ring]
            if k > 1 and det and h:
                ring = (ring[::-1] if det < 0 else ring) * 2
                i = ring.index(min(ring))
                ring = ring[i : i + h + 1]
            points += ring
        images += 2 * h
        half = _half_hull(sorted(points))
        tops.append(score(half, d**k) if half else (0, 1))
    return tops, images


def _powers(x, n):
    """[x**0, x**1, ..., x**n], by running products."""
    return list(accumulate(repeat(x, n), mul, initial=1))


def _descending(group):
    """The (|trace|, code) members of a group in decreasing order.  A scan
    seldom passes the first eight, so the rest are sorted only when it
    does."""
    # Imported here: certify imports this module and never scans a group.
    import heapq

    yield from heapq.nlargest(8, group)
    yield from sorted(group, reverse=True)[8:]


class _Scores:
    """The scores of one walk by word length k = lo..hi, and what they
    become: see the module docstring.

    top[k] is the largest norm at length k: the hull's score (num, den)
    divided as ints, or the value of norm.matrix_norm.  A walk keeps each
    necklace's (|trace|, code) in its group by appending it to
    lists[k][nb]: the group is the necklaces of one length and one
    determinant, keyed by the determinant's int value, so a pair with
    det A = det B has one group per length, and lists[k][nb] is the group
    of the count nb of B.  overflow is the least length whose score is
    too large for a float (inf or nan, for a float norm object).
    """

    def __init__(self, ta, tb, d, lo, hi, radii):
        self.lo, self.hi = lo, hi
        self.dk = _powers(d, 2 * hi)
        self.top = [None] * (hi + 1)
        self.overflow = hi + 1
        if radii:
            # det is multiplicative: a length-k product with nb factors B
            # has det det(A)**(k - nb) * det(B)**nb.
            da = _powers(ta[0] * ta[3] - ta[1] * ta[2], hi)
            db = _powers(tb[0] * tb[3] - tb[1] * tb[2], hi)
            dets = [[da[k - nb] * db[nb] for nb in range(k + 1)] for k in range(hi + 1)]
            # groups[k][det]: (|trace|, code) of each kept necklace;
            # lists[k][nb] is the list of those with nb factors B.
            self.groups = [{} for _ in dets]
            self.lists = [[g.setdefault(x, []) for x in row] for g, row in zip(self.groups, dets)]

    def rooted(self, k, det, t):
        """The rooted spectral radius of a necklace of length k with
        determinant det and |trace| t, or OverflowError when the radius is
        too large for a float."""
        # t and det are D**k and D**(2k) times the product's; the radius
        # depends on |trace| alone.
        dk = self.dk
        return matrix2.radius_of_ratios(t, det, dk[k], dk[2 * k]) ** (1.0 / k)

    def bar(self, k, tops):
        """(rho_bar, maximizers) at length k; tops holds (r, det, t) for
        each group of length k: its determinant, its largest |trace| t and
        the rooted radius r of t.

        Within a group the radius does not decrease as |trace| grows, so a
        group is scanned in decreasing |trace| until a radius falls below
        the cut by more than the rounding of the radius and its root; the
        members left are below the cut.  The elliptic members (trace**2 <
        4 det) come last and share one radius, sqrt(det)**(1/k); a group
        whose top is elliptic is all elliptic, and is taken whole, without
        sorting.  The maximum and the cut are then those of every
        necklace's radius.
        """
        best = max(r for r, _, _ in tops)
        cut = best - _TIE_TOL * max(1.0, abs(best))
        # Each step of the radius formula is a correctly rounded operation,
        # so the radius does not decrease with |trace|; the root can break
        # that order by about an ulp, and an elliptic radius can lie an ulp
        # above a real one of its group.  Four ulps below the cut leave
        # every smaller |trace| of the group below the cut.
        stop = cut - 4 * math.ulp(cut)
        scanned = []
        for r, det, top in tops:
            if r < stop:
                continue
            group, det4 = self.groups[k][det], 4 * det
            for i, (t, code) in enumerate(_descending(group) if top * top >= det4 else group):
                if i:
                    r = self.rooted(k, det, t)
                if t * t < det4:
                    # The members left are the group's elliptic ones; at
                    # i = 0 the group is all elliptic.
                    if r >= stop:
                        scanned += [(r, c) for u, c in group if not i or u * u < det4]
                    break
                scanned.append((r, code))
                if r < stop:
                    break
        best = max(r for r, _ in scanned)
        cut = best - _TIE_TOL * max(1.0, abs(best))
        codes = sorted(c for r, c in scanned if r >= cut)
        return best, tuple(Word._from_codes(codes, k))

    def result(self, norms, radii):
        """(rho, bars) keyed by length, or ValueError at the least overflow."""
        lo, hi = self.lo, self.hi
        rho, bars, tops = {}, {}, {}
        overflow = self.overflow
        if radii:
            # A group's largest |trace| overflows if any member does.
            for k in range(lo, min(overflow, hi + 1)):
                try:
                    tops[k] = [
                        (self.rooted(k, det, t), det, t)
                        for det, g in self.groups[k].items()
                        for t in [max(g)[0]]
                    ]
                except OverflowError:
                    overflow = k
                    break
        if norms:
            for k in range(lo, min(overflow, hi + 1)):
                try:
                    best = float(self.top[k])
                except OverflowError:
                    best = math.inf
                # A float norm object's score past the float range is inf.
                if not best < math.inf:
                    overflow = k
                    break
                rho[k] = best ** (1.0 / k)
        if overflow <= hi:
            raise ValueError(
                f"exact products leave the float range at word length {overflow}: "
                "a norm or spectral radius is too large for a float"
            )
        for k in tops:
            bars[k] = self.bar(k, tops[k])
        return rho, bars


def _walk_tree(ta, tb, scores, leaf, radii):
    """One depth-first walk of the suffix-product tree of the int tuples
    (ta, tb) to depth hi; fills scores.

    Scores the nodes at depths lo..hi: leaf(p, k), the norm of every
    node, and every necklace's |trace|, appended to its group, when
    `radii` is true.  Every node to depth hi is expanded.  A leaf that raises
    OverflowError (a product too large for a float) marks an overflow.
    """
    lo, hi, top = scores.lo, scores.hi, scores.top
    necklace = [set(c) for c in _necklace_codes(hi)] if radii else None
    # A node is (product, depth k, code).  Its children apply one more
    # factor on the left and set bit k of the code for B.
    stack = [(tb, 1, 1), (ta, 1, 0)]
    while stack:
        p, k, code = stack.pop()
        if k >= lo:
            try:
                v = leaf(p, k)
                if top[k] is None or v > top[k]:
                    top[k] = v
            except OverflowError:
                scores.overflow = min(scores.overflow, k)
            if radii and code in necklace[k]:
                scores.lists[k][code.bit_count()].append((abs(p[0] + p[3]), code))
            if k == hi:
                continue
        stack.append((mul_entries(tb, p), k + 1, code | 1 << k))
        stack.append((mul_entries(ta, p), k + 1, code))


def _walk(a, b, lo, hi, norm=None, norms=True, radii=True):
    """The scores of the products of (a, b) at word lengths lo..hi.

    Scores the norm of every product when `norms` is true (the box norm if
    `norm` is None or of type BoxNorm, else norm.matrix_norm), and the
    rooted spectral radius of every necklace when `radii` is true.  Returns
    (rho, bars, visits), keyed by length k: rho[k] is the largest norm at
    length k to the power 1/k, bars[k] is (rho_bar, maximizers), and visits
    is the number of products, traces and hull points formed.  A
    score too large to convert to a float raises ValueError naming the
    least word length where one occurs; so does a pair with an entry that
    is not finite.
    """
    if type(norm) is BoxNorm:
        norm = None
    # Any norm but the box norm takes the hull only through a _hull hook on
    # its type, which gives (half, score) or None (Polygon._hull); wrappers
    # and BoxNorm subclasses have none.  A hooked norm is a polygon, with
    # a backend of its own.
    hook = getattr(type(norm), "_hull", None)
    exact = same_backend(a, b, *([norm] if hook else []))
    entries = (*a._values(), *b._values())
    for x in entries:
        # A comparison, not math.isfinite, which rounds a Fraction to a
        # float and so overflows past the float range.
        if not -math.inf < x < math.inf:
            raise ValueError(f"the pair's entries must be finite, got {x!r}")
    d, flat = common_scale(entries)
    ta, tb = tuple(flat[:4]), tuple(flat[4:])
    scores = _Scores(ta, tb, d, lo, hi, radii)
    hull = _SQUARE if norm is None else hook and hook(norm)
    if hull is not None:
        visits = 0
        if norms:
            tops, visits = _hull_tops(ta, tb, *hull, d, hi)
            try:
                for k in range(lo, hi + 1):
                    # int / int rounds as float() of the reduced Fraction
                    # would, with no gcd.
                    scores.top[k] = tops[k][0] / tops[k][1]
            except OverflowError:
                scores.overflow = k
        if radii:
            # Each necklace of the last two lengths is formed as one trace.
            visits += _prenecklaces(hi, scores.lists, lo, (ta, tb)) + sum(
                len(g) for k in range(max(lo, hi - 1), hi + 1) for g in scores.groups[k].values()
            )
    else:
        # The norm object sees each product in the pair's backend: the
        # Fraction x / D**k, or that quotient correctly rounded to a float.
        dk, unscale = scores.dk, Fraction if exact else truediv

        def leaf(p, k):
            return norm.matrix_norm(Mat2(*(Scalar(unscale(x, dk[k])) for x in p)))

        _walk_tree(ta, tb, scores, leaf, radii)
        visits = 2 ** (hi + 1) - 2
    rho, bars = scores.result(norms, radii)
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
    box norm.  None, an object of type exactly BoxNorm and a Polygon whose
    gauge, read exactly, is a norm take the hull; any other object, a
    BoxNorm subclass or wrapper included, is called once per word of the
    full tree, on the product in the pair's own backend.  Products are
    formed exactly, on the pair's entries read as rationals, and only the
    final root is floating point.
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


_BOUNDS_HEADER = ("n", "rho_bar_n", "rho_n", "maximizers")


def _bounds_cells(row: BoundsRow) -> tuple[str, str, str, str]:
    """The cells of a row: n, the reprs of the bounds (rho blank when it is
    None) and the ;-joined maximizers."""
    rho = "" if row.rho is None else repr(row.rho)
    return (str(row.n), repr(row.rho_bar), rho, ";".join(w.display for w in row.maximizers))


def format_bounds_text(rows) -> str:
    return "\n".join(
        f"{n:>3}  {bar:<22}  {rho:<22}  {names}"
        for n, bar, rho, names in [_BOUNDS_HEADER, *map(_bounds_cells, rows)]
    )


def format_bounds_csv(rows) -> str:
    return "\n".join(",".join(cells) for cells in [_BOUNDS_HEADER, *map(_bounds_cells, rows)])
