"""Swap-similarity machinery for 2x2 matrix pairs.

A pair {A, B} is swap-permutable when a single similarity conjugation
exchanges the two matrices.  For irreducible pairs this reduces to a
trace/determinant test (the five traces tr A, tr A^2, tr B, tr B^2, tr AB
are a complete invariant of simultaneous similarity in dimension 2), and
permutability forces every odd-length product to share its spectrum with
a product that has a different number of A-factors: swap_partner names
the cyclic class of that product, so a spectrum maximizing product of odd
length brings a second class with it.

The swap test verify_tau has one body for both backends.  It forms the
residuals a S - S b and b S - S a exactly, on ints over one common
denominator (matrix2.common_scale): a float is a dyadic rational, so it
scales to an int exactly, as a Fraction does, and no product rounds.  An exact pair must
have zero residuals; a float pair residuals small enough, against
|det S|, that the conjugation errors S^-1 a S - b and S^-1 b S - a are
within rel_tol at the scale of the pair, however ill-conditioned S is.
The backend decides only the tolerance, 0 on ints.  It never forms
S^-1; TauMap.apply and matrix2.similarity stay as the conjugation
itself.

Irreducibility (no common real invariant line) is the one reducibility
test of the package.  On exact pairs it is the 2x2 invariant criterion:
two 2x2 matrices share an eigenvector iff det(AB - BA) = 0 (Shemesh,
"Common eigenvectors of two matrices", Linear Algebra Appl. 62, 1984),
and a matrix with non-real spectrum has no real one.  On float pairs it
compares eigendirections within the tolerance, on the float tuples of
matrix2.scaled_entries: each real eigendirection comes from
matrix2.robust_row, the row rule of the package's one eigenvector routine
(matrix2.unit_first_vector), and its image from apply_entries.
"""

from __future__ import annotations

import math

from .matrix2 import (
    Mat2,
    apply_entries,
    common_scale,
    mul_entries,
    robust_row,
    scaled_entries,
    similarity,
)
from .scalar import REL_TOL, Record, same_backend
from .words import Word, cyclic_normal_form

__all__ = [
    "TauMap",
    "ReducibleSetError",
    "is_irreducible",
    "friedland_5tuple",
    "friedland_permutable",
    "verify_tau",
    "tau_word",
    "swap_partner",
]


class ReducibleSetError(ValueError):
    """The trace/determinant permutability criterion needs irreducibility."""


class TauMap(Record):
    """The conjugation x -> s^-1 @ x @ s for a fixed invertible s."""

    __slots__ = ("s",)

    def __init__(self, s: Mat2):
        self._init(s)

    def apply(self, x: Mat2) -> Mat2:
        return similarity(self.s, x)


def _float_real_eigendirections(m: tuple, tol: float):
    """Directions of real eigenvectors of the float row-major 4-tuple m;
    None if m is (near) scalar."""
    m11, m12, m21, m22 = m
    # (m11 - m22)^2 + 4 m12 m21 rather than tr^2 - 4 det, which cancels to 0
    # in floats when the two eigenvalues nearly coincide.
    diff = m11 - m22
    disc = diff * diff + 4 * m12 * m21
    scale = max(abs(e) for e in m) or 1.0
    if abs(m12) <= tol * scale and abs(m21) <= tol * scale and abs(diff) <= tol * scale:
        return None
    if disc < 0:
        return []
    tf = m11 + m22
    r = math.sqrt(max(disc, 0.0))
    rows = (robust_row(m, lam) for lam in ((tf + r) / 2, (tf - r) / 2))
    return [(b, -a) for a, b in rows]


def _float_direction_invariant(m: tuple, u: tuple, tol: float) -> bool:
    v1, v2 = apply_entries(m, u)
    cross = v1 * u[1] - v2 * u[0]
    return abs(cross) <= tol * math.hypot(v1, v2) * math.hypot(*u)


def is_irreducible(a: Mat2, b: Mat2, rel_tol: float = REL_TOL) -> bool:
    """True iff a and b share no common real eigendirection.

    Exact matrices get an exact answer: irreducible if either has non-real
    spectrum, else iff det(ab - ba) != 0, where ab - ba = [[p, q], [r, -p]]
    has determinant -(p^2 + q*r).  Float matrices compare eigendirections
    with the residual tolerance rel_tol.
    """
    if same_backend(a, b):
        a11, a12, a21, a22 = (e.value for e in a.entries())
        b11, b12, b21, b22 = (e.value for e in b.entries())
        if (a11 - a22) ** 2 + 4 * a12 * a21 < 0 or (b11 - b22) ** 2 + 4 * b12 * b21 < 0:
            return True
        p = a12 * b21 - a21 * b12
        q = (a11 - a22) * b12 - (b11 - b22) * a12
        r = (a22 - a11) * b21 - (b22 - b11) * a21
        return p * p + q * r != 0
    _, (ai, bi) = scaled_entries((a, b))
    dirs_a = _float_real_eigendirections(ai, rel_tol)
    if dirs_a is None:
        return _float_real_eigendirections(bi, rel_tol) == []
    return not any(_float_direction_invariant(bi, u, rel_tol) for u in dirs_a)


def friedland_5tuple(a: Mat2, b: Mat2):
    """(tr a, tr a^2, tr b, tr b^2, tr ab) - the similarity invariants."""
    return (
        a.trace(),
        (a @ a).trace(),
        b.trace(),
        (b @ b).trace(),
        (a @ b).trace(),
    )


def friedland_permutable(a: Mat2, b: Mat2, rel_tol: float = REL_TOL) -> bool:
    """Trace/determinant permutability test for an irreducible pair.

    An exact pair compares with ==.  A float pair compares at its own
    scale m, the largest |entry| of the pair: traces within rel_tol m and
    determinants within rel_tol m**2, so the verdict does not change when
    the pair is scaled.
    """
    if a == b:
        raise ValueError("the pair must consist of two distinct matrices")
    if not is_irreducible(a, b, rel_tol):
        raise ReducibleSetError(
            "criterion inapplicable: the pair has a common invariant line"
        )
    m = 0 if same_backend(a, b) else max(map(abs, a._values() + b._values()))
    tol = rel_tol * m
    return abs((a.trace() - b.trace()).value) <= tol and abs((a.det() - b.det()).value) <= tol * m


def verify_tau(a: Mat2, b: Mat2, tau: TauMap, rel_tol: float = REL_TOL) -> bool:
    """Check the swap identities tau(a) == b and tau(b) == a; a singular s fails.

    One body for both backends, on the ints F a, F b and F S over the lcm
    F of the denominators of all twelve entries (matrix2.common_scale; a
    float is a dyadic rational, taken exactly): det S != 0, and the
    residuals R = a S - S b and b S - S a, formed without rounding, satisfy
    2 max|R| max|S| <= t |det S| max(F, max|F a|, max|F b|), with t = 0
    on an exact pair and t = rel_tol on a float one.  Exactly, then, R = 0,
    which for an invertible S is S^-1 a S == b and S^-1 b S == a with no
    inverse formed.  On floats, since S^-1 R = adj(S) R / det S, a pass
    bounds every entry of S^-1 a S - b and S^-1 b S - a by
    rel_tol max(1, |a|, |b|), |.| the largest |entry|, at any scale and
    conditioning of S.  An ill-conditioned S makes the test stricter, not
    looser: the float pair must then be accurate beyond its own rounding.
    A float pair with a non-finite entry fails.
    """
    exact = same_backend(a, b, tau.s)
    try:
        f, values = common_scale([x for m in (a, b, tau.s) for x in m._values()])
    except (OverflowError, ValueError):  # a float inf or nan
        return False
    ai, bi, si = values[:4], values[4:8], values[8:]
    det = abs(si[0] * si[3] - si[1] * si[2])
    left = mul_entries(ai, si) + mul_entries(bi, si)
    residual = max(abs(x - y) for x, y in zip(left, mul_entries(si, bi) + mul_entries(si, ai)))
    p, q = (0, 1) if exact else float(rel_tol).as_integer_ratio()
    bound = p * det * max(f, *map(abs, ai + bi))
    return det != 0 and 2 * q * residual * max(map(abs, si)) <= bound


def tau_word(w: Word) -> Word:
    """The word with every A and B exchanged, order preserved."""
    swap = {"A": "B", "B": "A"}
    return Word(tuple(swap[s] for s in w.symbols))


def swap_partner(w: Word) -> Word | None:
    """The cyclic class that the swap pairs with w's, as its normal form;
    None when the swap maps w's class to itself.

    For a pair that tau swaps, tau(evaluate(w)) == evaluate(tau_word(w)),
    so the two products are similar and share their spectrum.  An odd word
    has unequal factor counts, which the swap exchanges, so its partner is
    always another class; an even word such as AB or AABB may have none.
    """
    partner = cyclic_normal_form(tau_word(w))
    return None if partner == cyclic_normal_form(w) else partner
