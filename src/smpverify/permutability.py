"""Swap-similarity machinery for 2x2 matrix pairs.

A pair {A, B} is swap-permutable when a single similarity conjugation
exchanges the two matrices.  For irreducible pairs this reduces to a
trace/determinant test (the five traces tr A, tr A^2, tr B, tr B^2, tr AB
are a complete invariant of simultaneous similarity in dimension 2), and
permutability forces every odd-length product to share its spectrum with
a product that has a different number of A-factors.

Irreducibility (no common real invariant line) is the one reducibility
test of the package.  On exact pairs it is the 2x2 invariant criterion:
two 2x2 matrices share an eigenvector iff det(AB - BA) = 0 (Shemesh,
"Common eigenvectors of two matrices", Linear Algebra Appl. 62, 1984),
and a matrix with non-real spectrum has no real one.
"""

from __future__ import annotations

import math

from .matrix2 import Mat2, Vec2, similarity
from .scalar import REL_TOL, Record, Scalar
from .words import Word, cyclic_normal_form, evaluate, factor_counts

__all__ = [
    "TauMap",
    "ReducibleSetError",
    "SwapSpectrumReport",
    "is_irreducible",
    "friedland_5tuple",
    "friedland_permutable",
    "verify_tau",
    "tau_word",
    "swap_spectrum_check",
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


def _float_real_eigendirections(m: Mat2, tol: float):
    """Directions of real eigenvectors; None if m is (near) scalar."""
    # (m11 - m22)^2 + 4 m12 m21 rather than tr^2 - 4 det, which cancels to 0
    # in floats when the two eigenvalues nearly coincide.
    diff = m.m11 - m.m22
    disc = float(diff * diff + 4 * m.m12 * m.m21)
    scale = max(abs(float(e)) for e in m.entries()) or 1.0
    if (
        abs(float(m.m12)) <= tol * scale
        and abs(float(m.m21)) <= tol * scale
        and abs(float(m.m11 - m.m22)) <= tol * scale
    ):
        return None
    if disc < 0:
        return []
    tf = float(m.trace())
    r = math.sqrt(max(disc, 0.0))
    dirs = []
    for lf in ((tf + r) / 2, (tf - r) / 2):
        lam = Scalar.flt(lf)
        rows = ((m.m11 - lam, m.m12), (m.m21, m.m22 - lam))
        row = max(rows, key=lambda rw: abs(float(rw[0])) + abs(float(rw[1])))
        dirs.append(Vec2(row[1], -row[0]))
    return dirs


def _float_direction_invariant(m: Mat2, u: Vec2, tol: float) -> bool:
    v = m @ u
    cross = float(v.x1 * u.x2 - v.x2 * u.x1)
    scale = math.hypot(float(v.x1), float(v.x2)) * math.hypot(
        float(u.x1), float(u.x2)
    )
    return abs(cross) <= tol * max(1.0, scale)


def is_irreducible(a: Mat2, b: Mat2, rel_tol: float = REL_TOL) -> bool:
    """True iff a and b share no common real eigendirection.

    Exact matrices get an exact answer: irreducible if either has non-real
    spectrum, else iff det(ab - ba) != 0, where ab - ba = [[p, q], [r, -p]]
    has determinant -(p^2 + q*r).  Float matrices compare eigendirections
    with the residual tolerance rel_tol.
    """
    if a.is_exact != b.is_exact:
        raise TypeError("matrix backends must match")
    if a.is_exact:
        a11, a12, a21, a22 = (e.value for e in a.entries())
        b11, b12, b21, b22 = (e.value for e in b.entries())
        if (a11 - a22) ** 2 + 4 * a12 * a21 < 0 or (b11 - b22) ** 2 + 4 * b12 * b21 < 0:
            return True
        p = a12 * b21 - a21 * b12
        q = (a11 - a22) * b12 - (b11 - b22) * a12
        r = (a22 - a11) * b21 - (b22 - b11) * a21
        return p * p + q * r != 0
    dirs_a = _float_real_eigendirections(a, rel_tol)
    if dirs_a is None:
        dirs_b = _float_real_eigendirections(b, rel_tol)
        return dirs_b is not None and len(dirs_b) == 0
    if not dirs_a:
        return True
    return not any(_float_direction_invariant(b, u, rel_tol) for u in dirs_a)


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
    """Trace/determinant permutability test for an irreducible pair."""
    if a == b:
        raise ValueError("the pair must consist of two distinct matrices")
    if not is_irreducible(a, b, rel_tol):
        raise ReducibleSetError(
            "criterion inapplicable: the pair has a common invariant line"
        )
    return a.trace().isclose(b.trace(), rel_tol) and a.det().isclose(
        b.det(), rel_tol
    )


def verify_tau(a: Mat2, b: Mat2, tau: TauMap, rel_tol: float = REL_TOL) -> bool:
    """Check the swap identities tau(a) == b and tau(b) == a."""
    return tau.apply(a).isclose(b, rel_tol) and tau.apply(b).isclose(a, rel_tol)


def tau_word(w: Word) -> Word:
    """The word with every A and B exchanged, order preserved."""
    swap = {"A": "B", "B": "A"}
    return Word(tuple(swap[s] for s in w.symbols))


class SwapSpectrumReport(Record):
    """Spectrum and factor-count comparison of a product and its swap image."""

    __slots__ = (
        "word", "image_word", "trace_equal", "det_equal", "counts", "image_counts",
        "odd_length", "counts_differ", "normal_forms_distinct",
    )

    def __init__(
        self, word: Word, image_word: Word, trace_equal: bool, det_equal: bool,
        counts: tuple[int, int], image_counts: tuple[int, int], odd_length: bool,
        counts_differ: bool | None, normal_forms_distinct: bool | None,
    ):
        self._init(
            word, image_word, trace_equal, det_equal, counts, image_counts,
            odd_length, counts_differ, normal_forms_distinct,
        )

    @property
    def passed(self) -> bool:
        ok = self.trace_equal and self.det_equal
        if self.odd_length:
            ok = ok and bool(self.counts_differ) and bool(self.normal_forms_distinct)
        return ok


def swap_spectrum_check(
    a: Mat2, b: Mat2, tau: TauMap, w: Word, rel_tol: float = REL_TOL
) -> SwapSpectrumReport:
    """Compare a word's product with its swap image's product.

    Requires the swap identities to hold for tau; checks isospectrality
    (trace and determinant) and, for odd lengths, that the factor counts
    and the cyclic classes differ.
    """
    if not verify_tau(a, b, tau, rel_tol):
        raise ValueError("tau does not swap the pair")
    iw = tau_word(w)
    m = evaluate(w, a, b)
    tm = evaluate(iw, a, b)
    trace_equal = m.trace().isclose(tm.trace(), rel_tol)
    det_equal = m.det().isclose(tm.det(), rel_tol)
    counts = factor_counts(w)
    image_counts = factor_counts(iw)
    odd = len(w) % 2 == 1
    counts_differ = counts != image_counts if odd else None
    distinct = (
        cyclic_normal_form(w).display != cyclic_normal_form(iw).display
        if odd
        else None
    )
    return SwapSpectrumReport(
        word=w,
        image_word=iw,
        trace_equal=trace_equal,
        det_equal=det_equal,
        counts=counts,
        image_counts=image_counts,
        odd_length=odd,
        counts_differ=counts_differ,
        normal_forms_distinct=distinct,
    )
