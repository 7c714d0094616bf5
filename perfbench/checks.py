"""Independent checks of smpverify's outputs.

Nothing here imports smpverify.  Each check recomputes the expected
answer from the paper's definitions:

* exact certificates: the closed-form admissible interval
  c^2 <= mu <= (k^2+1)^2/(k^4+k^2+1), k = c^3, in Fraction arithmetic;
* float certificates: a numpy rebuild of the twelve-vertex polygon, tested
  for clockwise order, convexity and the inclusion of all 24 images by
  edge half-planes;
* growth bounds: an enumeration of all words up to length n over integer
  matrices (the pair scaled by its common denominator).

Only the parent process imports this module, so numpy never enters the
address space whose peak resident size is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# phi = 2pi/3: cos = -1/2, sin = sqrt(3)/2.
_COS = -0.5
_SIN = math.sqrt(3.0) / 2.0

# Relative slack for the half-plane tests.  Eight images land exactly on
# vertices by construction, so their slack is zero up to rounding; every
# verdict-deciding inequality keeps a far larger margin (see workloads.py).
_GEOM_TOL = 1e-9

# Relative agreement required between a printed float and its recomputation.
FLOAT_REL = 1e-12


def exact_interval(c: Fraction) -> tuple[Fraction, Fraction]:
    """[mu1, mu2] of the zero-corner family at kappa = c**3."""
    k = c**3
    return c * c, (k * k + 1) ** 2 / (k**4 + k * k + 1)


def exact_expected(c: Fraction, mu: Fraction) -> bool:
    mu1, mu2 = exact_interval(c)
    return mu1 <= mu <= mu2


def exact_convex_interval(c: Fraction) -> tuple[Fraction, Fraction]:
    """The mu range where the twelve-gon is convex, from the four distinct
    convexity levels h1, h2, h3, h6 >= 1; it contains [mu1, mu2]."""
    k2 = c**6
    k4 = k2 * k2
    c2, c4, c8 = c**2, c**4, c**8
    lo = max((k2 + 1) / (c4 + 1), c2 * (k2 + 1) / (c8 + 1))
    hi = min((k2 + 1) * (k2 + c2), (k2 + 1) * (c8 + 1)) / (k4 + k2 + 1)
    return lo, hi


# -- float rebuild -----------------------------------------------------------


def float_pair(family: str, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    k = kappa
    if family == "alt":
        a = np.array([[_COS, -_SIN / k], [k * _SIN, _COS]])
        b = np.array([[_COS, -k * _SIN], [_SIN / k, _COS]])
    elif family == "main":
        a = np.array([[0.0, -1.0 / k], [k, 2.0 * _COS]])
        b = np.array([[0.0, -k], [1.0 / k, 2.0 * _COS]])
    else:
        raise ValueError(f"unknown family {family!r}")
    return a, b


def _fixed_vector(m: np.ndarray) -> np.ndarray:
    """Eigenvector of m for eigenvalue 1, first coordinate 1."""
    rows = m - np.eye(2)
    r = rows[np.argmax(np.abs(rows).sum(axis=1))]
    x = np.array([r[1], -r[0]])
    return x / x[0]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def float_rebuild(family: str, kappa: float, mu: float) -> tuple[bool, bool, float]:
    """(convex, certified, rho_bar) from an independent rebuild of the
    polygon; convex includes the clockwise order of the vertices."""
    a, b = float_pair(family, kappa)
    lam = float(np.max(np.abs(np.linalg.eigvals(b @ a @ a))))
    scale = lam ** (1.0 / 3.0)
    at, bt = a / scale, b / scale
    v = _fixed_vector(bt @ at @ at)
    w = _fixed_vector(bt @ bt @ at)
    half = [mu * v, w]
    half.append(-at @ half[0])
    half.append(-at @ half[1])
    half.append(-at @ half[2])
    half.append(-bt @ half[3])
    verts = np.array(half + [-x for x in half])  # 12 x 2, clockwise if valid
    size = float(np.max(np.linalg.norm(verts, axis=1)))

    # Clockwise order: the angle falls by less than pi at each step and by
    # exactly one full turn around the polygon.
    ang = np.arctan2(verts[:, 1], verts[:, 0])
    steps = np.mod(ang - np.roll(ang, -1), 2 * math.pi)
    ordered = bool(np.all((steps > 0) & (steps < math.pi))) and math.isclose(
        float(steps.sum()), 2 * math.pi, rel_tol=1e-9
    )

    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.linalg.norm(edges, axis=1)
    turns = _cross(edges, np.roll(edges, -1, axis=0))
    convex = ordered and bool(np.all(turns <= _GEOM_TOL * lengths * np.roll(lengths, -1)))

    points = np.vstack([verts @ at.T, verts @ bt.T])  # 24 x 2
    # side[i, j] > 0: point j lies left of edge i, i.e. outside a clockwise polygon.
    side = _cross(edges[:, None, :], points[None, :, :] - verts[:, None, :])
    inside = bool(np.all(side <= _GEOM_TOL * lengths[:, None] * size))
    return convex, convex and inside, scale


def float_interval(family: str, kappa: float, which: int) -> tuple[float, float]:
    """Ends of the mu range where float_rebuild(...)[which] holds (0: convex,
    1: certified), by a grid search and bisection at both ends.

    Both sets are intervals: the levels that decide them are affine in mu
    or in 1/mu.
    """

    def holds(mu: float) -> bool:
        return float_rebuild(family, kappa, mu)[which]

    grid = np.linspace(0.5, 2.5, 201)
    good = [float(m) for m in grid if holds(float(m))]
    if not good:
        raise ValueError(f"empty mu range for {family} kappa={kappa}")

    def edge(inside: float, outside: float) -> float:
        for _ in range(60):
            mid = (inside + outside) / 2
            if holds(mid):
                inside = mid
            else:
                outside = mid
        return inside

    step = float(grid[1] - grid[0])
    return edge(good[0], good[0] - step), edge(good[-1], good[-1] + step)


# -- certify outputs ----------------------------------------------------------


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and not key.startswith(" "):
            out[key] = value
    return out


def _smp_classes_ok(kv: dict[str, str]) -> bool:
    """The paper's two classes {AAB} and {ABB}, with A-counts 2 and 1."""
    return (
        kv.get("smp.1.class") == "AAB"
        and kv.get("smp.1.count_a") == "2"
        and kv.get("smp.2.class") == "ABB"
        and kv.get("smp.2.count_a") == "1"
    )


def check_certify(item: dict, rc, stdout: str) -> str | None:
    """None when a certify op's output agrees with the independent verdict,
    else a one-line reason."""
    expected = item["expected"]
    if rc != (0 if expected else 1):
        return f"exit code {rc}, expected {0 if expected else 1}"
    kv = parse_kv(stdout)
    if kv.get("certified") != ("true" if expected else "false"):
        return f"certified = {kv.get('certified')}, expected {expected}"
    if not expected:
        return None
    if not _smp_classes_ok(kv):
        return "spectrum maximizing classes differ from {AAB}, {ABB}"
    printed = kv.get("rho_bar")
    if item["backend"] == "exact":
        c = Fraction(item["c"])
        if printed is None or Fraction(printed) != c * c:
            return f"rho_bar = {printed}, expected {c * c}"
    else:
        if printed is None or not math.isclose(
            float(printed), item["rho_bar"], rel_tol=FLOAT_REL
        ):
            return f"rho_bar = {printed}, expected {item['rho_bar']!r}"
    return None


def expected_certify(item: dict) -> tuple[bool, float | None]:
    """Independent verdict (and float rho_bar) for one certify input."""
    if item["backend"] == "exact":
        return exact_expected(Fraction(item["c"]), Fraction(item["mu"])), None
    return float_rebuild(item["family"], float(item["kappa"]), float(item["mu"]))[1:]


# -- bounds outputs -----------------------------------------------------------


def _least_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def enumerate_bounds(c: Fraction, n_max: int, tie_rel_tol: float = 1e-9):
    """Rows (n, rho_bar_n, rho_n, maximizer necklaces) by plain enumeration.

    A = [[0, -1/k], [k, -1]] and B = [[0, -k], [1/k, -1]] with k = c**3,
    scaled by d = numerator * denominator of k, so that every product of
    length n is an integer matrix over d**n.  rho_n uses the max-row-sum norm.
    """
    k = c**3
    kn, kd = k.numerator, k.denominator
    d = kn * kd
    # d*A and d*B: entries 0, -kd^2, kn^2, -d and 0, -kn^2, kd^2, -d.
    mats = {
        "A": (0, -kd * kd, kn * kn, -d),
        "B": (0, -kn * kn, kd * kd, -d),
    }
    level = {"": (1, 0, 0, 1)}  # display word -> d**len * product
    rows = []
    for n in range(1, n_max + 1):
        nxt = {}
        for word, (p, q, r, s) in level.items():
            for sym, (a11, a12, a21, a22) in mats.items():
                # sym applied last: display form sym + word is sym @ word.
                nxt[sym + word] = (
                    a11 * p + a12 * r,
                    a11 * q + a12 * s,
                    a21 * p + a22 * r,
                    a21 * q + a22 * s,
                )
        level = nxt
        scale = d**n
        best_norm = max(
            max(abs(p) + abs(q), abs(r) + abs(s)) for p, q, r, s in level.values()
        )
        rho = float(Fraction(best_norm, scale)) ** (1.0 / n)
        radii = {}
        for word, (p, q, r, s) in level.items():
            t = Fraction(p + s, scale)
            det = Fraction(p * s - q * r, scale * scale)
            disc = t * t - 4 * det
            if disc >= 0:
                root = math.sqrt(float(disc))
                sr = (abs(float(t)) + root) / 2
            else:
                sr = math.sqrt(float(det))
            radii[word] = sr ** (1.0 / n)
        best = max(radii.values())
        cut = best - tie_rel_tol * max(1.0, best)
        maxi = sorted({_least_rotation(w) for w, r in radii.items() if r >= cut})
        rows.append((n, best, rho, tuple(maxi)))
    return rows


def parse_bounds(text: str):
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) != 4:
            return None
        maximizers = tuple(sorted(parts[3].split(";")))
        rows.append((int(parts[0]), float(parts[1]), float(parts[2]), maximizers))
    return rows


def check_bounds(item: dict, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    rows = parse_bounds(stdout)
    expected = item["rows"]
    if rows is None or len(rows) != len(expected):
        return "table does not have one row per n"
    c2 = float(Fraction(item["c"]) ** 2)
    for (n, lo, hi, maxi), (en, elo, ehi, emaxi) in zip(rows, expected):
        if n != en:
            return f"row {n} where {en} was expected"
        if not math.isclose(lo, elo, rel_tol=FLOAT_REL):
            return f"n={n}: rho_bar_n {lo!r}, enumeration gives {elo!r}"
        if not math.isclose(hi, ehi, rel_tol=FLOAT_REL):
            return f"n={n}: rho_n {hi!r}, enumeration gives {ehi!r}"
        if maxi != tuple(emaxi):
            return f"n={n}: maximizers {maxi}, enumeration gives {tuple(emaxi)}"
        if not lo <= c2 * (1 + FLOAT_REL) or not c2 <= hi * (1 + FLOAT_REL):
            return f"n={n}: c^2 = {c2!r} outside [{lo!r}, {hi!r}]"
        if n % 3 == 0:
            k = n // 3
            if "AAB" * k not in maxi or "ABB" * k not in maxi:
                return f"n={n}: (AAB)^{k} and (ABB)^{k} are not both maximizers"
    return None

