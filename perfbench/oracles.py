"""Oracles that check the benchmark's outputs without using valgebra.

Two independent routes:

- an exact planar toolkit over Fractions: monotone-chain hull, shoelace area,
  polygon monomial moments by Green's theorem, and mixed areas by
  polarization;
- floating-point 3-D volumes from scipy's Qhull, combined into mixed
  volumes by polarization.

Nothing here imports valgebra, and scipy is imported only when a 3-D volume
is asked for, so a workload process can read its peak memory first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, isqrt, lcm

# pi lies strictly between these two rationals.
PI_LO = Fraction(3141592653589793, 10**15)
PI_HI = Fraction(3141592653589794, 10**15)

# Scale of the integer square roots behind `perimeter_bounds`.
_SQRT_SCALE = 2**40


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _to_ints(points) -> tuple[list[tuple[int, int]], int]:
    """Planar points as integer pairs over one common denominator."""
    fr = [(Fraction(x), Fraction(y)) for x, y in points]
    den = lcm(*(c.denominator for p in fr for c in p))
    return [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)) for x, y in fr], den


def _int_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone chain over exact integers: counterclockwise, collinear points dropped."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]
    return ring if len(ring) >= 3 else [pts[0], pts[-1]]


def hull2(points) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the planar convex hull, counterclockwise, collinear ones dropped."""
    ints, den = _to_ints(points)
    return [(Fraction(x, den), Fraction(y, den)) for x, y in _int_hull(ints)]


def area2(points) -> Fraction:
    """Exact area of the convex hull of planar points (shoelace formula)."""
    ints, den = _to_ints(points)
    ring = _int_hull(ints)
    if len(ring) < 3:
        return Fraction(0)
    m = len(ring)
    twice = sum(ring[i][0] * ring[(i + 1) % m][1] - ring[(i + 1) % m][0] * ring[i][1] for i in range(m))
    return Fraction(twice, 2 * den * den)


def minkowski2(a, b) -> list:
    """All pairwise sums: the Minkowski sum's hull is the hull of these."""
    return [(Fraction(p[0]) + q[0], Fraction(p[1]) + q[1]) for p in a for q in b]


def neg(points) -> list:
    return [tuple(-Fraction(c) for c in p) for p in points]


def scaled(points, r, shift=None) -> list:
    """The body r * P + shift."""
    shift = shift or (0,) * len(points[0])
    return [tuple(Fraction(r) * c + s for c, s in zip(p, shift)) for p in points]


def mixed_area(a, b) -> Fraction:
    """V(A, B) in the plane, normalized so that V(K, K) = area(K)."""
    return _mixed_area(tuple(map(tuple, a)), tuple(map(tuple, b)))


@lru_cache(maxsize=4096)
def _mixed_area(a, b) -> Fraction:
    return (area2(minkowski2(a, b)) - area2(a) - area2(b)) / 2


def moment2(points, p: int, q: int) -> Fraction:
    """Exact integral of x^p y^q over the convex hull of planar points.

    Green's theorem turns the integral into a sum over the edges of the
    counterclockwise boundary; each edge contributes a closed-form
    polynomial in its two endpoints.
    """
    ring = hull2(points)
    if len(ring) < 3:
        return Fraction(0)
    m = len(ring)
    total = Fraction(0)
    for i in range(m):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % m]
        inner = Fraction(0)
        for k in range(p + 1):
            for l in range(q + 1):
                inner += (
                    comb(k + l, l)
                    * comb(p + q - k - l, q - l)
                    * x1**k * x0 ** (p - k) * y1**l * y0 ** (q - l)
                )
        total += (x0 * y1 - x1 * y0) * inner
    return total / ((p + q + 2) * (p + q + 1) * comb(p + q, p))


def poly_mul(f: dict, g: dict) -> dict:
    """Product of two polynomials given as {exponent tuple: coefficient}."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    return out


def integrate2(points, f: dict) -> Fraction:
    """Exact integral of a planar polynomial density over the hull of points."""
    return sum((Fraction(c) * moment2(points, e[0], e[1]) for e, c in f.items()), Fraction(0))


def _sqrt_bounds(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(x) <= hi, about 2**-40 apart."""
    n, d = x.numerator, x.denominator
    r = isqrt(n * d * _SQRT_SCALE**2)
    return Fraction(r, d * _SQRT_SCALE), Fraction(r + 1, d * _SQRT_SCALE)


def perimeter_bounds(points) -> tuple[Fraction, Fraction]:
    """Rational bounds on the perimeter of the hull of planar points."""
    ring = hull2(points)
    if len(ring) < 2:
        return Fraction(0), Fraction(0)
    edges = list(zip(ring, ring[1:] + ring[:1])) if len(ring) > 2 else [(ring[0], ring[1])] * 2
    lo = hi = Fraction(0)
    for a, b in edges:
        l, h = _sqrt_bounds((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
        lo += l
        hi += h
    return lo, hi


def brackets(lo, hi, true_lo, true_hi) -> bool:
    """True iff [lo, hi] surely contains a value known to lie in [true_lo, true_hi]."""
    return lo <= true_lo and true_hi <= hi


def volume_qhull(points) -> float:
    """Float volume of the convex hull of points in R^3 (0 for flat sets)."""
    import numpy as np
    from scipy.spatial import ConvexHull

    arr = np.array([[float(c) for c in p] for p in points])
    if np.linalg.matrix_rank(arr - arr[0]) < arr.shape[1]:
        return 0.0
    return float(ConvexHull(arr).volume)


def mixed_volume_qhull(bodies) -> tuple[float, float]:
    """V(K_1, ..., K_n) by polarization over Qhull volumes.

    Returns the value and the sum of the absolute polarization terms, which
    scales the float tolerance of a comparison.
    """
    return _mixed_volume_qhull(tuple(tuple(map(tuple, b)) for b in bodies))


@lru_cache(maxsize=1024)
def _mixed_volume_qhull(bodies) -> tuple[float, float]:
    n = len(bodies)
    total = 0.0
    scale = 0.0
    for k in range(1, n + 1):
        for subset in combinations(bodies, k):
            pts = [tuple(0 for _ in range(n))]
            for body in subset:
                pts = list({tuple(a + b for a, b in zip(p, v)) for p in pts for v in body})
            term = volume_qhull(pts)
            total += (-1) ** (n - k) * term
            scale += term
    return total / factorial(n), scale / factorial(n)


def close(exact, approx: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(float(exact) - approx) <= rel * max(1.0, scale)


def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r
