"""Deterministic sample bodies and seeded random rational polytopes."""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import Polytope, hull


def box(bounds) -> Polytope:
    """Axis-aligned box from [(lo, hi), ...]; degenerate sides allowed."""
    bounds = [(Fraction(a), Fraction(b)) for a, b in bounds]
    for a, b in bounds:
        if a > b:
            raise ValueError("box bounds must satisfy lo <= hi")
    verts = [()]
    for a, b in bounds:
        verts = [v + (c,) for v in verts for c in ({a, b})]
    return hull(verts, len(bounds))


def unit_cube(n: int) -> Polytope:
    return box([(0, 1)] * n)


def standard_simplex(n: int) -> Polytope:
    pts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        pts.append(tuple(Fraction(1 if j == i else 0) for j in range(n)))
    return Polytope._trusted(n, pts)


def segment(n: int, axis: int = 0, length=1) -> Polytope:
    zero = tuple(Fraction(0) for _ in range(n))
    tip = tuple(Fraction(length) if j == axis else Fraction(0) for j in range(n))
    return Polytope._trusted(n, [zero, tip])


def origin(n: int) -> Polytope:
    return Polytope._trusted(n, [tuple(Fraction(0) for _ in range(n))])


def asymmetric_triangle(which: int = 0) -> Polytope:
    """Planar triangles with no central symmetry, used as odd-part witnesses."""
    if which == 0:
        pts = [(0, 0), (1, 0), (0, 1)]
    else:
        pts = [(0, 0), (2, 0), (0, 1)]
    return hull([tuple(map(Fraction, p)) for p in pts], 2)


def random_polytope(n: int, rng: random.Random, n_points: int = 6, denom: int = 4, spread: int = 3) -> Polytope:
    """Random full-dimensional rational polytope (redraws until full-dim)."""
    if n_points < n + 1:
        raise ValueError(f"a full-dimensional polytope in dimension {n} needs at least {n + 1} points")
    while True:
        pts = []
        for _ in range(n_points):
            pts.append(tuple(Fraction(rng.randint(-spread * denom, spread * denom), denom) for _ in range(n)))
        P = hull(pts, n)
        from .geometry import affine_dim

        if affine_dim(P) == n:
            return P


def random_flat_polytope(n: int, k: int, rng: random.Random, **kw) -> Polytope:
    """Random polytope of affine dimension k embedded in dimension n."""
    if k == 0:
        coords = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(n))
        return Polytope._trusted(n, [coords])
    small = random_polytope(k, rng, **kw)
    pad = tuple(Fraction(0) for _ in range(n - k))
    return Polytope._trusted(n, [v + pad for v in small.vertices])


def dimension_ladder(n: int, rng: random.Random) -> dict[int, list[Polytope]]:
    """Per affine dimension k < n: a point, a k-cube, a k-simplex, one random."""
    pad = lambda P, m: Polytope._trusted(m, [v + tuple(Fraction(0) for _ in range(m - P.dim)) for v in P.vertices])
    out: dict[int, list[Polytope]] = {0: [origin(n)]}
    for k in range(1, n):
        out[k] = [
            pad(unit_cube(k), n),
            pad(standard_simplex(k), n),
            random_flat_polytope(n, k, rng, n_points=k + 3),
        ]
    return out


def stock_bodies(n: int, rng: random.Random) -> list[Polytope]:
    """Full-dimensional bodies for evaluation checks."""
    out = [unit_cube(n), standard_simplex(n), random_polytope(n, rng)]
    if n == 2:
        out.append(asymmetric_triangle(0))
        out.append(asymmetric_triangle(1))
    return out
