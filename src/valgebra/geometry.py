"""Exact rational polytope kernel.

Polytopes are stored by their extreme vertices with Fraction coordinates.
All operations are pure; every returned Polytope is canonical (vertices
lexicographically sorted, irredundant).  The only floating point output in
this module is the final square root of `hausdorff_distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import hull as _hull
from . import lp as _lp
from .intlinalg import independent_rows, solve

Scalar = Fraction
Point = tuple[Fraction, ...]


def as_scalar(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact scalar: {x!r}")


def as_point(coords) -> Point:
    return tuple(as_scalar(c) for c in coords)


def point_add(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def point_sub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def point_scale(a: Point, s: Fraction) -> Point:
    return tuple(s * x for x in a)


def point_dot(a: Point, b: Point) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class LinearMap:
    """Exact linear map given by its matrix, rows indexed by target coordinates."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("linear map needs at least one row")
        width = len(self.rows[0])
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows) -> "LinearMap":
        return LinearMap(tuple(tuple(as_scalar(x) for x in row) for row in rows))

    @property
    def target_dim(self) -> int:
        return len(self.rows)

    @property
    def source_dim(self) -> int:
        return len(self.rows[0])

    def apply(self, p: "Point") -> "Point":
        if len(p) != self.source_dim:
            raise ValueError("point dimension mismatch")
        return tuple(sum((a * x for a, x in zip(row, p)), Fraction(0)) for row in self.rows)

    def coordinate_isometry_columns(self) -> tuple[int, ...] | None:
        """Target coordinates hit by each source axis, if the map embeds
        source axes onto distinct standard basis vectors; None otherwise."""
        cols = []
        for j in range(self.source_dim):
            hits = [i for i in range(self.target_dim) if self.rows[i][j] != 0]
            if len(hits) != 1 or self.rows[hits[0]][j] != 1:
                return None
            cols.append(hits[0])
        if len(set(cols)) != len(cols):
            return None
        return tuple(cols)


@dataclass(frozen=True)
class Polytope:
    """Convex polytope given by its extreme vertices, exact and immutable."""

    dim: int
    vertices: tuple[Point, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex dimension mismatch")

    @staticmethod
    def _trusted(dim: int, vertices) -> "Polytope":
        """Construct from vertices already known to be extreme and distinct."""
        return Polytope(dim, tuple(sorted(vertices)))

    def translate(self, x) -> "Polytope":
        return translate(self, x)

    def __str__(self):
        return f"Polytope(dim={self.dim}, {len(self.vertices)} vertices)"


def _dedupe(points: list[Point]) -> list[Point]:
    return list(dict.fromkeys(points))


def _affine_basis(points: list[Point]) -> tuple[list[int], list[int]]:
    """Indices of points[1:] whose differences to points[0] span the affine
    hull, greedily in order, and the pivot coordinates on which the affine
    hull projects injectively."""
    base = points[0]
    return independent_rows((point_sub(p, base) for p in points[1:]), len(base))


def _extreme_full_dim(points: list[Point], n: int) -> list[Point]:
    """Extreme points of a full-dimensional point set (exact)."""
    if n == 1:
        return [min(points), max(points)]
    if n == 2:
        return _hull.hull2d_extreme(points)
    data = _hull.hull_data(points, n)
    if data is None:  # caller guaranteed full-dim
        raise ArithmeticError("unexpected degenerate set")
    return [tuple(Fraction(c, data.scale) for c in data.points[i]) for i in data.vertex_indices()]


def hull(points, dim: int | None = None) -> Polytope:
    """Convex hull of rational points, stored as its extreme vertices."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("hull of an empty point list")
    n = dim if dim is not None else len(pts[0])
    for p in pts:
        if len(p) != n:
            raise ValueError("inconsistent point dimensions")
    pts = _dedupe(pts)
    if len(pts) == 1:
        return Polytope._trusted(n, pts)
    _, cols = _affine_basis(pts)
    r = len(cols)
    if r == n:
        return Polytope._trusted(n, _extreme_full_dim(pts, n))
    # Degenerate: project to pivot coordinates, solve there, map back.
    proj = [tuple(p[c] for c in cols) for p in pts]
    back = dict(zip(proj, pts))
    return Polytope._trusted(n, [back[q] for q in _extreme_full_dim(proj, r)])


@lru_cache(maxsize=512)
def _hull_data_of(P: Polytope):
    return _hull.hull_data(list(P.vertices), P.dim)


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.dim != Q.dim:
        raise ValueError("Minkowski sum needs equal ambient dimensions")
    sums = [point_add(v, w) for v in P.vertices for w in Q.vertices]
    return hull(sums, P.dim)


def scale(P: Polytope, lam) -> Polytope:
    lam = as_scalar(lam)
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    if lam == 0:
        return Polytope._trusted(P.dim, [tuple(Fraction(0) for _ in range(P.dim))])
    return Polytope._trusted(P.dim, [point_scale(v, lam) for v in P.vertices])


def translate(P: Polytope, x) -> Polytope:
    x = as_point(x)
    if len(x) != P.dim:
        raise ValueError("translation vector dimension mismatch")
    return Polytope._trusted(P.dim, [point_add(v, x) for v in P.vertices])


def reflect(P: Polytope) -> Polytope:
    return Polytope._trusted(P.dim, [tuple(-c for c in v) for v in P.vertices])


def cartesian_product(P: Polytope, Q: Polytope) -> Polytope:
    verts = [v + w for v in P.vertices for w in Q.vertices]
    return Polytope._trusted(P.dim + Q.dim, verts)


def diagonal_embed(P: Polytope) -> Polytope:
    return Polytope._trusted(2 * P.dim, [v + v for v in P.vertices])


def support(P: Polytope, y) -> Fraction:
    y = as_point(y)
    if len(y) != P.dim:
        raise ValueError("support direction dimension mismatch")
    return max(point_dot(y, v) for v in P.vertices)


def affine_dim(P: Polytope) -> int:
    return len(_affine_basis(list(P.vertices))[1])


def volume(P: Polytope) -> Fraction:
    """Exact n-dimensional volume; zero for lower-dimensional bodies."""
    data = _hull_data_of(P)
    if data is None:
        return Fraction(0)
    return data.volume()


def facet_inequalities(P: Polytope) -> list[tuple[tuple[int, ...], Fraction]]:
    """Outer description (nu, c) with nu.x <= c, one row per facet of a
    full-dimensional P."""
    data = _hull_data_of(P)
    if data is None:
        raise ValueError("facet description needs a full-dimensional polytope")
    return [(nu, Fraction(c, data.scale)) for nu, c, _ in data.facets()]


def contains_point(P: Polytope, x) -> bool:
    x = as_point(x)
    data = _hull_data_of(P)
    if data is None:
        return _lp.point_in_hull(x, list(P.vertices))
    return data.contains(x)


def contains(P: Polytope, Q: Polytope) -> bool:
    """True iff Q is a subset of P (exact)."""
    return all(contains_point(P, v) for v in Q.vertices)


def _proj_to_affine_hull(p: Point, verts: list[Point]) -> tuple[Fraction, bool]:
    """Squared distance from p to its orthogonal projection onto aff(verts),
    and whether that projection lies in conv(verts); verts must be affinely
    independent."""
    base = verts[0]
    dirs = [point_sub(v, base) for v in verts[1:]]
    # The normal equations G t = b; the Gram matrix G is nonsingular because
    # the dirs are independent.
    w = point_sub(p, base)
    ts = solve([[point_dot(a, b) for b in dirs] for a in dirs], [point_dot(a, w) for a in dirs])
    diff = w
    for t, d in zip(ts, dirs):
        diff = point_sub(diff, point_scale(d, t))
    # ts are the barycentric coordinates of the projection on verts[1:];
    # 1 - sum(ts) is its coordinate on verts[0].
    return point_dot(diff, diff), all(t >= 0 for t in ts) and sum(ts) <= 1


def _simplex_faces(P: Polytope) -> set[tuple[int, ...]]:
    """Index tuples into P.vertices of every face of the simplices that
    triangulate the boundary of a full-dimensional P, or all of a flat P
    within its affine hull."""
    _, cols = _affine_basis(list(P.vertices))
    if not cols:
        return {(0,)}
    if len(cols) == P.dim:
        simplices = _hull_data_of(P).facet_vertices
    else:  # flat: the projection to the pivot coordinates keeps the indices
        simplices = _hull.hull_data([tuple(v[c] for c in cols) for v in P.vertices], len(cols)).fan_triangulation()
    faces = set()
    for simplex in simplices:
        simplex = sorted(simplex)
        for k in range(1, len(simplex) + 1):
            faces.update(combinations(simplex, k))
    return faces


def point_polytope_sqdist(p, P: Polytope) -> Fraction:
    """Exact squared Euclidean distance from a point to a polytope.

    The nearest point lies in the relative interior of a face of one of the
    simplices of `_simplex_faces`, where it is the projection of p onto the
    affine hull of that face.
    """
    p = as_point(p)
    if contains_point(P, p):
        return Fraction(0)
    best = None
    for face in _simplex_faces(P):
        d2, inside = _proj_to_affine_hull(p, [P.vertices[i] for i in face])
        if inside and (best is None or d2 < best):
            best = d2
    return best


def hausdorff_distance(P: Polytope, Q: Polytope) -> float:
    """Hausdorff distance; the lone float-returning kernel operation."""
    if P.dim != Q.dim:
        raise ValueError("Hausdorff distance needs equal dimensions")
    worst = Fraction(0)
    for v in P.vertices:
        worst = max(worst, point_polytope_sqdist(v, Q))
    for w in Q.vertices:
        worst = max(worst, point_polytope_sqdist(w, P))
    return math.sqrt(worst)


# ---------------------------------------------------------------------------
# Rational ball approximations.

_BALL_CACHE: dict[tuple[int, int, str], Polytope] = {}


def _rationalize_toward_zero(x: float, den: int) -> Fraction:
    return Fraction(math.floor(x * den) if x >= 0 else math.ceil(x * den), den)


def _disc_vertex_table(level: int) -> dict[Fraction, Point]:
    """Vertices keyed by angle fraction k/m, reusing coarser levels exactly."""
    if level == 1:
        m = 6
        den = 2 ** (2 + 12)
        table = {}
        for k in range(m):
            th = 2.0 * math.pi * k / m
            table[Fraction(k, m)] = (
                _rationalize_toward_zero(math.cos(th), den),
                _rationalize_toward_zero(math.sin(th), den),
            )
        return table
    prev = _disc_vertex_table(level - 1)
    m = 3 * 2 ** level
    den = 2 ** (2 * level + 12)
    table = dict(prev)
    for k in range(1, m, 2):
        th = 2.0 * math.pi * k / m
        table[Fraction(k, m)] = (
            _rationalize_toward_zero(math.cos(th), den),
            _rationalize_toward_zero(math.sin(th), den),
        )
    return table


def _octa_mesh(level: int) -> list[Point]:
    """Vertices of a sphere mesh from repeated octahedron subdivision."""
    one = Fraction(1)
    zero = Fraction(0)
    verts: list[Point] = [
        (one, zero, zero), (-one, zero, zero),
        (zero, one, zero), (zero, -one, zero),
        (zero, zero, one), (zero, zero, -one),
    ]
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    for lv in range(2, level + 1):
        den = 2 ** (2 * lv + 10)
        midpoint: dict[tuple[int, int], int] = {}

        def midpt(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            got = midpoint.get(key)
            if got is not None:
                return got
            a, b = verts[i], verts[j]
            mx = [float(x + y) for x, y in zip(a, b)]
            norm = math.sqrt(sum(c * c for c in mx))
            unit = [c / norm for c in mx]
            v = tuple(_rationalize_toward_zero(c, den) for c in unit)
            verts.append(v)
            midpoint[key] = len(verts) - 1
            return len(verts) - 1

        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = midpt(i, j), midpt(j, k), midpt(k, i)
            new_faces += [(i, ij, ki), (ij, j, jk), (ki, jk, k), (ij, jk, ki)]
        faces = new_faces
    return verts


def _certified_circumscribe(inner: Polytope) -> Polytope:
    """Smallest dyadic multiple of `inner` certified to contain the unit ball."""
    facets = [(sum(a * a for a in nu), c) for nu, c in facet_inequalities(inner)]
    if any(c <= 0 for _, c in facets):
        raise ArithmeticError("origin is not interior to the inscribed body")
    worst = max(nn / (c * c) for nn, c in facets)
    den = 2 ** 30
    sigma = Fraction(math.ceil(math.sqrt(float(worst)) * den), den)
    while sigma * sigma < worst:
        sigma += Fraction(1, den)
    # Certificate: the facet (nu, sigma c) of sigma * inner is at distance
    # sigma c / |nu| >= 1 from the origin.
    if any(sigma * sigma * c * c < nn for nn, c in facets):
        raise ArithmeticError("a circumscribed facet cuts the unit ball")
    return scale(inner, sigma)


def ball_approx(n: int, level: int, side: str) -> Polytope:
    """Rational polytope bracket of the unit ball.

    `side` is "inscribed" (contained in the ball) or "circumscribed"
    (containing it); both containments are exact.  Successive inscribed
    levels are nested.  Hausdorff error decays like 4**-level.
    """
    if n not in (2, 3):
        raise ValueError("ball approximations support dimensions 2 and 3")
    if level < 1:
        raise ValueError("level must be at least 1")
    if side not in ("inscribed", "circumscribed"):
        raise ValueError("side must be 'inscribed' or 'circumscribed'")
    key = (n, level, side)
    got = _BALL_CACHE.get(key)
    if got is not None:
        return got
    if n == 2:
        pts = list(_disc_vertex_table(level).values())
    else:
        pts = _octa_mesh(level)
    inner = hull(pts, n)
    if any(point_dot(v, v) > 1 for v in inner.vertices):
        raise ArithmeticError("an inscribed vertex lies outside the unit ball")
    result = inner if side == "inscribed" else _certified_circumscribe(inner)
    _BALL_CACHE[key] = result
    return result


def unit_segment_ball() -> Polytope:
    """The exact unit ball of dimension 1, i.e. [-1, 1]."""
    return Polytope._trusted(1, [(Fraction(-1),), (Fraction(1),)])
