"""Exact convex hull, facet enumeration, triangulation and volume.

The engine works on integer coordinates (callers clear denominators first)
and runs an incremental beneath-beyond construction that maintains a
triangulated boundary complex with exact integer hyperplanes.  A facet (ν, c)
is visible from a point q iff ν·q − c > 0, one exact integer test over the
live facets: points on a facet's hyperplane are not beyond it, so points of
the closed hull are never inserted and coplanar facets are never rebuilt.
Every sign is decided in integer arithmetic, so results are exact for
arbitrary inputs.

Degenerate inputs (affine dimension below the ambient one) are reported as
such; callers decide how to project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import factorial, gcd
from operator import mul

from .intlinalg import hyperplane_through, independent_rows, scale_to_ints, simplex_det


@dataclass
class HullData:
    """Facet complex of a full-dimensional hull over scaled integer points."""

    dim: int
    points: list[tuple[int, ...]]
    scale: int
    facet_vertices: list[tuple[int, ...]]
    normals: list[tuple[int, ...]]
    offsets: list[int]
    _det_sum: int | None = field(default=None, repr=False)
    _simplices: list[tuple[int, ...]] | None = field(default=None, repr=False)

    def boundary_vertex_indices(self) -> list[int]:
        seen = set()
        for verts in self.facet_vertices:
            seen.update(verts)
        return sorted(seen)

    def vertex_indices(self) -> list[int]:
        """Boundary points that are vertices of the hull.

        A boundary point is a vertex iff the normals of the facets through it
        have full rank; a point inside an edge or a facet of the polytope
        only meets facets whose normals span fewer dimensions.
        """
        incident: dict[int, set[tuple[int, ...]]] = {}
        for verts, nu in zip(self.facet_vertices, self.normals):
            for i in verts:
                incident.setdefault(i, set()).add(nu)
        n = self.dim
        return sorted(
            i for i, normals in incident.items() if len(normals) >= n and len(independent_rows(normals, n)[0]) == n
        )

    def contains(self, x) -> bool:
        """True iff the point x, in unscaled coordinates, lies in the hull."""
        return all(sum(a * b for a, b in zip(nu, x)) * self.scale <= c for nu, c in zip(self.normals, self.offsets))

    def fan_triangulation(self) -> list[tuple[int, ...]]:
        """Simplices coning the lexicographically smallest boundary vertex.

        Facets whose hyperplane holds the apex would give flat simplices and
        are skipped; the cones over the other facets tile the hull.
        """
        if self._simplices is None:
            apex = min(self.boundary_vertex_indices(), key=lambda i: self.points[i])
            q = self.points[apex]
            self._simplices = [
                verts + (apex,)
                for verts, nu, c in zip(self.facet_vertices, self.normals, self.offsets)
                if sum(map(mul, nu, q)) != c
            ]
        return self._simplices

    def det_sum(self) -> int:
        if self._det_sum is None:
            total = 0
            for s in self.fan_triangulation():
                total += abs(simplex_det(self.points, s))
            self._det_sum = total
        return self._det_sum

    def volume(self) -> Fraction:
        n = self.dim
        return Fraction(self.det_sum(), factorial(n) * self.scale ** n)

class _Incremental:
    def __init__(self, pts: list[tuple[int, ...]], n: int):
        self.pts = pts
        self.n = n
        # Live facets only: fid -> (vertices, outward normal, offset).
        self.facets: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self.ridges: dict[tuple[int, ...], list[int]] = {}
        self.fids = count()
        self.ref: tuple[int, ...] | None = None

    def _add_facet_oriented(self, verts: tuple[int, ...], nu: tuple[int, ...], c: int):
        g = gcd(*nu, c)
        if g > 1:
            nu = tuple(x // g for x in nu)
            c = c // g
        fid = next(self.fids)
        self.facets[fid] = (verts, nu, c)
        for k in range(self.n):
            ridge = verts[:k] + verts[k + 1 :]
            self.ridges.setdefault(ridge, []).append(fid)

    def _add_facet(self, verts: tuple[int, ...]):
        nu, c = hyperplane_through(self.pts, verts)
        if all(x == 0 for x in nu):
            raise ArithmeticError("degenerate facet candidate")
        t = sum(a * b for a, b in zip(nu, self.ref)) - (self.n + 1) * c
        if t > 0:
            nu = tuple(-x for x in nu)
            c = -c
        elif t == 0:
            raise ArithmeticError("orientation reference lies on a facet")
        self._add_facet_oriented(verts, nu, c)

    def _kill_facet(self, fid: int):
        verts = self.facets.pop(fid)[0]
        for k in range(self.n):
            ridge = verts[:k] + verts[k + 1 :]
            lst = self.ridges[ridge]
            lst.remove(fid)
            if not lst:
                del self.ridges[ridge]

    def run(self) -> HullData | None:
        n = self.n
        p0 = self.pts[0]
        kept, _ = independent_rows((tuple(a - b for a, b in zip(p, p0)) for p in self.pts[1:]), n)
        if len(kept) < n:
            return None
        base = [0] + [i + 1 for i in kept]
        self.ref = tuple(sum(self.pts[i][j] for i in base) for j in range(n))
        for k in range(n + 1):
            verts = tuple(sorted(base[:k] + base[k + 1 :]))
            self._add_facet(verts)
        rest = [i for i in range(len(self.pts)) if i not in set(base)]
        rest.sort(key=lambda i: -self._far_key(i))
        for qi in rest:
            self._insert(qi)
        facets = self.facets.values()
        return HullData(
            dim=n,
            points=self.pts,
            scale=1,
            facet_vertices=[f[0] for f in facets],
            normals=[f[1] for f in facets],
            offsets=[f[2] for f in facets],
        )

    def _far_key(self, i: int) -> int:
        """Squared distance from the base centroid, scaled by (n + 1)**2."""
        m = self.n + 1
        return sum((m * a - b) ** 2 for a, b in zip(self.pts[i], self.ref))

    def _insert(self, qi: int):
        q = self.pts[qi]
        # A facet is visible iff q lies strictly beyond its hyperplane; a point
        # in the closed hull sees none and is skipped.
        d: dict[int, int] = {}
        for fid, (_, nu, c) in self.facets.items():
            t = sum(map(mul, nu, q)) - c
            if t > 0:
                d[fid] = t
        if not d:
            return
        new = []
        for fid, df in d.items():
            verts, nu_f, c_f = self.facets[fid]
            for k in range(self.n):
                ridge = verts[:k] + verts[k + 1 :]
                lst = self.ridges[ridge]
                if len(lst) != 2:
                    raise ArithmeticError("boundary complex lost a ridge neighbor")
                g = lst[0] if lst[1] == fid else lst[1]
                if g in d:
                    continue
                # The new hyperplane lies in the pencil spanned by the two old
                # facets through the horizon ridge; the combination below
                # contains q and is outward-oriented (both old facets keep the
                # interior reference strictly below).  When q lies on g's
                # hyperplane it is g's own.
                _, nu_g, c_g = self.facets[g]
                dg = sum(map(mul, nu_g, q)) - c_g
                nu = tuple(df * y - dg * x for x, y in zip(nu_f, nu_g))
                new.append((tuple(sorted(ridge + (qi,))), nu, df * c_g - dg * c_f))
        for fid in d:
            self._kill_facet(fid)
        for verts, nu, c in new:
            self._add_facet_oriented(verts, nu, c)


def _hull_1d(pts: list[tuple[int, ...]]) -> HullData | None:
    vals = sorted(set(p[0] for p in pts))
    if len(vals) < 2:
        return None
    lo, hi = vals[0], vals[-1]
    ilo = next(i for i, p in enumerate(pts) if p[0] == lo)
    ihi = next(i for i, p in enumerate(pts) if p[0] == hi)
    return HullData(
        dim=1,
        points=pts,
        scale=1,
        facet_vertices=[(ilo,), (ihi,)],
        normals=[(-1,), (1,)],
        offsets=[-lo, hi],
    )


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d_extreme(pts: list[tuple]) -> list[tuple]:
    """Extreme points of a planar point set in counterclockwise order.

    Works for exact coordinate types (int, Fraction).  Collinear points are
    dropped, so the output is the minimal vertex description.
    """
    p = sorted(set(pts))
    if len(p) == 1:
        return p
    lower: list[tuple] = []
    for pt in p:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[tuple] = []
    for pt in reversed(p):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    out = lower[:-1] + upper[:-1]
    if len(out) < 3:
        # Collinear set: keep the two endpoints only.
        return [p[0], p[-1]] if p[0] != p[-1] else [p[0]]
    return out


def _hull_2d(pts: list[tuple[int, ...]]) -> HullData | None:
    ring = hull2d_extreme(pts)
    if len(ring) < 3:
        return None
    index = {p: i for i, p in enumerate(pts)}
    ids = [index[p] for p in ring]
    m = len(ids)
    facet_vertices = []
    normals = []
    offsets = []
    for k in range(m):
        a = pts[ids[k]]
        b = pts[ids[(k + 1) % m]]
        nu = (b[1] - a[1], a[0] - b[0])
        c = nu[0] * a[0] + nu[1] * a[1]
        facet_vertices.append(tuple(sorted((ids[k], ids[(k + 1) % m]))))
        normals.append(nu)
        offsets.append(c)
    return HullData(
        dim=2,
        points=pts,
        scale=1,
        facet_vertices=facet_vertices,
        normals=normals,
        offsets=offsets,
    )


def hull_data_int(pts: list[tuple[int, ...]], n: int) -> HullData | None:
    """Facet complex of conv(pts) in dim n; None when not full-dimensional."""
    pts = list(dict.fromkeys(pts))
    if not pts:
        raise ValueError("empty point set")
    if n == 1:
        return _hull_1d(pts)
    if n == 2:
        return _hull_2d(pts)
    return _Incremental(pts, n).run()


def hull_data(points, n: int) -> HullData | None:
    """Like hull_data_int but for Fraction coordinates (clears denominators)."""
    pts_int, den = scale_to_ints(points)
    data = hull_data_int(pts_int, n)
    if data is not None:
        data.scale = den
    return data


def volume_of_points(points, n: int) -> Fraction:
    """Exact n-volume of the hull of rational points (0 when degenerate)."""
    data = hull_data(points, n)
    if data is None:
        return Fraction(0)
    return data.volume()
