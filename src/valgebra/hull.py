"""Exact convex hull, facet enumeration, triangulation and volume.

The engine works on integer coordinates (callers clear denominators first)
and runs an incremental beneath-beyond construction that maintains a
triangulated boundary complex with exact integer hyperplanes.  A facet (ν, c)
is visible from a point q iff ν·q − c > 0: points on a facet's hyperplane are
not beyond it, so points of the closed hull are never inserted and coplanar
facets are never rebuilt.  Every sign is decided in integer arithmetic, so
results are exact for arbitrary inputs.

Each uninserted point keeps one facet it lies strictly beyond, its conflict
facet (the outside sets of Quickhull, Barber, Dobkin & Huhdanpaa 1996).  An
insertion finds the visible facets by walking across ridges from that facet,
since the visible region is connected.  The points of a dead facet are
tested only against the facets that the insertion creates; a point beyond
none of them lies in the new hull and is dropped.

Each facet also keeps an integer multiplier k: the cofactor normal of its
vertices, whose entries are the n×n minors of their edge vectors, is ±k·ν.
The cone over a facet from an apex then has |det| = k·(c − ν·apex), so fan
volumes need no determinant.

Degenerate inputs (affine dimension below the ambient one) are reported as
such; callers decide how to project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import count
from math import factorial, gcd
from operator import mul, or_

from .intlinalg import adjugate, independent_rows, scale_to_ints


def bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass
class HullData:
    """Facet complex of a full-dimensional hull over scaled integer points.

    `multipliers[i]` is the k with cofactor normal ±k·`normals[i]` of
    `facet_vertices[i]`.
    """

    dim: int
    points: list[tuple[int, ...]]
    scale: int
    facet_vertices: list[tuple[int, ...]]
    normals: list[tuple[int, ...]]
    offsets: list[int]
    multipliers: list[int]
    _fan: tuple[list[tuple[int, ...]], list[int]] | None = field(default=None, repr=False)

    def boundary_vertex_indices(self) -> list[int]:
        seen = set()
        for verts in self.facet_vertices:
            seen.update(verts)
        return sorted(seen)

    def _merged(self) -> tuple[dict[tuple[tuple[int, ...], int], int], int]:
        """Each facet hyperplane (ν, c) with the bit mask of the boundary
        points on it, and the bit mask of the hull's vertices.

        The facets through a boundary point p meet in the smallest face of
        the hull that holds p, and every facet through that face carries all
        of its vertices as boundary points.  So p is a vertex iff the masks of
        the facets through p meet in p alone.
        """
        merged: dict[tuple[tuple[int, ...], int], int] = {}
        for verts, nu, c in zip(self.facet_vertices, self.normals, self.offsets):
            mask = merged.get((nu, c), 0)
            for i in verts:
                mask |= 1 << i
            merged[nu, c] = mask
        if self.dim <= 2:
            # The 1-D and 2-D hulls keep only extreme points on their boundary.
            return merged, reduce(or_, merged.values())
        meets: dict[int, int] = {}  # bit of a boundary point -> meet of its facets
        for mask in merged.values():
            rest = mask
            while rest:
                low = rest & -rest
                meets[low] = meets.get(low, mask) & mask
                rest ^= low
        return merged, sum(low for low, meet in meets.items() if meet == low)

    def vertex_indices(self) -> list[int]:
        """Boundary points that are vertices of the hull."""
        return bit_indices(self._merged()[1])

    def facets(self) -> list[tuple[tuple[int, ...], int, int]]:
        """One (ν, c, bit mask of its vertices) per facet hyperplane of the hull.

        The boundary simplices on one hyperplane are merged; the points of
        their union that are vertices of the hull are the facet's vertices.
        """
        merged, vertices = self._merged()
        return [(nu, c, mask & vertices) for (nu, c), mask in merged.items()]

    def contains(self, x) -> bool:
        """True iff the point x, in unscaled coordinates, lies in the hull."""
        return all(sum(a * b for a, b in zip(nu, x)) * self.scale <= c for nu, c in zip(self.normals, self.offsets))

    def _fan_of_apex(self) -> tuple[list[tuple[int, ...]], list[int]]:
        if self._fan is None:
            apex = min(self.boundary_vertex_indices(), key=lambda i: self.points[i])
            q = self.points[apex]
            simplices = []
            dets = []
            for verts, nu, c, k in zip(self.facet_vertices, self.normals, self.offsets, self.multipliers):
                h = c - sum(map(mul, nu, q))
                if h:
                    simplices.append(verts + (apex,))
                    dets.append(k * h)
            self._fan = simplices, dets
        return self._fan

    def fan_triangulation(self) -> list[tuple[int, ...]]:
        """Simplices coning the lexicographically smallest boundary vertex.

        Facets whose hyperplane holds the apex would give flat simplices and
        are skipped; the cones over the other facets tile the hull.
        """
        return self._fan_of_apex()[0]

    def fan_dets(self) -> list[int]:
        """|det| of each fan simplex's edge vectors, k·(c − ν·apex)."""
        return self._fan_of_apex()[1]

    def volume(self) -> Fraction:
        n = self.dim
        return Fraction(sum(self.fan_dets()), factorial(n) * self.scale ** n)


class _Incremental:
    def __init__(self, pts: list[tuple[int, ...]], n: int):
        self.pts = pts
        self.n = n
        # Live facets only, in creation order: fid -> (vertices, outward
        # normal, offset, multiplier, neighbours, outside set).  neighbours[j]
        # is the facet across the ridge without vertices[j]; the outside set
        # holds the uninserted points whose conflict facet this is.
        self.facets: dict[int, tuple] = {}
        # Point index -> its conflict facet, None once it is known to be inside.
        self.conflict: list[int | None] = [None] * len(pts)
        self.fids = count()
        self.ref: tuple[int, ...] | None = None

    def _new_facet(self, verts: tuple[int, ...], nu: tuple[int, ...], c: int, k: int) -> int:
        """Store a facet whose hyperplane, gcd(ν, c) = 1, is already reduced."""
        fid = next(self.fids)
        self.facets[fid] = (verts, nu, c, k, [None] * self.n, [])
        return fid

    def _glue(self, fids: list[int]):
        """Link the facets fids across the ridges they share with each other.

        Every ridge whose neighbour is still unset must be shared by exactly
        two of them.
        """
        facets = self.facets
        open_ridges: dict[tuple[int, ...], tuple[int, int]] = {}
        for fid in fids:
            verts, _, _, _, nbrs, _ = facets[fid]
            for j in range(self.n):
                if nbrs[j] is not None:
                    continue
                ridge = verts[:j] + verts[j + 1 :]
                other = open_ridges.pop(ridge, None)
                if other is None:
                    open_ridges[ridge] = fid, j
                else:
                    nbrs[j] = other[0]
                    facets[other[0]][4][other[1]] = fid
        if open_ridges:
            raise ArithmeticError("boundary complex lost a ridge neighbor")

    def _assign(self, i: int, fids: list[int]):
        """Give point i the first of fids it lies strictly beyond, if any."""
        p = self.pts[i]
        facets = self.facets
        for fid in fids:
            facet = facets[fid]
            if sum(map(mul, facet[1], p)) > facet[2]:
                self.conflict[i] = fid
                facet[5].append(i)
                return
        self.conflict[i] = None

    def run(self) -> HullData | None:
        n = self.n
        p0 = self.pts[0]
        kept, _ = independent_rows((tuple(a - b for a, b in zip(p, p0)) for p in self.pts[1:]), n)
        if len(kept) < n:
            return None
        base = [0] + [i + 1 for i in kept]
        self.ref = tuple(sum(self.pts[i][j] for i in base) for j in range(n))
        # Column k of the adjugate of the rows (1, p_b) is an affine form
        # (a, ν) that vanishes on every base vertex but base[k], where it
        # takes the value det: the cofactor hyperplane of the facet opposite
        # base[k], pointing inward when det > 0.
        det, adj = adjugate([(1, *self.pts[i]) for i in base])
        s = -1 if det > 0 else 1
        initial = []
        for k, (a, *nu) in enumerate(zip(*adj)):
            g = gcd(a, *nu)
            verts = tuple(sorted(base[:k] + base[k + 1 :]))
            initial.append(self._new_facet(verts, tuple(s * x // g for x in nu), -s * a // g, g))
        self._glue(initial)
        rest = [i for i in range(len(self.pts)) if i not in base]
        # Far points first; a point whose conflict facet is gone lies in the
        # hull built so far and is not inserted.
        rest.sort(key=lambda i: -self._far_key(i))
        for qi in rest:
            self._assign(qi, initial)
        for qi in rest:
            fid = self.conflict[qi]
            if fid is not None:
                self._insert(qi, fid)
        facets = self.facets.values()
        return HullData(
            dim=n,
            points=self.pts,
            scale=1,
            facet_vertices=[f[0] for f in facets],
            normals=[f[1] for f in facets],
            offsets=[f[2] for f in facets],
            multipliers=[f[3] for f in facets],
        )

    def _far_key(self, i: int) -> int:
        """Squared distance from the base centroid, scaled by (n + 1)**2."""
        m = self.n + 1
        return sum((m * a - b) ** 2 for a, b in zip(self.pts[i], self.ref))

    def _insert(self, qi: int, start: int):
        pts = self.pts
        q = pts[qi]
        facets = self.facets
        # The facets q lies strictly beyond form a ridge-connected region that
        # holds its conflict facet.  Walk it, keeping ν·q − c of every facet
        # met: positive in d (visible), not in beneath (the horizon's far side).
        _, nu, c, _, _, _ = facets[start]
        d = {start: sum(map(mul, nu, q)) - c}
        beneath: dict[int, int] = {}
        stack = [start]
        while stack:
            for g in facets[stack.pop()][4]:
                if g in d or g in beneath:
                    continue
                _, nu_g, c_g, _, _, _ = facets[g]
                t = sum(map(mul, nu_g, q)) - c_g
                if t > 0:
                    d[g] = t
                    stack.append(g)
                else:
                    beneath[g] = t
        # Visible facets in increasing fid order: the new facets, and so the
        # facet lists, do not depend on the order of the walk.
        new = []
        for fid in sorted(d):
            verts, nu_f, c_f, k_f, nbrs, _ = facets[fid]
            df = d[fid]
            for j, g in enumerate(nbrs):
                if g in d:
                    continue
                # The new hyperplane lies in the pencil spanned by the two old
                # facets through the horizon ridge; the combination below
                # contains q and is outward-oriented (both old facets keep the
                # interior reference strictly below).  When q lies on g's
                # hyperplane it is g's own.
                _, nu_g, c_g, _, nbrs_g, _ = facets[g]
                dg = beneath[g]
                nu = [df * y - dg * x for x, y in zip(nu_f, nu_g)]
                c = df * c_g - dg * c_f
                G = gcd(*nu, c)
                # The simplex ridge + (p_f, q) has |det| k_f·df through f and
                # k·df·|ν_g·p_f − c_g| / G through the new facet, where p_f is
                # f's vertex off the ridge; p_f is strictly beneath g.
                k = k_f * G // (c_g - sum(map(mul, nu_g, pts[verts[j]])))
                new_verts = tuple(sorted(verts[:j] + verts[j + 1 :] + (qi,)))
                new_fid = self._new_facet(new_verts, tuple([x // G for x in nu]), c // G, k)
                facets[new_fid][4][new_verts.index(qi)] = g
                nbrs_g[nbrs_g.index(fid)] = new_fid
                new.append(new_fid)
        orphans = []
        for fid in d:
            orphans += facets.pop(fid)[5]
        self._glue(new)
        for i in orphans:
            if i != qi:
                self._assign(i, new)


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
        multipliers=[1, 1],
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
        multipliers=[1] * m,
    )


def hull_data_int(pts: list[tuple[int, ...]], n: int, scale: int = 1) -> HullData | None:
    """Facet complex of conv(pts / scale) in dim n; None when not full-dimensional."""
    pts = list(dict.fromkeys(pts))
    if not pts:
        raise ValueError("empty point set")
    if n == 1:
        data = _hull_1d(pts)
    elif n == 2:
        data = _hull_2d(pts)
    else:
        data = _Incremental(pts, n).run()
    if data is not None:
        data.scale = scale
    return data


def hull_data(points, n: int) -> HullData | None:
    """Like hull_data_int but for Fraction coordinates (clears denominators)."""
    pts, den = scale_to_ints(points)
    return hull_data_int(pts, n, den)


def volume_of_points(points, n: int) -> Fraction:
    """Exact n-volume of the hull of rational points (0 when degenerate)."""
    data = hull_data(points, n)
    if data is None:
        return Fraction(0)
    return data.volume()
