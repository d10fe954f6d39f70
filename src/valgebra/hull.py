"""Exact convex hull, facet enumeration, triangulation and volume.

The engine works on integer coordinates (callers clear denominators first)
and runs an incremental beneath-beyond construction that maintains a
triangulated boundary complex with exact integer hyperplanes.  Visibility
tests are filtered through vectorized floating point with a certified error
bound; only near-ties fall back to exact integer dot products, so results are
exact for arbitrary inputs.

Degenerate inputs (affine dimension below the ambient one) are reported as
such; callers decide how to project.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, isfinite, lcm

import numpy as np

from .intlinalg import hyperplane_through, independent_rows, simplex_det

_ULP = 2.0 ** -53


def scale_to_ints(points) -> tuple[list[tuple[int, ...]], int]:
    """Clear denominators with one common scale for the whole point set."""
    den = 1
    for p in points:
        for c in p:
            if isinstance(c, Fraction) and c.denominator != 1:
                den = lcm(den, c.denominator)
    out = []
    for p in points:
        out.append(tuple(int(c * den) for c in p))
    return out, den


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
        """Simplices coning the lexicographically smallest boundary vertex."""
        if self._simplices is None:
            bverts = self.boundary_vertex_indices()
            apex = min(bverts, key=lambda i: self.points[i])
            simplices = []
            for verts in self.facet_vertices:
                if apex not in verts:
                    simplices.append(verts + (apex,))
            self._simplices = simplices
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
        self.facet_verts: list[tuple[int, ...]] = []
        self.normals: list[tuple[int, ...]] = []
        self.offsets: list[int] = []
        self.alive: list[bool] = []
        self.ridges: dict[tuple[int, ...], list[int]] = {}
        self._cap = 256
        self._fN = np.zeros((self._cap, n))
        self._faN = np.zeros((self._cap, n))
        self._fc = np.zeros(self._cap)
        self._fac = np.zeros(self._cap)
        self._alive_np = np.zeros(self._cap, dtype=bool)
        self._ok = np.zeros(self._cap, dtype=bool)
        self._err_c = 8.0 * (n + 4) * _ULP
        self.ref: tuple[int, ...] | None = None

    def _grow(self):
        cap = self._cap * 2
        for name in ("_fN", "_faN"):
            arr = np.zeros((cap, self.n))
            arr[: self._cap] = getattr(self, name)
            setattr(self, name, arr)
        for name, dt in (("_fc", float), ("_fac", float), ("_alive_np", bool), ("_ok", bool)):
            arr = np.zeros(cap, dtype=dt)
            arr[: self._cap] = getattr(self, name)
            setattr(self, name, arr)
        self._cap = cap

    def _add_facet_oriented(self, verts: tuple[int, ...], nu: tuple[int, ...], c: int) -> int:
        g = 0
        for x in nu:
            g = gcd(g, x)
        g = gcd(g, c)
        if g > 1:
            nu = tuple(x // g for x in nu)
            c = c // g
        fid = len(self.facet_verts)
        if fid == self._cap:
            self._grow()
        self.facet_verts.append(verts)
        self.normals.append(nu)
        self.offsets.append(c)
        self.alive.append(True)
        ok = True
        try:
            fn = [float(x) for x in nu]
            fc = float(c)
            for x in fn:
                if not isfinite(x):
                    ok = False
            if not isfinite(fc):
                ok = False
        except OverflowError:
            fn = [0.0] * self.n
            fc = 0.0
            ok = False
        self._fN[fid] = fn
        self._faN[fid] = [abs(x) for x in fn]
        self._fc[fid] = fc
        self._fac[fid] = abs(fc)
        self._alive_np[fid] = True
        self._ok[fid] = ok
        for k in range(self.n):
            ridge = verts[:k] + verts[k + 1 :]
            self.ridges.setdefault(ridge, []).append(fid)
        return fid

    def _add_facet(self, verts: tuple[int, ...]) -> int:
        nu, c = hyperplane_through(self.pts, verts)
        if all(x == 0 for x in nu):
            raise ArithmeticError("degenerate facet candidate")
        t = sum(a * b for a, b in zip(nu, self.ref)) - (self.n + 1) * c
        if t > 0:
            nu = tuple(-x for x in nu)
            c = -c
        elif t == 0:
            raise ArithmeticError("orientation reference lies on a facet")
        return self._add_facet_oriented(verts, nu, c)

    def _kill_facet(self, fid: int):
        self.alive[fid] = False
        self._alive_np[fid] = False
        verts = self.facet_verts[fid]
        for k in range(self.n):
            ridge = verts[:k] + verts[k + 1 :]
            lst = self.ridges.get(ridge)
            if lst is not None:
                lst.remove(fid)
                if not lst:
                    del self.ridges[ridge]

    def _exact_d(self, fid: int, q: tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(self.normals[fid], q)) - self.offsets[fid]

    def _visible_facets(self, q: tuple[int, ...]) -> list[int]:
        r = len(self.facet_verts)
        try:
            qf = np.array([float(x) for x in q])
            finite = bool(np.all(np.isfinite(qf)))
        except OverflowError:
            finite = False
        alive = self._alive_np[:r]
        if finite:
            d = self._fN[:r] @ qf - self._fc[:r]
            err = self._err_c * (self._faN[:r] @ np.abs(qf) + self._fac[:r])
            ok = self._ok[:r] & np.isfinite(d) & np.isfinite(err)
            vis = alive & ok & (d > err)
            unc = alive & ~(vis | (ok & (d < -err)))
        else:
            vis = np.zeros(r, dtype=bool)
            unc = alive.copy()
        out = [int(f) for f in np.nonzero(vis)[0]]
        for fid in np.nonzero(unc)[0]:
            if self._exact_d(int(fid), q) >= 0:
                out.append(int(fid))
        return out

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
        alive_ids = [i for i, a in enumerate(self.alive) if a]
        return HullData(
            dim=n,
            points=self.pts,
            scale=1,
            facet_vertices=[self.facet_verts[i] for i in alive_ids],
            normals=[self.normals[i] for i in alive_ids],
            offsets=[self.offsets[i] for i in alive_ids],
        )

    def _far_key(self, i: int) -> float:
        try:
            v = [float(x) for x in self.pts[i]]
        except OverflowError:
            return float("inf")
        r = tuple(float(x) / (self.n + 1) for x in self.ref)
        s = sum((a - b) ** 2 for a, b in zip(v, r))
        return s if np.isfinite(s) else float("inf")

    def _insert(self, qi: int):
        q = self.pts[qi]
        visible = self._visible_facets(q)
        if not visible:
            return
        vis_set = set(visible)
        d_cache: dict[int, int] = {}

        def d_of(fid: int) -> int:
            d = d_cache.get(fid)
            if d is None:
                d = self._exact_d(fid, q)
                d_cache[fid] = d
            return d

        horizon: list[tuple[tuple[int, ...], int, int]] = []
        for fid in visible:
            verts = self.facet_verts[fid]
            for k in range(self.n):
                ridge = verts[:k] + verts[k + 1 :]
                lst = self.ridges[ridge]
                other = None
                for f in lst:
                    if f != fid:
                        other = f
                if other is None or other not in vis_set:
                    horizon.append((ridge, fid, other))
        for fid in visible:
            self._kill_facet(fid)
        for ridge, fvis, ginv in horizon:
            verts = tuple(sorted(ridge + (qi,)))
            if ginv is None:
                raise ArithmeticError("boundary complex lost a ridge neighbor")
            # The new hyperplane lies in the pencil spanned by the two old
            # facets through the ridge; the combination below contains q and
            # is automatically outward-oriented (both old facets keep the
            # interior reference strictly below).
            df = d_of(fvis)
            dg = d_of(ginv)
            nu_f, c_f = self.normals[fvis], self.offsets[fvis]
            nu_g, c_g = self.normals[ginv], self.offsets[ginv]
            a, b = -dg, df
            nu = tuple(a * x + b * y for x, y in zip(nu_f, nu_g))
            c = a * c_f + b * c_g
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
