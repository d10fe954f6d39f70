"""Stress tests of the exact hull engine against independent references."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from operator import mul

import pytest

from valgebra.geometry import hull
from valgebra.hull import hull_data_int, hull2d_extreme, volume_of_points
from valgebra.intlinalg import bareiss_det, independent_rows, simplex_det

scipy_spatial = pytest.importorskip("scipy.spatial")

F = Fraction


def qhull_vertices(pts):
    """Vertex set of a full-dimensional point set according to Qhull."""
    qh = scipy_spatial.ConvexHull([list(map(float, p)) for p in pts])
    return {tuple(pts[i]) for i in qh.vertices}


def brute_volume_2d(pts):
    """Shoelace over an independently computed extreme ring."""
    ring = hull2d_extreme(pts)
    if len(ring) < 3:
        return 0
    s = 0
    for i in range(len(ring)):
        a, b = ring[i], ring[(i + 1) % len(ring)]
        s += a[0] * b[1] - a[1] * b[0]
    return abs(s)


class TestEngineAgainstQhull:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_random_integer_sets(self, dim):
        rng = random.Random(100 + dim)
        for trial in range(6):
            pts = [tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(dim * 5)]
            data = hull_data_int(list(dict.fromkeys(pts)), dim)
            if data is None:
                continue
            exact = float(data.volume())
            qh = scipy_spatial.ConvexHull([list(map(float, p)) for p in pts], qhull_options="QJ")
            assert exact == pytest.approx(qh.volume, rel=1e-6, abs=1e-6)

    def test_vertices_on_paraboloid_lifts(self):
        # Every lifted grid point is a vertex; the grid makes many of them
        # coplanar with each other in the plane projections.
        grid3 = [(F(x), F(y), F(x * x + y * y)) for x in range(-2, 3) for y in range(-2, 3)]
        grid4 = [(F(x), F(y), F(z), F(x * x + y * y + z * z)) for x in range(-1, 2) for y in range(-1, 2) for z in range(-1, 2)]
        for pts in (grid3, grid4):
            assert set(hull(pts).vertices) == qhull_vertices(pts) == set(pts)
        rng = random.Random(7)
        for _ in range(40):
            pts = list(dict.fromkeys(rng.sample(grid3, 6)))
            assert set(hull(pts).vertices) == qhull_vertices(pts) == set(pts)

    @pytest.mark.parametrize("dim, sizes", [(3, (4, 6, 7)), (4, (6, 8))])
    def test_vertex_sets_of_random_sets(self, dim, sizes):
        rng = random.Random(20240 + dim)
        for m in sizes:
            done = 0
            while done < 200:
                pts = list(dict.fromkeys(tuple(F(rng.randint(-12, 12), 4) for _ in range(dim)) for _ in range(m)))
                if hull_data_int([tuple(int(4 * c) for c in p) for p in pts], dim) is None:
                    continue  # flat: Qhull needs a full-dimensional set
                assert set(hull(pts, dim).vertices) == qhull_vertices(pts)
                done += 1

    def test_highly_degenerate_grid(self):
        # Every point of a lattice box: massive coplanarity everywhere.
        pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        data = hull_data_int(pts, 3)
        assert data.volume() == 8

    def test_cocircular_points(self):
        # 12 points on a circle plus center: all ties on the boundary.
        pts = [(4, 0), (-4, 0), (0, 4), (0, -4), (2, 3), (3, 2), (-2, 3), (-3, 2),
               (2, -3), (3, -2), (-2, -3), (-3, -2), (0, 0)]
        sq = [(p[0] ** 2 + p[1] ** 2) for p in pts[:-1]]
        # Not all on one circle, but heavy symmetry regardless; compare routes.
        assert volume_of_points([tuple(map(F, p)) for p in pts], 2) * 2 == brute_volume_2d(pts)

    def test_pyramids_with_coplanar_apex_insertions(self):
        # Apex inserted last after its base plane is fully triangulated.
        base = [(x, y, 0) for x in range(3) for y in range(3)]
        pts = base + [(1, 1, 3), (1, 1, -3)]
        data = hull_data_int(pts, 3)
        assert data.volume() == F(8, 1)  # two pyramids: 2 * (4 * 3) / 3

    def test_cross_polytope_dims(self):
        for n in (3, 4, 5):
            pts = []
            for i in range(n):
                for s in (1, -1):
                    pts.append(tuple(s if j == i else 0 for j in range(n)))
            data = hull_data_int(pts, n)
            assert data.volume() == F(2 ** n, factorial(n))

    def test_insertion_order_independence(self):
        rng = random.Random(5)
        pts = [tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(30)]
        pts = list(dict.fromkeys(pts))
        vol0 = hull_data_int(pts, 4).volume()
        for _ in range(3):
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert hull_data_int(shuffled, 4).volume() == vol0

    def test_big_coordinates_fall_back_exactly(self):
        # Coordinates far beyond double precision must still work exactly.
        big = 10 ** 40
        pts = [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big)]
        data = hull_data_int(pts, 3)
        # Corner simplex (b^3/6) glued to the far tetrahedron (b^3/3).
        assert data.volume() == F(big ** 3, 2)


def test_points_on_the_boundary_are_not_inserted():
    # The face centre lies on the hyperplane z = 0 of facets built before it.
    corners = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    data = hull_data_int(corners + [(1, 1, 0)], 3)
    assert 8 not in data.boundary_vertex_indices()
    assert data.vertex_indices() == list(range(8))
    assert data.volume() == 8


def rank_test_vertices(data):
    """Boundary points whose incident facet normals have rank n: the vertex
    test that the meet of facet masks replaced, kept as its oracle."""
    incident = {}
    for verts, nu in zip(data.facet_vertices, data.normals):
        for i in verts:
            incident.setdefault(i, set()).add(nu)
    n = data.dim
    return sorted(i for i, normals in incident.items() if len(normals) >= n and len(independent_rows(normals, n)[0]) == n)


def test_vertex_meet_matches_rank_test():
    # Sums of 0/1 points put boundary points inside edges and facets of the
    # hull: when a and b both hold 0 and e_1, e_1 + 0 halves the edge from
    # 0 + 0 to e_1 + e_1.
    rng = random.Random(31337)
    with_non_vertices = set()
    for n in (3, 4, 5, 6):
        cube = list(product((0, 1), repeat=n))
        for _ in range(6):
            a, b = rng.sample(cube, n + 2), rng.sample(cube, 3)
            data = hull_data_int(list(dict.fromkeys(tuple(map(sum, zip(p, q))) for p in a for q in b)), n)
            if data is None:
                continue
            vertices = data.vertex_indices()
            assert vertices == rank_test_vertices(data)
            if len(vertices) < len(data.boundary_vertex_indices()):
                with_non_vertices.add(n)
    assert with_non_vertices == {3, 4, 5, 6}


def boundary_complex_cases():
    rng = random.Random(2718)
    for dim in (3, 4, 5, 6):
        for _ in range(8):
            yield [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(dim + rng.randint(1, 12))], dim
    yield [(x, y, z) for x in range(3) for y in range(3) for z in range(3)], 3
    yield [(x, y, x * x + y * y) for x in range(-2, 3) for y in range(-2, 3)], 3
    yield [(x, y, z, x * x + y * y + z * z) for x in range(-1, 2) for y in range(-1, 2) for z in range(-1, 2)], 4


def test_boundary_complex_invariants():
    checked = 0
    for pts, n in boundary_complex_cases():
        pts = list(dict.fromkeys(pts))
        data = hull_data_int(pts, n)
        if data is None:
            continue
        checked += 1
        ridges = Counter()
        for verts, nu, c in zip(data.facet_vertices, data.normals, data.offsets):
            assert len(set(verts)) == n
            assert gcd(*nu, c) == 1
            for i in verts:
                assert sum(a * b for a, b in zip(nu, pts[i])) == c
            for p in pts:
                assert sum(a * b for a, b in zip(nu, p)) <= c
            for k in range(n):
                ridges[verts[:k] + verts[k + 1 :]] += 1
        assert set(ridges.values()) == {2}
    assert checked >= 30


def test_fan_triangulation_has_no_flat_simplices():
    # Facets whose hyperplane holds the apex would be coned into flat
    # simplices; the remaining cones still tile the body.
    box = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    lift = [(x, y, z, x * x + y * y + z * z) for x in range(-1, 2) for y in range(-1, 2) for z in range(-1, 2)]
    for pts, n, vol in ((box, 3, 8), (lift, 4, 12)):
        data = hull_data_int(pts, n)
        assert all(simplex_det(data.points, s) != 0 for s in data.fan_triangulation())
        assert data.volume() == vol


def small_hull_cases():
    """Seeded inputs in dimensions 1 to 6, small enough for n-subset brute force."""
    rng = random.Random(4242)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(4):
            yield [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + rng.randint(1, 4))], n
    # Minkowski sums of small simplices: many coplanar points and facets.
    for n, extra in ((2, 3), (3, 3), (3, 2), (4, 2), (5, 2), (6, 2)):
        for _ in range(2):
            a = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n + 1)]
            b = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(extra)]
            yield [tuple(x + y for x, y in zip(p, q)) for p in a for q in b], n
    # Points on facet hyperplanes: edge midpoints of an even simplex, and
    # affine combinations a + b - c in the plane of three of its vertices.
    for n in (2, 3, 4, 5, 6):
        for _ in range(2):
            simplex = [tuple(2 * rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 1)]
            pairs = rng.sample(list(combinations(simplex, 2)), 3)
            on = [tuple((x + y) // 2 for x, y in zip(p, q)) for p, q in pairs]
            on += [tuple(x + y - z for x, y, z in zip(*rng.sample(simplex, 3))) for _ in range(2)]
            yield simplex + on, n
    big = 10**40
    yield [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big)], 3


def hyperplane_through(points, idxs):
    """Integer normal and offset of the hyperplane through n points in dim n,
    normal·x == c on it: the cofactor normal, whose entries are the n×n minors
    of the edge vectors.  The normal is 0 when the points are affinely
    dependent."""
    base = points[idxs[0]]
    n = len(base)
    edges = [[points[i][j] - base[j] for j in range(n)] for i in idxs[1:]]
    normal = tuple((-1) ** j * bareiss_det([row[:j] + row[j + 1 :] for row in edges]) for j in range(n))
    return normal, sum(map(mul, normal, base))


def test_initial_facets_are_cofactor_hyperplanes():
    # A simplex's hull is its initial simplex: each facet is the reduced,
    # outward cofactor hyperplane of its vertices, with the gcd as multiplier.
    rng = random.Random(8080)
    for n in range(3, 9):
        done = 0
        while done < 6:
            pts = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n + 1)]
            data = hull_data_int(pts, n)
            if data is None:
                continue
            done += 1
            assert len(data.facet_vertices) == n + 1
            for verts, nu, c, k in zip(data.facet_vertices, data.normals, data.offsets, data.multipliers):
                cof, off = hyperplane_through(pts, verts)
                (apex,) = set(range(n + 1)) - set(verts)
                if sum(map(mul, cof, pts[apex])) > off:
                    cof, off = tuple(-x for x in cof), -off
                g = gcd(*cof, off)
                assert (nu, c, k) == (tuple(x // g for x in cof), off // g, g)


def reduced(nu, c):
    g = gcd(*nu, c)
    return tuple(x // g for x in nu), c // g


def brute_force_hull(pts, n):
    """Facet hyperplanes (reduced, outward) and vertex indices of the hull,
    from the hyperplanes through every n-subset of the points."""
    cuts = []
    for idxs in combinations(range(len(pts)), n):
        nu, c = hyperplane_through(pts, idxs)
        if any(nu):
            cuts.append((idxs, nu, c, [sum(map(mul, nu, p)) - c for p in pts]))

    def supporting(skip):
        """Outward hyperplanes with every point but skip on one side, each
        mapped to skip's value ν·p − c (None when skip is None)."""
        planes = {}
        for idxs, nu, c, vals in cuts:
            if skip in idxs:
                continue
            sides = {(t > 0) - (t < 0) for j, t in enumerate(vals) if j != skip} - {0}
            if len(sides) == 1:
                s = -sides.pop()
                planes[reduced(tuple(s * x for x in nu), s * c)] = None if skip is None else s * vals[skip]
        return planes

    # A point is a vertex iff it lies outside the hull of the others; when
    # the others are not full-dimensional, no hyperplane supports them.
    vertices = []
    for i in range(len(pts)):
        others = supporting(i)
        if not others or any(t > 0 for t in others.values()):
            vertices.append(i)
    return set(supporting(None)), vertices


def test_fan_dets_are_simplex_determinants():
    checked = 0
    for pts, n in small_hull_cases():
        data = hull_data_int(list(dict.fromkeys(pts)), n)
        if data is None:
            continue
        checked += 1
        dets = [abs(simplex_det(data.points, s)) for s in data.fan_triangulation()]
        assert data.fan_dets() == dets
        assert all(dets)
    assert checked >= 40


def test_facets_and_vertices_match_brute_force():
    checked = 0
    for pts, n in small_hull_cases():
        pts = list(dict.fromkeys(pts))
        data = hull_data_int(pts, n)
        planes, vertices = brute_force_hull(pts, n)
        if data is None:
            assert not planes
            continue
        checked += 1
        assert {reduced(nu, c) for nu, c in zip(data.normals, data.offsets)} == planes
        assert data.vertex_indices() == vertices
    assert checked >= 40
