"""Stress tests of the exact hull engine against independent references."""

import random
from fractions import Fraction
from math import factorial

import pytest

from valgebra.geometry import hull
from valgebra.hull import hull_data_int, hull2d_extreme, volume_of_points

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
        # Coordinates past the float filter's comfort zone must still work.
        big = 10 ** 40
        pts = [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big)]
        data = hull_data_int(pts, 3)
        # Corner simplex (b^3/6) glued to the far tetrahedron (b^3/3).
        assert data.volume() == F(big ** 3, 2)
