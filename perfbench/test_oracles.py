"""Textbook cases for the benchmark's oracles.

Run with `python3 -m pytest perfbench/test_oracles.py` from the repository root.
"""

from fractions import Fraction as F
from math import pi

import oracles as o

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]


def test_hull2_drops_interior_and_collinear_points():
    pts = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 2), 0)]
    assert sorted(o.hull2(pts)) == sorted((F(x), F(y)) for x, y in SQUARE)
    assert o.hull2([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]


def test_shoelace_area():
    assert o.area2(SQUARE) == 1
    assert o.area2(TRIANGLE) == F(1, 2)
    assert o.area2([(0, 0), (4, 0), (0, 3)]) == 6
    assert o.area2([(0, 0), (1, 1)]) == 0


def test_monomial_moments():
    assert o.moment2(SQUARE, 1, 0) == F(1, 2)
    assert o.moment2(SQUARE, 1, 1) == F(1, 4)
    assert o.moment2(SQUARE, 2, 3) == F(1, 12)
    assert o.moment2(TRIANGLE, 1, 0) == F(1, 6)
    assert o.moment2(TRIANGLE, 2, 0) == F(1, 12)
    assert o.moment2(TRIANGLE, 1, 1) == F(1, 24)
    # Dirichlet: integral of x^a y^b over the standard triangle is a! b! / (a+b+2)!.
    assert o.moment2(TRIANGLE, 3, 2) == F(6 * 2, 5040)


def test_integrate_polynomial_products():
    f = {(1, 0): 1}
    g = {(0, 1): 2, (0, 0): 1}
    assert o.poly_mul(f, g) == {(1, 1): 2, (1, 0): 1}
    assert o.integrate2(SQUARE, o.poly_mul(f, g)) == F(1, 2) + F(1, 2)


def test_mixed_area_by_polarization():
    assert o.mixed_area(SQUARE, SQUARE) == 1
    assert o.mixed_area(TRIANGLE, TRIANGLE) == F(1, 2)
    # Two orthogonal unit segments span a unit square: V(A, B) = 1/2.
    assert o.mixed_area([(0, 0), (1, 0)], [(0, 0), (0, 1)]) == F(1, 2)
    # V(K, -K) for the standard triangle: area(K - K) = 3, so V = (3 - 1) / 2.
    assert o.mixed_area(TRIANGLE, o.neg(TRIANGLE)) == 1


def test_perimeter_bounds_bracket_the_true_perimeter():
    lo, hi = o.perimeter_bounds(TRIANGLE)
    assert lo <= 2 + 2**0.5 <= hi and hi - lo < F(1, 10**11)
    assert o.perimeter_bounds(SQUARE)[0] <= 4 <= o.perimeter_bounds(SQUARE)[1]
    assert o.PI_LO < pi < o.PI_HI


def test_qhull_volumes_and_mixed_volumes():
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert abs(o.volume_qhull(cube) - 1) < 1e-12
    assert abs(o.volume_qhull(simplex) - 1 / 6) < 1e-12
    assert o.volume_qhull([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 0.0
    v, _ = o.mixed_volume_qhull([simplex] * 3)
    assert abs(v - 1 / 6) < 1e-12
    segs = [[(0, 0, 0), tuple(int(i == j) for j in range(3))] for i in range(3)]
    v, _ = o.mixed_volume_qhull(segs)
    assert abs(v - 1 / 6) < 1e-12  # V(e1, e2, e3) = vol(unit cube) / 3!


def test_rank():
    assert o.rank([[1, 2], [2, 4]]) == 1
    assert o.rank([[1, 0], [0, 1]]) == 2
    assert o.rank([[0, 0], [0, 0]]) == 0
