import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valgebra.geometry import (
    Polytope,
    _octa_mesh,
    affine_dim,
    ball_approx,
    cartesian_product,
    contains,
    contains_point,
    diagonal_embed,
    hausdorff_distance,
    hull,
    minkowski_sum,
    point_polytope_sqdist,
    reflect,
    scale,
    support,
    translate,
    volume,
)
from valgebra.lp import point_in_hull
from valgebra.samples import box, random_polytope, segment, standard_simplex, unit_cube

from conftest import rational_points

F = Fraction


def tri(*pts):
    return hull([tuple(map(F, p)) for p in pts], 2)


# --- independent oracle: a from-scratch planar hull via monotone sweep -----
def graham_extremes(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lo = []
    for p in pts:
        while len(lo) >= 2 and cross(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    hi = []
    for p in reversed(pts):
        while len(hi) >= 2 and cross(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    out = lo[:-1] + hi[:-1]
    return sorted(out) if len(out) >= 3 else [pts[0], pts[-1]]


class TestHull:
    def test_square_interior_point_removed(self):
        P = hull([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))], 2)
        assert P.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))

    def test_single_point(self):
        P = hull([(3, 4)], 2)
        assert P.vertices == ((F(3), F(4)),)

    def test_random_interior_points_plus_corners(self, rng):
        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        pts = list(corners)
        for _ in range(20):
            pts.append((F(rng.randint(1, 7), 8), F(rng.randint(1, 7), 8)))
        P = hull(pts, 2)
        assert sorted(P.vertices) == sorted((F(a), F(b)) for a, b in corners)

    def test_idempotent(self, rng):
        for _ in range(5):
            pts = rational_points(rng, 8, 3)
            P = hull(pts, 3)
            assert hull(P.vertices, 3) == P

    def test_matches_independent_planar_oracle(self, rng):
        for _ in range(10):
            pts = rational_points(rng, 12, 2)
            ours = sorted(hull(pts, 2).vertices)
            oracle = sorted(graham_extremes([tuple(p) for p in pts]))
            assert ours == oracle

    def test_lower_dimensional_input(self):
        P = hull([(0, 0, 0), (1, 1, 0), (2, 2, 0), (F(1, 2), F(1, 2), 0)], 3)
        assert sorted(P.vertices) == [(F(0), F(0), F(0)), (F(2), F(2), F(0))]

    def test_errors(self):
        with pytest.raises(ValueError):
            hull([], 2)
        with pytest.raises(ValueError):
            hull([(0, 0), (1,)], 2)

    def test_sphere_mesh_vertex_is_outside_the_others(self):
        m = _octa_mesh(2)
        assert not point_in_hull(m[6], m[:6] + m[7:])
        assert point_in_hull(tuple(F(0) for _ in range(3)), m[:6])
        assert not point_in_hull((F(0), F(0), F(1)), [(F(0), F(0), F(0)), (F(1), F(0), F(0))])
        assert point_in_hull((F(1, 2), F(0), F(0)), [(F(0), F(0), F(0)), (F(1), F(0), F(0))])

    def test_random_polytope_needs_enough_points(self):
        with pytest.raises(ValueError):
            random_polytope(3, random.Random(0), n_points=3)
        assert affine_dim(random_polytope(3, random.Random(0), n_points=4)) == 3


class TestMinkowskiSum:
    def test_squares(self):
        got = minkowski_sum(unit_cube(2), unit_cube(2))
        assert got == box([(0, 2), (0, 2)])

    def test_neutral_element(self, rng):
        zero = hull([(0, 0)], 2)
        P = hull(rational_points(rng, 6, 2), 2)
        assert minkowski_sum(P, zero) == P

    def test_segments_make_square(self):
        got = minkowski_sum(segment(2, 0), segment(2, 1))
        assert got == unit_cube(2)

    def test_commutative(self, rng):
        P = hull(rational_points(rng, 5, 2), 2)
        Q = hull(rational_points(rng, 5, 2), 2)
        assert minkowski_sum(P, Q) == minkowski_sum(Q, P)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(unit_cube(2), unit_cube(3))


class TestAffineMaps:
    def test_scale(self):
        assert scale(unit_cube(2), 2) == box([(0, 2), (0, 2)])
        assert scale(unit_cube(2), 0).vertices == ((F(0), F(0)),)
        with pytest.raises(ValueError):
            scale(unit_cube(2), -1)

    def test_reflect(self):
        assert reflect(unit_cube(2)) == box([(-1, 0), (-1, 0)])
        P = tri((0, 0), (1, 0), (0, 1))
        assert reflect(reflect(P)) == P

    def test_translate(self):
        got = translate(tri((0, 0), (1, 0), (0, 1)), (1, 1))
        assert got == tri((1, 1), (2, 1), (1, 2))

    def test_reflect_preserves_volume(self, rng):
        P = hull(rational_points(rng, 7, 2), 2)
        assert volume(reflect(P)) == volume(P)


class TestProductsAndDiagonal:
    def test_interval_product(self):
        got = cartesian_product(segment(1, 0), segment(1, 0))
        assert got == unit_cube(2)

    def test_product_with_point(self):
        P = tri((0, 0), (1, 0), (0, 1))
        pt = hull([(5,)], 1)
        got = cartesian_product(P, pt)
        assert got.dim == 3
        assert sorted(got.vertices) == [(F(0), F(0), F(5)), (F(0), F(1), F(5)), (F(1), F(0), F(5))]

    def test_prism_vertices_all_extreme(self):
        P = cartesian_product(tri((0, 0), (1, 0), (0, 1)), segment(1, 0))
        assert len(P.vertices) == 6
        assert hull(P.vertices, 3) == P

    def test_product_volume_multiplies(self, rng):
        P = hull(rational_points(rng, 6, 2), 2)
        Q = hull(rational_points(rng, 4, 1), 1)
        assert volume(cartesian_product(P, Q)) == volume(P) * volume(Q)

    def test_diagonal_point(self):
        P = hull([(2, 3)], 2)
        assert diagonal_embed(P).vertices == ((F(2), F(3), F(2), F(3)),)

    def test_diagonal_segment(self):
        got = diagonal_embed(segment(1, 0))
        assert sorted(got.vertices) == [(F(0), F(0)), (F(1), F(1))]

    def test_diagonal_preserves_affine_dim(self):
        D = diagonal_embed(unit_cube(2))
        assert D.dim == 4
        assert affine_dim(D) == 2
        assert volume(D) == 0


class TestSupport:
    def test_square(self):
        assert support(unit_cube(2), (1, 1)) == 2

    def test_zero_direction(self, rng):
        P = hull(rational_points(rng, 5, 2), 2)
        assert support(P, (0, 0)) == 0

    def test_additive_under_sum(self, rng):
        for _ in range(10):
            P = hull(rational_points(rng, 5, 2), 2)
            Q = hull(rational_points(rng, 5, 2), 2)
            y = tuple(F(rng.randint(-8, 8), 4) for _ in range(2))
            assert support(minkowski_sum(P, Q), y) == support(P, y) + support(Q, y)


class TestVolume:
    def test_cube(self):
        assert volume(unit_cube(3)) == 1

    def test_simplex(self):
        assert volume(standard_simplex(3)) == F(1, 6)

    def test_homogeneity(self, rng):
        P = hull(rational_points(rng, 7, 2), 2)
        for lam in (F(0), F(1), F(2), F(3), F(1, 2)):
            assert volume(scale(P, lam)) == lam ** 2 * volume(P)

    def test_translation_invariance(self, rng):
        P = hull(rational_points(rng, 6, 3), 3)
        assert volume(translate(P, (F(1, 3), -2, F(5, 7)))) == volume(P)

    def test_degenerate_zero(self):
        assert volume(segment(3, 1)) == 0

    def test_scaling_law_square(self):
        assert volume(box([(0, 2), (0, 2)])) == 4 == 2 ** 2 * volume(unit_cube(2))


class TestAffineDim:
    def test_point(self):
        assert affine_dim(hull([(1, 2, 3)], 3)) == 0

    def test_segment_in_3d(self):
        assert affine_dim(segment(3, 2)) == 1

    def test_diagonal_of_square(self):
        assert affine_dim(diagonal_embed(unit_cube(2))) == 2


class TestHausdorff:
    # A triangle tilted in the plane x + y = 2z of R^3, whose normal is (1, 1, -2).
    TILTED = [(0, 0, 0), (2, 0, 1), (0, 2, 1)]

    def test_flat_triangle_in_space(self):
        T = hull([tuple(map(F, p)) for p in self.TILTED], 3)
        assert len(T.vertices) == 3 and affine_dim(T) == 2
        cases = [
            ((F(1, 2), F(1, 2), F(1, 2)), True, 0),  # in the plane, inside
            ((F(2), F(0), F(1)), True, 0),  # a vertex
            ((F(2), F(2), F(2)), False, 3),  # in the plane, nearest (1, 1, 1)
            ((F(1), F(1), F(-1, 2)), False, F(3, 2)),  # off the plane above an inside point
            ((F(1), F(1), F(3, 4)), False, F(1, 24)),  # just off the plane, nearest (11/12, 11/12, 11/12)
            ((F(3, 2), F(7, 4), F(1)), False, F(25, 32)),  # off the plane, nearest (7/8, 9/8, 1)
            ((F(3), F(3), F(0)), False, 9),  # off the plane and outside
        ]
        for x, inside, d2 in cases:
            assert contains_point(T, x) is inside
            assert point_polytope_sqdist(x, T) == d2
        Q = hull([tuple(map(F, p)) for p in self.TILTED + [(2, 2, 2)]], 3)
        assert hausdorff_distance(T, Q) == pytest.approx(math.sqrt(3))
        apex = hull([tuple(map(F, p)) for p in self.TILTED] + [(F(1), F(1), F(3, 4))], 3)
        assert hausdorff_distance(T, apex) == pytest.approx(math.sqrt(F(1, 24)))
        assert hausdorff_distance(T, translate(T, (1, 1, -2))) == pytest.approx(math.sqrt(6))

    def test_self_distance_zero(self, rng):
        P = hull(rational_points(rng, 6, 2), 2)
        assert hausdorff_distance(P, P) == 0.0

    def test_nested_squares(self):
        got = hausdorff_distance(unit_cube(2), box([(0, 2), (0, 2)]))
        assert got == pytest.approx(math.sqrt(2))

    def test_translation_bound(self, rng):
        for _ in range(5):
            P = hull(rational_points(rng, 5, 2), 2)
            x = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
            norm = math.sqrt(x[0] ** 2 + x[1] ** 2)
            assert hausdorff_distance(P, translate(P, x)) <= norm + 1e-12

    def test_triangle_inequality_samples(self, rng):
        ps = [hull(rational_points(rng, 5, 2), 2) for _ in range(3)]
        d01 = hausdorff_distance(ps[0], ps[1])
        d12 = hausdorff_distance(ps[1], ps[2])
        d02 = hausdorff_distance(ps[0], ps[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_point_distance_flat_body(self):
        s = segment(2, 0)
        assert point_polytope_sqdist((F(1, 2), F(2)), s) == 4
        assert point_polytope_sqdist((F(3), F(0)), s) == 4


# --- reference oracle: nearest point over every vertex subset ---------------
def _gauss_solve(g, b):
    """Gauss-Jordan on a square Fraction system; None when it is singular."""
    k = len(g)
    m = [row[:] + [rhs] for row, rhs in zip(g, b)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * c for a, c in zip(m[r], m[col])]
    return [m[i][k] / m[i][i] for i in range(k)]


def subset_sqdist(p, P):
    """min |p - q|^2 over affinely independent vertex sets S and the
    projection q of p to aff(S), when q lies in conv(S)."""
    from itertools import combinations

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), F(0))

    best = None
    for k in range(1, P.dim + 2):
        for face in combinations(P.vertices, k):
            base = face[0]
            dirs = [tuple(a - b for a, b in zip(v, base)) for v in face[1:]]
            w = tuple(a - b for a, b in zip(p, base))
            ts = _gauss_solve([[dot(a, b) for b in dirs] for a in dirs], [dot(a, w) for a in dirs])
            if ts is None or any(t < 0 for t in ts) or sum(ts) > 1:
                continue
            q = list(base)
            for t, d in zip(ts, dirs):
                q = [a + t * c for a, c in zip(q, d)]
            d2 = dot([a - b for a, b in zip(p, q)], [a - b for a, b in zip(p, q)])
            best = d2 if best is None else min(best, d2)
    return best


def _flat_body_in_space(rng):
    """2 to 5 points in a random plane or on a random line of R^3."""
    origin = [F(rng.randint(-6, 6), 2) for _ in range(3)]
    axes = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(rng.choice((1, 2)))]
    pts = []
    for _ in range(rng.randint(2, 5)):
        coef = [F(rng.randint(-4, 4), 2) for _ in axes]
        pts.append(tuple(o + sum((c * a[i] for c, a in zip(coef, axes)), F(0)) for i, o in enumerate(origin)))
    return hull(pts, 3)


def test_point_distance_matches_subset_oracle():
    rng = random.Random(20261018)
    makers = [
        lambda: hull(rational_points(rng, rng.randint(1, 7), 2, denom=2), 2),
        lambda: hull(rational_points(rng, rng.randint(4, 7), 3, denom=2), 3),
        lambda: _flat_body_in_space(rng),
    ]
    for make in makers:
        for _ in range(100):
            P = make()
            p = tuple(F(rng.randint(-16, 16), 4) for _ in range(P.dim))
            if rng.random() < 0.5:  # an affine combination: in the plane of a flat body
                cs = [F(rng.randint(-4, 8), 4) for _ in P.vertices]
                cs[0] += 1 - sum(cs)
                p = tuple(sum((c * v[i] for c, v in zip(cs, P.vertices)), F(0)) for i in range(P.dim))
            assert point_polytope_sqdist(p, P) == subset_sqdist(p, P), (p, P.vertices)


class TestBallApprox:
    def test_hexagon_level_one(self):
        B = ball_approx(2, 1, "inscribed")
        assert len(B.vertices) == 6
        for v in B.vertices:
            assert v[0] ** 2 + v[1] ** 2 <= 1

    def test_area_converges_from_below(self):
        B = ball_approx(2, 5, "inscribed")
        area = volume(B)
        assert area < F(314159265358979324, 10 ** 17)
        assert float(area) == pytest.approx(math.pi, abs=5e-3)

    def test_containment_every_level(self):
        for level in (1, 2, 3):
            i2 = ball_approx(2, level, "inscribed")
            c2 = ball_approx(2, level, "circumscribed")
            assert contains(c2, i2)
        i3 = ball_approx(3, 1, "inscribed")
        c3 = ball_approx(3, 1, "circumscribed")
        assert contains(c3, i3)

    def test_inscribed_nested_across_levels(self):
        assert contains(ball_approx(2, 3, "inscribed"), ball_approx(2, 2, "inscribed"))
        assert contains(ball_approx(3, 2, "inscribed"), ball_approx(3, 1, "inscribed"))

    def test_circumscribed_contains_ball_certificate(self):
        from valgebra.geometry import facet_inequalities

        for n, level in ((2, 2), (3, 1)):
            C = ball_approx(n, level, "circumscribed")
            for nu, c in facet_inequalities(C):
                assert c > 0
                assert c * c >= sum(F(a) * a for a in nu)

    def test_facet_inequalities_one_row_per_facet(self):
        from valgebra.geometry import facet_inequalities

        assert len(facet_inequalities(unit_cube(3))) == 6
        octa = hull([tuple(F(s) if j == i else F(0) for j in range(3)) for i in range(3) for s in (1, -1)], 3)
        assert len(facet_inequalities(octa)) == 8
        for nu, c in facet_inequalities(octa):
            assert c == 1 and all(abs(a) == 1 for a in nu)

    def test_circumscribed_ball_unchanged_by_facet_rows(self):
        from valgebra.geometry import facet_inequalities
        from valgebra.hull import hull_data

        for level in (1, 2):
            inner = ball_approx(3, level, "inscribed")
            data = hull_data(list(inner.vertices), 3)
            # One row per boundary simplex, as the facet description had
            # before it merged coplanar simplices.
            simplex_rows = [(nu, F(c, data.scale)) for nu, c in zip(data.normals, data.offsets)]
            rows = facet_inequalities(inner)
            assert len(rows) == len(set(rows)) and set(rows) == set(simplex_rows)
            worst = max(sum(a * a for a in nu) / (c * c) for nu, c in simplex_rows)
            den = 2**30
            sigma = F(math.ceil(math.sqrt(float(worst)) * den), den)
            while sigma * sigma < worst:
                sigma += F(1, den)
            assert ball_approx(3, level, "circumscribed") == scale(inner, sigma)

    def test_hausdorff_error_decays(self):
        errs = []
        for level in (1, 2, 3):
            i2 = ball_approx(2, level, "inscribed")
            c2 = ball_approx(2, level, "circumscribed")
            errs.append(hausdorff_distance(i2, c2))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] <= 2.0 * 4.0 ** (-3)

    def test_sphere_hausdorff_distances(self):
        inner, outer = ball_approx(3, 2, "inscribed"), ball_approx(3, 2, "circumscribed")
        sq = max(
            max(point_polytope_sqdist(v, outer) for v in inner.vertices),
            max(point_polytope_sqdist(w, inner) for w in outer.vertices),
        )
        assert sq == F(58247374754015041, 1152921504606846976)
        assert hausdorff_distance(inner, outer) == math.sqrt(sq)
        level3 = hausdorff_distance(ball_approx(3, 3, "inscribed"), ball_approx(3, 3, "circumscribed"))
        assert level3 < math.sqrt(sq)

    def test_rejects_an_inscribed_vertex_outside_the_ball(self, monkeypatch):
        import valgebra.geometry as geometry

        table = dict(geometry._disc_vertex_table(1))
        table[F(0)] = (F(1), F(1, 1024))
        monkeypatch.setattr(geometry, "_disc_vertex_table", lambda level: table)
        monkeypatch.setattr(geometry, "_BALL_CACHE", {})
        with pytest.raises(ArithmeticError):
            ball_approx(2, 1, "inscribed")

    def test_inscribed_sphere_meshes_keep_every_vertex(self):
        for level, count in ((2, 18), (3, 66)):
            B = ball_approx(3, level, "inscribed")
            assert len(B.vertices) == count
            for v in B.vertices:
                assert sum(c * c for c in v) <= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ball_approx(4, 1, "inscribed")
        with pytest.raises(ValueError):
            ball_approx(2, 0, "inscribed")
        with pytest.raises(ValueError):
            ball_approx(2, 1, "middle")


small_coord = st.integers(min_value=-6, max_value=6).map(lambda k: F(k, 2))
planar_points = st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=9)


@given(pts=planar_points)
@settings(max_examples=40, deadline=None)
def test_hull_idempotence_property(pts):
    P = hull(pts, 2)
    assert hull(P.vertices, 2) == P
    for v in P.vertices:
        assert contains_point(P, v)


@given(pts=planar_points, lam=st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_volume_scaling_property(pts, lam):
    P = hull(pts, 2)
    assert volume(scale(P, lam)) == F(lam) ** 2 * volume(P)


@given(p1=planar_points, p2=planar_points)
@settings(max_examples=25, deadline=None)
def test_support_additivity_property(p1, p2):
    P, Q = hull(p1, 2), hull(p2, 2)
    S = minkowski_sum(P, Q)
    for y in [(F(1), F(0)), (F(-1), F(2)), (F(3), F(5))]:
        assert support(S, y) == support(P, y) + support(Q, y)
