import random
from fractions import Fraction
from math import factorial

import pytest

from valgebra.geometry import hull, translate, scale, volume
from valgebra.hull import hull_data
from valgebra.interp import tensor_interpolate, univariate_coeffs
from valgebra.intlinalg import bareiss_det, independent_rows, scale_to_ints, solve
from valgebra.polynomials import Polynomial, integrate, integrate_points, integrate_simplex
from valgebra.samples import standard_simplex, unit_cube

from conftest import rational_points

F = Fraction

X = Polynomial(2, {(1, 0): F(1)})
Y = Polynomial(2, {(0, 1): F(1)})


class TestRingOps:
    def test_eval(self):
        f = X * X + Y
        assert f.eval((2, 3)) == 7

    def test_mul(self):
        assert X * X == Polynomial(2, {(2, 0): F(1)})

    def test_external_product(self):
        x1 = Polynomial(1, {(1,): F(1)})
        g = x1.external_product(x1)
        assert g.num_vars == 2
        assert g.eval((2, 3)) == 6

    def test_zero_coefficients_dropped(self):
        f = X - X
        assert f.is_zero()

    def test_substitute_affine(self):
        # f(x, y) = x^2 with x -> 1 + 2u, y -> v
        f = X * X
        u = Polynomial(2, {(1, 0): F(2), (0, 0): F(1)})
        v = Polynomial(2, {(0, 1): F(1)})
        g = f.substitute([u, v])
        assert g.eval((1, 5)) == 9

    def test_shift(self):
        f = X * X
        g = f.shift((1, 0))
        assert g.eval((0, 0)) == 1 and g.eval((1, 0)) == 4

    def test_reflect_variables(self):
        f = X * X + Y
        g = f.reflect_variables()
        assert g.eval((2, 3)) == 4 - 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            X * Polynomial(1, {(1,): F(1)})
        with pytest.raises(ValueError):
            X.eval((1,))


# Independent oracle: the classical monomial-over-simplex formula, written
# out directly for the standard simplex.
def dirichlet_value(exps):
    n = len(exps)
    num = 1
    for e in exps:
        num *= factorial(e)
    return F(num, factorial(n + sum(exps)))


def random_polynomial(rng, n, deg):
    """A few random terms, one of them of total degree exactly deg."""
    terms = {}
    for k in range(rng.randint(1, 4)):
        exp = [0] * n
        for _ in range(deg if k == 0 else rng.randint(0, deg)):
            exp[rng.randrange(n)] += 1
        terms[tuple(exp)] = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return Polynomial(n, terms)


def barycentric_oracle(verts, f):
    """Pull f back along u -> v0 + sum_j u_j (v_j - v0) and integrate the
    result over the standard simplex monomial by monomial."""
    n = len(verts) - 1
    edges = [[b - a for a, b in zip(verts[0], v)] for v in verts[1:]]
    reps = []
    for i in range(n):
        p = Polynomial.constant(n, verts[0][i])
        for j in range(n):
            p = p + Polynomial.variable(n, j).scale(edges[j][i])
        reps.append(p)
    pulled = f.substitute(reps)
    return abs(leibniz_det(edges)) * sum((c * dirichlet_value(e) for e, c in pulled.terms.items()), F(0))


class TestSimplexIntegration:
    def test_constant_over_triangle(self):
        verts = list(standard_simplex(2).vertices)
        assert integrate_simplex(verts, Polynomial.constant(2, 1)) == F(1, 2)

    def test_x_over_triangle(self):
        verts = list(standard_simplex(2).vertices)
        assert integrate_simplex(verts, X) == dirichlet_value((1, 0))

    def test_degenerate_simplex(self):
        verts = [(0, 0), (1, 1), (1, 1)]
        assert integrate_simplex(verts, X) == 0

    def test_monomials_match_dirichlet(self):
        verts = list(standard_simplex(3).vertices)
        for exps in [(1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 1, 1), (0, 3, 0)]:
            f = Polynomial(3, {exps: F(1)})
            assert integrate_simplex(verts, f) == dirichlet_value(exps)

    def test_rational_simplex_matches_dirichlet(self):
        # The affine map u -> base + M u sends the standard simplex onto the
        # simplex, so integral of x^e over it is |det M| * integral of the
        # pulled-back polynomial, here a single monomial because M is diagonal.
        base = (F(1, 3), F(-2, 5), F(3, 7))
        diag = (F(2, 3), F(-5, 4), F(7, 9))
        verts = [base] + [tuple(base[j] + (diag[i] if i == j else 0) for j in range(3)) for i in range(3)]
        shifted = [Polynomial.variable(3, i) - Polynomial.constant(3, base[i]) for i in range(3)]
        for exps in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1)]:
            f = shifted[0].power(exps[0]) * shifted[1].power(exps[1]) * shifted[2].power(exps[2])
            jac = abs(diag[0] * diag[1] * diag[2])
            want = jac * diag[0] ** exps[0] * diag[1] ** exps[1] * diag[2] ** exps[2] * dirichlet_value(exps)
            assert integrate_simplex(verts, f) == want

    def test_wrong_vertex_count(self):
        with pytest.raises(ValueError):
            integrate_simplex([(0, 0), (1, 0)], X)

    def test_matches_barycentric_oracle(self, rng):
        # Degrees 0..7 cover the cubature index s = 0..3 in every dimension;
        # every third simplex of dimension 2 or more is flat.
        flat = 0
        for case in range(100):
            n = case % 5 + 1
            deg = case // 5 % 8
            verts = rational_points(rng, n + 1, n)
            if case % 3 == 0 and n > 1:
                verts[-1] = tuple((2 * a + b) / 3 for a, b in zip(verts[0], verts[1]))
                flat += 1
            f = random_polynomial(rng, n, deg)
            assert integrate_simplex(verts, f) == barycentric_oracle(verts, f)
        assert flat >= 20

    def test_matches_sympy_on_clockwise_triangles(self, rng):
        from sympy import Rational, symbols
        from sympy.geometry import Point, Polygon
        from sympy.integrals.intpoly import polytope_integrate

        def q(v):
            return Rational(v.numerator, v.denominator)

        x, y = symbols("x y")
        checked = 0
        while checked < 12:
            a, b, c = rational_points(rng, 3, 2)
            turn = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if turn == 0:
                continue
            if turn > 0:
                b, c = c, b
            f = random_polynomial(rng, 2, checked % 6)
            expr = sum(q(coef) * x ** e[0] * y ** e[1] for e, coef in f.terms.items())
            corners = [Point(q(p[0]), q(p[1])) for p in (a, b, c)]
            want = polytope_integrate(Polygon(*corners), expr)
            assert integrate_simplex([a, b, c], f) == F(int(want.p), int(want.q))
            # Counter-clockwise input flips the sign of the reference value.
            assert polytope_integrate(Polygon(*reversed(corners)), expr) == -want
            checked += 1


class TestPolytopeIntegration:
    def test_constant_is_volume(self, rng):
        for _ in range(5):
            P = hull(rational_points(rng, 7, 2), 2)
            assert integrate(P, Polynomial.constant(2, 1)) == volume(P)

    def test_x_over_unit_square(self):
        assert integrate(unit_cube(2), X) == F(1, 2)

    def test_scaling_law(self):
        big = scale(unit_cube(2), 2)
        assert integrate(big, X) == 4
        assert integrate(big, X) == F(2) ** 3 * integrate(unit_cube(2), X)

    def test_linearity(self, rng):
        P = hull(rational_points(rng, 6, 2), 2)
        f, g = X * X, Y
        a, b = F(3, 2), F(-7, 3)
        assert integrate(P, f.scale(a) + g.scale(b)) == a * integrate(P, f) + b * integrate(P, g)

    def test_translation_covariance(self, rng):
        P = hull(rational_points(rng, 6, 2), 2)
        t = (F(5, 4), F(-1, 2))
        assert integrate(translate(P, t), X) == integrate(P, X.shift(t))

    def test_degenerate_body(self):
        seg = hull([(0, 0), (1, 1)], 2)
        assert integrate(seg, X) == 0

    def test_triangulation_independence(self, rng):
        # A genuinely different triangulation: fan from the lex-max vertex.
        from valgebra.geometry import _hull_data_of

        for _ in range(10):
            P = hull(rational_points(rng, 8, 2), 2)
            f = X * Y + X
            direct = integrate(P, f)
            data = _hull_data_of(P)
            apex = max(data.boundary_vertex_indices(), key=lambda i: data.points[i])
            total = F(0)
            for verts in data.facet_vertices:
                if apex in verts:
                    continue
                simplex = [
                    tuple(F(c, data.scale) for c in data.points[i]) for i in verts + (apex,)
                ]
                total += integrate_simplex(simplex, f)
            assert total == direct


class TestFanIntegration:
    """integrate_points sums the whole fan at once on the hull's integer points."""

    def test_equals_sum_over_fan_simplices(self, rng):
        # Coordinates in sixths make the hull's scale exceed 1, and the factor
        # 2/7 gives every density a non-unit coefficient denominator.
        for case in range(24):
            n = case % 4 + 2
            deg = case % 6
            pts = rational_points(rng, n + 4, n, denom=6)
            data = hull_data(pts, n)
            assert data.scale > 1
            f = random_polynomial(rng, n, deg).scale(F(2, 7))
            by_simplex = sum(
                (
                    integrate_simplex([tuple(F(c, data.scale) for c in data.points[i]) for i in s], f)
                    for s in data.fan_triangulation()
                ),
                F(0),
            )
            assert integrate_points(pts, n, f) == by_simplex

    def test_constant_density_gives_volume(self, rng):
        for n in (3, 4):
            for _ in range(5):
                pts = rational_points(rng, n + 5, n)
                assert integrate_points(pts, n, Polynomial.constant(n, 1)) == hull_data(pts, n).volume()

    def test_zero_density_and_flat_points(self, rng):
        pts = rational_points(rng, 8, 3)
        assert integrate_points(pts, 3, Polynomial(3)) == 0
        flat = [(x, y, x - 2 * y) for x, y, _ in pts]
        assert integrate_points(flat, 3, Polynomial.constant(3, 1) + Polynomial.variable(3, 0)) == 0

    def test_density_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_points([(0, 0), (1, 0), (0, 1)], 2, Polynomial.constant(3, 1))


def leibniz_det(m):
    """Independent oracle: the permutation expansion of the determinant."""
    from itertools import permutations

    total = F(0)
    for perm in permutations(range(len(m))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(sign)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


class TestExactLinearAlgebra:
    def random_matrix(self, rng, n):
        return [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]

    def test_det_on_rational_input(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(25):
                m = self.random_matrix(rng, n)
                ints, den = scale_to_ints(m)
                assert F(bareiss_det(ints), den ** n) == leibniz_det(m)

    def test_solve_on_rational_input(self, rng):
        for n in (0, 1, 2, 3, 4):
            for _ in range(25):
                a = self.random_matrix(rng, n)
                if leibniz_det(a) == 0:
                    continue
                b = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                x = solve(a, b)
                assert [sum((r[j] * x[j] for j in range(n)), F(0)) for r in a] == b

    def test_solve_rejects_singular_systems(self):
        with pytest.raises(ArithmeticError):
            solve([[F(1, 2), F(1)], [F(1), F(2)]], [F(1), F(0)])

    @staticmethod
    def rational_echelon(rows, limit=None):
        """Reference: greedy elimination over Fractions with unit pivots."""
        kept, pivots, chosen = [], [], []
        for i, row in enumerate(rows):
            if len(chosen) == limit:
                break
            r = [F(x) for x in row]
            for p, k in zip(pivots, kept):
                r = [a - r[p] * b for a, b in zip(r, k)]
            p = next((j for j, x in enumerate(r) if x), None)
            if p is not None:
                kept.append([x / r[p] for x in r])
                pivots.append(p)
                chosen.append(i)
        return chosen, pivots

    def test_independent_rows_ignores_row_scaling(self, rng):
        # Rank-deficient integer rows; each scaled copy multiplies every row
        # by its own nonzero Fraction, which changes no choice of row or pivot.
        for _ in range(200):
            cols = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rng.randint(1, 7))]
            rows += [[2 * a - b for a, b in zip(rows[0], r)] for r in rows[1:3]]
            limit = rng.choice((None, 1, cols))
            factors = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
            scaled = [[x * f for x in r] for r, f in zip(rows, factors)]
            expected = self.rational_echelon(rows, limit)
            assert independent_rows(rows, limit) == expected
            assert independent_rows(scaled, limit) == expected


class TestInterpolation:
    def test_univariate_exact(self):
        # p(t) = 2t^3 - t + 5
        vals = [F(2 * t ** 3 - t + 5) for t in range(5)]
        assert univariate_coeffs(vals) == [F(5), F(-1), F(0), F(2)]

    def test_tensor_grid(self):
        # p(s, t) = 3 + s*t^2
        vals = [[F(3 + s * t * t) for t in range(3)] for s in range(2)]
        p = tensor_interpolate(vals, [1, 2])
        assert p.coefficient((0, 0)) == 3
        assert p.coefficient((1, 2)) == 1
        assert p.degree() == 3

    def test_tensor_grid_recovers_random_polynomials(self):
        rng = random.Random(7)
        for degs in ([0], [3], [2, 0, 1], [1, 3, 2], [2, 2, 2, 1]):
            terms = {}
            for _ in range(4):
                terms[tuple(rng.randint(0, d) for d in degs)] = F(rng.randint(-9, 9), rng.randint(1, 5))
            p = Polynomial(len(degs), terms)

            def grid(point):
                if len(point) == len(degs):
                    return p.eval(point)
                return [grid(point + [k]) for k in range(degs[len(point)] + 1)]

            assert tensor_interpolate(grid([]), degs) == p

    def test_tensor_interpolate_leaves_no_cyclic_garbage(self):
        import gc

        gc.collect()
        gc.disable()
        try:
            tensor_interpolate([[1, 2], [3, 4]], [1, 1])
            assert gc.collect() == 0
        finally:
            gc.enable()
