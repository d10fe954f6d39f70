import gc
import itertools
import random
import sys
from fractions import Fraction
from functools import reduce
from math import comb, factorial, pi
from operator import or_

import pytest

from valgebra.geometry import affine_dim, diagonal_embed, hull, minkowski_sum, reflect, scale, translate, volume
from valgebra.intervals import Interval
from valgebra.mixed import (
    _combo_measure,
    _group_bodies,
    derivative_at_zero,
    intrinsic_volume_brackets,
    minkowski_polynomial,
    mixed_volume,
    mixed_volume_grouped,
    projection_identity_check,
    steiner_coeffs,
    unit_ball_volume,
)
from valgebra.polynomials import Polynomial, integrate
from valgebra.samples import box, segment, standard_simplex, unit_cube

from conftest import rational_points

F = Fraction


# Independent oracle: mixed volumes straight from the defining expansion,
# by interpolating vol(l1 K1 + ... + ln Kn) on a grid and reading one
# coefficient (no inclusion-exclusion anywhere).
def mv_oracle(bodies):
    """Coefficient of l1*...*ln in vol(sum li Ki), divided by n!."""
    n = bodies[0].dim
    from valgebra.interp import tensor_interpolate

    def values(axis, coeffs):
        if axis == n:
            return _combo_measure([(b, F(c)) for b, c in zip(bodies, coeffs)], n, None)
        return [values(axis + 1, coeffs + [k]) for k in range(n + 1)]

    poly = tensor_interpolate(values(0, []), [n] * n)
    # vol(sum li Ki) = sum over n-tuples V(K_i1..K_in) l_i1...l_in; the
    # all-distinct coefficient collects n! orderings.
    return poly.coefficient(tuple(1 for _ in range(n))) / factorial(n)


def inclusion_exclusion_mv(groups, n):
    """V(body_1[m_1], ...) by inclusion-exclusion over the 0/1 subsets of the
    bodies, one hull per subset sum: the route the pulled coefficient replaced."""
    total = F(0)
    ranges = [range(m + 1) for _, m in groups]
    for counts in itertools.product(*ranges):
        k = sum(counts)
        if k == 0:
            continue
        coef = 1
        for (_, m), a in zip(groups, counts):
            coef *= comb(m, a)
        parts = [(body, F(a)) for (body, _), a in zip(groups, counts) if a]
        vol = _combo_measure(parts, n, None)
        if vol:
            total += (-1) ** (n - k) * coef * vol
    return total / factorial(n)


class TestMixedVolume:
    def test_diagonal_is_volume(self, rng):
        for _ in range(5):
            P = hull(rational_points(rng, 6, 2), 2)
            assert mixed_volume([P, P]) == volume(P)

    def test_two_segments(self):
        assert mixed_volume([segment(2, 0), segment(2, 1)]) == F(1, 2)

    def test_reflected_square(self):
        sq = unit_cube(2)
        assert mixed_volume([sq, reflect(sq)]) == 1

    def test_against_expansion_oracle(self, rng):
        for _ in range(4):
            bodies = [hull(rational_points(rng, 5, 2), 2) for _ in range(2)]
            assert mixed_volume(bodies) == mv_oracle(bodies)
        bodies3 = [hull(rational_points(rng, 4, 3), 3) for _ in range(3)]
        assert mixed_volume(bodies3) == mv_oracle(bodies3)

    def test_symmetry_exhaustive(self, rng):
        bodies = [hull(rational_points(rng, 4, 3), 3) for _ in range(3)]
        base = mixed_volume(bodies)
        for perm in itertools.permutations(bodies):
            assert mixed_volume(list(perm)) == base

    def test_multilinearity(self, rng):
        K = hull(rational_points(rng, 5, 2), 2)
        K2 = hull(rational_points(rng, 5, 2), 2)
        A = hull(rational_points(rng, 5, 2), 2)
        a, b = F(2), F(3, 2)
        combo = minkowski_sum(scale(K, a), scale(K2, b))
        lhs = mixed_volume([combo, A])
        rhs = a * mixed_volume([K, A]) + b * mixed_volume([K2, A])
        assert lhs == rhs

    def test_translation_invariance_per_slot(self, rng):
        K = hull(rational_points(rng, 5, 2), 2)
        A = hull(rational_points(rng, 5, 2), 2)
        assert mixed_volume([translate(K, (3, -2)), A]) == mixed_volume([K, A])

    def test_monotonicity_nested_boxes(self):
        small = unit_cube(2)
        big = box([(0, 2), (0, 1)])
        A = box([(0, 1), (0, 3)])
        assert mixed_volume([small, A]) <= mixed_volume([big, A])

    def test_nonnegative(self, rng):
        for _ in range(5):
            bodies = [hull(rational_points(rng, 5, 2), 2) for _ in range(2)]
            assert mixed_volume(bodies) >= 0

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            mixed_volume([unit_cube(2)])
        with pytest.raises(ValueError):
            mixed_volume([unit_cube(2), unit_cube(3)])


class TestMinkowskiPolynomial:
    def test_square_plus_square(self):
        mp = minkowski_polynomial(unit_cube(2), [unit_cube(2)])
        assert mp.poly == Polynomial(1, {(0,): F(1), (1,): F(2), (2,): F(1)})

    def test_point_base(self):
        A = unit_cube(2)
        pt = hull([(0, 0)], 2)
        mp = minkowski_polynomial(pt, [A])
        assert mp.poly == Polynomial(1, {(2,): F(1)})

    def test_density_value_matches_direct_integral(self):
        xpoly = Polynomial(2, {(1, 0): F(1)})
        mp = minkowski_polynomial(unit_cube(2), [unit_cube(2)], xpoly)
        direct = integrate(box([(0, 2), (0, 2)]), xpoly)
        assert mp.eval([1]) == direct == 4

    def test_reproduces_grid_values(self, rng):
        # The recovered polynomial matches direct computation on the whole
        # conventional grid {0..n+deg f}^s, not only on the internal one.
        xpoly = Polynomial(2, {(1, 0): F(1)})
        K = hull(rational_points(rng, 5, 2), 2)
        A = hull(rational_points(rng, 4, 2), 2)
        B = segment(2, 1)
        mp = minkowski_polynomial(K, [A, B], xpoly)
        for la in range(4):
            for lb in range(4):
                cands = [
                    tuple(k[i] + la * a[i] + lb * b[i] for i in range(2))
                    for k in K.vertices
                    for a in A.vertices
                    for b in B.vertices
                ]
                direct = integrate(hull(cands, 2), xpoly)
                assert mp.eval([la, lb]) == direct

    def test_repeated_bodies_grouped_consistently(self, rng):
        K = hull(rational_points(rng, 5, 2), 2)
        A = hull(rational_points(rng, 4, 2), 2)
        mp = minkowski_polynomial(K, [A, A])
        for la in range(3):
            for lb in range(3):
                combined = volume(hull(
                    [tuple(k[i] + (la + lb) * a[i] for i in range(2)) for k in K.vertices for a in A.vertices],
                    2,
                ))
                assert mp.eval([la, lb]) == combined

    def test_derivative_examples(self):
        sq = unit_cube(2)
        mp = minkowski_polynomial(sq, [sq])
        assert derivative_at_zero(mp, [0]) == 2 == 2 * mixed_volume([sq, sq])
        assert derivative_at_zero(minkowski_polynomial(sq, []), []) == volume(sq)
        with pytest.raises(ValueError):
            derivative_at_zero(mp, [3])

    def test_derivative_identity_random(self, rng):
        for n in (2, 3):
            K = hull(rational_points(rng, n + 2, n), n)
            slack = [hull(rational_points(rng, n + 2, n), n) for _ in range(n - 1)]
            mp = minkowski_polynomial(K, slack)
            lhs = derivative_at_zero(mp, list(range(n - 1)))
            rhs = F(factorial(n), factorial(1)) * mixed_volume([K] + slack)
            assert lhs == rhs


def grid_hull_polynomial(base, groups, n, density):
    """The grouped Minkowski polynomial from one hull per interpolation grid
    point: the route that the pulled triangulation replaced."""
    from valgebra.interp import tensor_interpolate

    degs = [min(affine_dim(rep), n) + density.degree() for rep, _ in groups]

    def values(axis, coeffs):
        if axis == len(groups):
            parts = [(base, F(1))] + [(rep, F(c)) for (rep, _), c in zip(groups, coeffs)]
            return _combo_measure(parts, n, density)
        return [values(axis + 1, coeffs + [k]) for k in range(degs[axis] + 1)]

    return tensor_interpolate(values(0, []), degs)


def random_density(rng, n, deg):
    terms = {(0,) * n: F(rng.randint(1, 3))}
    for _ in range(2):
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        terms[tuple(exp)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(n, terms)


def one_hull_cases(rng):
    """(base, slack bodies, n) in 1-D to 4-D, covering the lattice's corner cases."""
    cases = []
    for n in (1, 2, 3, 4):
        spread = [(0, 1 + i % 2) for i in range(n)]
        # Box + box: parallel edges, whose candidate sums swap order with lam.
        cases.append((box(spread), [box([(F(1, 2), 2)] + [(0, 1)] * (n - 1))], n))
        # Segment slack, and a rational base with a slack body scaled by 3.
        cases.append((hull(rational_points(rng, n + 2, n, denom=3, spread=1), n), [segment(n, n - 1, 2)], n))
        cases.append((standard_simplex(n), [scale(hull(rational_points(rng, n + 1, n, denom=2, spread=1), n), 3)], n))
    # Two groups: a box and a segment.
    cases.append((unit_cube(2), [box([(0, 1), (0, 2)]), segment(2, 0)], 2))
    cases.append((hull(rational_points(rng, 5, 3, spread=1), 3), [unit_cube(3), segment(3, 2)], 3))
    # Flat bases: the diagonal of K in K x K, as the diagonal route builds it.
    K1 = box([(0, 2)])
    cases.append((diagonal_embed(K1), [segment(2, 0), segment(2, 1)], 2))
    K2 = hull(rational_points(rng, 4, 2, spread=1), 2)
    zero = (F(0), F(0))
    blocks = [hull([v + zero for v in K2.vertices], 4), hull([zero + v for v in K2.vertices], 4)]
    cases.append((diagonal_embed(K2), blocks, 4))
    # Faces whose vertices span a proper sublattice of their own: the bottom
    # triangle's edges (1,1,0) and (1,-1,0) span half of its lattice, and its
    # edge at x = 1 holds the lattice point (1,0,0).
    cases.append((hull([(0, 0, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)], 3), [segment(3, 2)], 3))
    return cases


class TestOneHullRoute:
    """The density route pulls one hull of base + sum A_g for every grid point."""

    def test_matches_one_hull_per_grid_point(self, rng):
        from valgebra.mixed import _grouped_sum_polynomial

        for base, slack, n in one_hull_cases(rng):
            groups, _ = _group_bodies(slack)
            for deg in (1, 2):
                f = random_density(rng, n, deg)
                expected = grid_hull_polynomial(base, groups, n, f)
                assert _grouped_sum_polynomial(base, groups, n, f) == expected
                assert not expected.is_zero()

    def test_flat_sum_gives_zero_polynomial(self, rng):
        from valgebra.mixed import _grouped_sum_polynomial

        for n in (2, 3, 4):
            flat = [hull([tuple(p[:-1]) + (F(0),) for p in rational_points(rng, n + 1, n)], n) for _ in range(3)]
            groups, _ = _group_bodies(flat[1:])
            f = random_density(rng, n, 2)
            got = _grouped_sum_polynomial(flat[0], groups, n, f)
            assert got == grid_hull_polynomial(flat[0], groups, n, f) == Polynomial(len(groups))

    def test_flag_heights_are_determinants(self, rng):
        from valgebra.intlinalg import simplex_det
        from valgebra.mixed import _pulled_sum

        for base, slack, n in one_hull_cases(rng):
            pulled = _pulled_sum([base] + slack, n)
            total = base
            for body in slack:
                total = minkowski_sum(total, body)
            ones = (1,) * len(slack)
            assert sum(pulled.dets(ones)) == factorial(n) * pulled.scale**n * volume(total)
            grid = [ones, (0,) * len(slack)] + [tuple(rng.randint(0, 3) for _ in slack) for _ in range(4)]
            for lams in grid:
                pts = pulled.place(lams)
                assert pulled.dets(lams) == [abs(simplex_det(pts, s)) for s in pulled.simplices]

    def test_homogeneous_flag_identity(self, rng):
        from valgebra.mixed import _pulled_sum

        for groups, n in mv_cases(rng)[:-1]:
            bodies = [body for body, _ in groups]
            pulled = _pulled_sum(bodies, n)
            if pulled is None:
                continue
            grid = [tuple(rng.choice((0, 0, 2, 3, 5)) for _ in bodies) for _ in range(4)]
            for lams in grid + [(0,) * (len(bodies) - 1) + (1,)]:
                vol = _combo_measure([(body, F(lam)) for body, lam in zip(bodies, lams)], n, None)
                assert pulled.flag_sum(lams) == factorial(n) * pulled.scale**n * vol

    def test_density_coefficient_builds_one_hull(self, monkeypatch):
        from valgebra.mixed import mixed_derivative_coefficient

        # The valgebra.hull function shadows the module, so patch the names
        # bound in the modules that build hulls for this route.
        built = []
        for name in ("valgebra.mixed", "valgebra.polynomials"):
            module = sys.modules[name]
            original = module.hull_data_int

            def counting(*args, _original=original, **kwargs):
                built.append(args[1])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "hull_data_int", counting)
        n = 3
        f = Polynomial(n, {(1, 0, 0): F(1), (0, 2, 0): F(1, 2)})
        base, slack = unit_cube(3), [box([(0, 2), (0, 1), (0, 1)]), segment(3, 2)]
        value = mixed_derivative_coefficient(base, slack, n, f)
        assert built == [3]
        monkeypatch.undo()
        groups, _ = _group_bodies(slack)
        assert value == grid_hull_polynomial(base, groups, n, f).coefficient((1, 1))


def paraboloid_tetrahedron(rng):
    """Four lattice points on z = x^2 + y^2 that span 3-space."""
    while True:
        xy = rng.sample([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)], 4)
        P = hull([(x, y, x * x + y * y) for x, y in xy], 3)
        if affine_dim(P) == 3:
            return P


def mv_cases(rng):
    """(groups, n) in 1-D to 6-D with flat bodies, points, rational
    coordinates and repeated groups; the last case has a flat total sum."""
    cases = []
    for n in (1, 2, 3, 4):
        for _ in range(6):
            mults = [1] * n
            while len(mults) > 1 and rng.random() < 0.5:
                i = rng.randrange(len(mults) - 1)
                mults[i : i + 2] = [mults[i] + mults[i + 1]]
            groups = []
            for m in mults:
                kind = rng.randrange(4)
                if kind == 0:
                    body = hull([tuple(F(rng.randint(-2, 2)) for _ in range(n))], n)
                elif kind == 1 and n > 1:
                    flat = [p[:-1] + (F(0),) for p in rational_points(rng, n + 1, n, denom=2)]
                    body = hull(flat, n)
                else:
                    body = hull(rational_points(rng, n + 2, n, denom=rng.choice((1, 2, 3))), n)
                groups.append((body, m))
            cases.append((groups, n))
    cases.append(([(unit_cube(5), 2), (standard_simplex(5), 2), (segment(5, 4, 3), 1)], 5))
    # The diagonal route's 6-D mixed volume: diag(K)[3], A in block 0, B in block 1.
    K, A, B = (paraboloid_tetrahedron(rng) for _ in range(3))
    zero = (F(0),) * 3
    block_a = hull([v + zero for v in A.vertices], 6)
    block_b = hull([zero + v for v in B.vertices], 6)
    cases.append(([(diagonal_embed(K), 3), (block_a, 2), (block_b, 1)], 6))
    flat = [hull([p[:-1] + (F(0),) for p in rational_points(rng, 4, 3)], 3) for _ in range(2)]
    cases.append(([(flat[0], 2), (flat[1], 1)], 3))
    return cases


class TestCayleyMixedVolume:
    """mixed_volume_grouped reads V off one hull of the Cayley polytope of the bodies."""

    def test_matches_inclusion_exclusion(self, rng):
        cases = mv_cases(rng)
        values = [mixed_volume_grouped(groups, n) for groups, n in cases]
        assert values == [inclusion_exclusion_mv(groups, n) for groups, n in cases]
        assert values[-1] == 0 and values[-2] > 0 and values[-3] > 0

    def test_one_hull_per_call(self, rng, monkeypatch):
        cases = mv_cases(rng)
        module = sys.modules["valgebra.mixed"]
        built = []
        original = module.hull_data_int

        def counting(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "hull_data_int", counting)
        for groups, n in cases:
            built.clear()
            mixed_volume_grouped(groups, n)
            k = sum(1 for _, m in groups if m)
            assert built == [n + k - 1]

    def test_no_cyclic_garbage(self, rng):
        cases = mv_cases(rng)
        gc.collect()
        gc.disable()
        try:
            for groups, n in cases:
                mixed_volume_grouped(groups, n)
            assert gc.collect() == 0
        finally:
            gc.enable()


def rescan_facets(face, hull_masks):
    """The facets of a face from a scan of every hull facet: the
    inclusion-maximal face ∩ G over hull facets G not holding the face."""
    meets = {face & mask for mask in hull_masks} - {0, face}
    return {meet for meet in meets if not any(meet & other == meet != other for other in meets)}


class TestFaceLattice:
    """A face reached in the pull takes its facets from its parent (the diamond property)."""

    def test_facets_from_parent_match_rescan(self, rng):
        from valgebra.hull import hull_data_int
        from valgebra.mixed import _combo_candidates, _facets_of_facet

        sums = [[body for body, _ in groups] for groups, n in mv_cases(rng)]
        sums += [[base] + slack for base, slack, _ in one_hull_cases(rng)]
        faces = 0
        for bodies in sums:
            n = bodies[0].dim
            cands, scale = _combo_candidates([(body, F(1)) for body in bodies])
            data = hull_data_int(cands, n, scale)
            if data is None:
                continue
            hull_masks = [mask for _, _, mask in data.facets()]
            todo = {reduce(or_, hull_masks): list(zip(hull_masks, range(len(hull_masks))))}
            seen = set()
            while todo:
                face, facets = todo.popitem()
                assert {sub for sub, _ in facets} == rescan_facets(face, hull_masks)
                for sub, g in facets:
                    assert face & hull_masks[g] == sub
                    if sub not in seen:
                        seen.add(sub)
                        todo[sub] = _facets_of_facet(sub, facets)
            faces += len(seen)
        assert faces > 5000


class TestSteiner:
    def test_square_half_perimeter(self):
        coeffs = steiner_coeffs(unit_cube(2), 4)
        v1 = coeffs[1] / unit_ball_volume(1, 4)  # eps^1 coefficient / kappa_1
        assert v1.contains(2)
        assert v1.width() <= F(1, 100)

    def test_segment(self):
        s = scale(segment(2, 0), 3)
        vols = intrinsic_volume_brackets(s, 3)
        assert vols[1].contains(3)
        assert vols[2].lo == vols[2].hi == 0

    def test_euler_normalization(self, rng):
        for K in (unit_cube(2), standard_simplex(2), hull(rational_points(rng, 5, 2), 2)):
            vols = intrinsic_volume_brackets(K, 3)
            assert vols[0].contains(1)

    def test_brackets_shrink_with_level(self):
        w1 = [iv.width() for iv in steiner_coeffs(unit_cube(2), 1)]
        w2 = [iv.width() for iv in steiner_coeffs(unit_cube(2), 2)]
        w3 = [iv.width() for iv in steiner_coeffs(unit_cube(2), 3)]
        for a, b, c in zip(w1, w2, w3):
            assert c <= b <= a

    def test_volume_coefficient_exact(self):
        coeffs = steiner_coeffs(standard_simplex(2), 2)
        assert coeffs[0].lo == coeffs[0].hi == volume(standard_simplex(2))

    def test_3d_segment(self):
        s = scale(segment(3, 0), 2)
        vols = intrinsic_volume_brackets(s, 1)
        assert vols[1].contains(2)


class TestProjectionIdentity:
    def test_planar_case(self):
        r = projection_identity_check(segment(1, 0), [unit_cube(2)])
        assert r["equal"] and r["lhs"] == F(1, 2)

    def test_zero_projection(self):
        flat = box([(0, 1), (0, 0)])  # no extent in the z coordinate
        r = projection_identity_check(segment(1, 0), [flat])
        assert r["equal"] and r["lhs"] == 0

    def test_dim4(self, rng):
        r = projection_identity_check(unit_cube(2), [unit_cube(4), unit_cube(4)])
        assert r["equal"]
        r2 = projection_identity_check(
            unit_cube(2), [unit_cube(4), hull(rational_points(rng, 6, 4), 4)]
        )
        assert r2["equal"]

    def test_misaligned_split(self):
        with pytest.raises(ValueError):
            projection_identity_check(unit_cube(2), [unit_cube(5), unit_cube(5)])
        with pytest.raises(ValueError):
            projection_identity_check(unit_cube(2), [unit_cube(4), unit_cube(3)])
