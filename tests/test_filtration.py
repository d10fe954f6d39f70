import random
from fractions import Fraction

import pytest

from valgebra.filtration import (
    MembershipCertificate,
    default_scaling_samples,
    default_vanishing_samples,
    filtration_report,
    generator_levels,
    scaling_membership,
    scaling_profile,
    symbol,
    symbol_homomorphism_check,
    vanishing_membership,
)
from valgebra.geometry import hull, reflect, scale, translate
from valgebra.mixed import mixed_volume
from valgebra.polynomials import Polynomial
from valgebra.samples import asymmetric_triangle, origin, segment, standard_simplex, unit_cube
from valgebra.valuations import (
    MVGenerator,
    PDGenerator,
    Valuation,
    euler,
    evaluate,
    product,
    vol_valuation,
)

from conftest import rational_points

F = Fraction
X2 = Polynomial(2, {(1, 0): F(1)})
ZERO2 = (F(0), F(0))


def rand_poly(rng, n=2, pts=5):
    return hull(rational_points(rng, pts, n), n)


class TestScalingProfile:
    def test_degree_one_generator(self, rng):
        A = rand_poly(rng)
        K = unit_cube(2)
        prof = scaling_profile(MVGenerator(2, 1, (A,)), K, ZERO2)
        assert prof.lowest_order == 1
        assert prof.poly.coefficient((1,)) == mixed_volume([K, A])
        assert prof.poly.degree() == 1

    def test_euler_profile(self):
        prof = scaling_profile(euler(2), unit_cube(2), (F(1), F(2)))
        assert prof.poly == Polynomial(1, {(0,): F(1)})
        assert prof.lowest_order == 0

    def test_volume_on_flat_body(self):
        prof = scaling_profile(vol_valuation(2), segment(2, 0), ZERO2)
        assert prof.poly.is_zero()
        assert prof.lowest_order is None

    def test_profile_reproduces_evaluations(self, rng):
        v = Valuation(2, (PDGenerator(2, X2, (rand_poly(rng),)),))
        K = standard_simplex(2)
        x = (F(1), F(1))
        prof = scaling_profile(v, K, x)
        for r in range(4):
            body = translate(scale(K, r), x)
            assert prof.poly.eval([r]) == evaluate(v, body)


class TestMembershipConditionEquivalence:
    def test_lowest_order_equals_vanishing_limit_form(self, rng):
        # On a stored profile polynomial, dividing by r^(level-1) and asking
        # for a vanishing limit at 0+ is the same as lowest_order >= level.
        v = Valuation(2, (MVGenerator(2, 1, (rand_poly(rng),)),))
        prof = scaling_profile(v, unit_cube(2), ZERO2)
        for level in range(0, 4):
            poly_orders = sorted(e[0] for e in prof.poly.terms)
            limit_vanishes = all(k - (level - 1) > 0 for k in poly_orders)
            order_test = prof.lowest_order is None or prof.lowest_order >= level
            assert limit_vanishes == order_test


class TestVanishing:
    def test_volume_passes_level_two(self):
        samples = default_vanishing_samples(2)
        cert = vanishing_membership(vol_valuation(2), 2, samples)
        assert cert.passed

    def test_euler_fails_level_one(self):
        cert = vanishing_membership(euler(2), 1, [origin(2)])
        assert not cert.passed and cert.witnesses

    def test_degree_one_mv(self, rng):
        A = rand_poly(rng)
        g = MVGenerator(2, 1, (A,))
        assert vanishing_membership(g, 1, default_vanishing_samples(2)).passed
        assert not vanishing_membership(g, 2, default_vanishing_samples(2)).passed


class TestScalingMembership:
    def test_mv_generator_levels(self, rng):
        B = rand_poly(rng)
        samples = [(unit_cube(2), ZERO2), (standard_simplex(2), (F(1), F(0)))]
        for i in range(3):
            g = MVGenerator(2, i, tuple([B] * (2 - i)))
            assert scaling_membership(g, i, samples).passed
            assert not scaling_membership(g, i + 1, samples).passed

    def test_density_generator_level(self, rng):
        g = PDGenerator(2, X2, (rand_poly(rng),))
        samples = [(unit_cube(2), ZERO2), (unit_cube(2), (F(1), F(1)))]
        assert scaling_membership(g, 1, samples).passed
        assert not scaling_membership(g, 2, samples).passed

    def test_zero_valuation_passes_everything(self):
        zero = MVGenerator(2, 1, (unit_cube(2),), F(0))
        samples = [(unit_cube(2), ZERO2)]
        for level in range(4):
            assert scaling_membership(zero, level, samples).passed


class TestSymbol:
    def grids(self):
        k_grid = [unit_cube(2), standard_simplex(2)]
        x_grid = [ZERO2, (F(1), F(0)), (F(1), F(1))]
        return k_grid, x_grid

    def test_density_generator_closed_form(self, rng):
        A = rand_poly(rng)
        g = Valuation(2, (PDGenerator(2, X2, (A,)),))
        k_grid, x_grid = self.grids()
        sym = symbol(g, 1, k_grid, x_grid)
        assert sym.dual_route_checked
        (va, po), = sym.pairs
        assert po == X2
        K = unit_cube(2)
        assert evaluate(va, K) == 2 * mixed_volume([K, A])

    def test_mv_generator_symbol_is_itself(self, rng):
        A = rand_poly(rng)
        g = MVGenerator(2, 1, (A,))
        k_grid, x_grid = self.grids()
        sym = symbol(Valuation(2, (g,)), 1, k_grid, x_grid)
        (va, po), = sym.pairs
        assert po == Polynomial.constant(2, 1)
        assert va.terms == (g,)

    def test_volume_symbol(self):
        k_grid, x_grid = self.grids()
        sym = symbol(Valuation(2, (vol_valuation(2),)), 2, k_grid, x_grid)
        (va, po), = sym.pairs
        assert po == Polynomial.constant(2, 1)

    def test_higher_level_terms_drop(self):
        # The volume sits strictly above level 1, so its level-1 symbol is zero.
        k_grid, x_grid = self.grids()
        sym = symbol(Valuation(2, (vol_valuation(2),)), 1, k_grid, x_grid)
        assert sym.pairs == ()
        assert sym.evaluate(unit_cube(2), ZERO2) == 0

    def test_collinear_point_grid(self):
        # The rows [1, x] of a collinear grid have rank 2 < 3, so no affine
        # density is determined and the grid fit is not compared.
        T = standard_simplex(2)
        g = Valuation(2, (PDGenerator(2, Polynomial(2, {(0, 1): F(1)}), (T,)),))
        x_grid = [ZERO2, (F(1), F(0)), (F(2), F(0))]
        sym = symbol(g, 1, [unit_cube(2), T], x_grid)
        (va, po), = sym.pairs
        assert po == Polynomial(2, {(0, 1): F(1)})
        assert evaluate(va, T) == 2 * mixed_volume([T, T])

    def test_membership_precondition(self, rng):
        g = Valuation(2, (euler(2),))
        k_grid, x_grid = self.grids()
        with pytest.raises(ValueError):
            symbol(g, 1, k_grid, x_grid)


class TestSymbolHomomorphism:
    def test_mv_pair(self, rng):
        A = rand_poly(rng)
        phi = Valuation(2, (MVGenerator(2, 1, (A,)),))
        samples = [(unit_cube(2), ZERO2), (standard_simplex(2), (F(1), F(1)))]
        rep = symbol_homomorphism_check(phi, phi, 1, 1, samples)
        assert rep["passed"]

    def test_unit_pair(self, rng):
        phi = Valuation(2, (euler(2),))
        psi = Valuation(2, (PDGenerator(2, X2, (rand_poly(rng),)),))
        samples = [(unit_cube(2), ZERO2), (unit_cube(2), (F(1), F(0)))]
        rep = symbol_homomorphism_check(phi, psi, 0, 1, samples)
        assert rep["passed"]

    def test_density_against_mv(self, rng):
        phi = Valuation(2, (PDGenerator(2, X2, (rand_poly(rng),)),))
        psi = Valuation(2, (MVGenerator(2, 1, (rand_poly(rng),)),))
        samples = [(unit_cube(2), (F(1), F(1)))]
        rep = symbol_homomorphism_check(phi, psi, 1, 1, samples)
        assert rep["passed"]

    def test_dimension_guard(self):
        phi = Valuation(3, (vol_valuation(3),))
        with pytest.raises(ValueError):
            symbol_homomorphism_check(phi, phi, 3, 3, [(unit_cube(3), (F(0), F(0), F(0)))])


class TestReports:
    def test_generator_levels_odd_part(self):
        A = asymmetric_triangle(0)
        odd = Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (reflect(A),), F(-1))))
        lv = generator_levels(odd, 2)
        assert lv["gamma_level"] == 2
        assert lv["w_level"] == 1

    def test_full_report(self, rng):
        gens = [
            Valuation(2, (euler(2),)),
            Valuation(2, (MVGenerator(2, 1, (asymmetric_triangle(0),)),)),
            Valuation(2, (vol_valuation(2),)),
        ]
        rep = filtration_report(gens, 2)
        assert rep["all_sandwich_ok"]
        assert rep["all_products_ok"]
        levels = [g["w_level"] for g in rep["generators"]]
        assert levels == [0, 1, 2]
