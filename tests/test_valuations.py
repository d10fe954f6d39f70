import random
from fractions import Fraction
from math import comb, factorial

import pytest

from valgebra.geometry import (
    cartesian_product,
    diagonal_embed,
    hull,
    minkowski_sum,
    reflect,
    scale,
    translate,
    volume,
)
from valgebra.mixed import mixed_volume
from valgebra.polynomials import Polynomial, integrate
from valgebra.samples import asymmetric_triangle, box, segment, standard_simplex, unit_cube
from valgebra.valuations import (
    CostGuardError,
    EulerGenerator,
    ExteriorEulerGenerator,
    MVGenerator,
    PDGenerator,
    ProductGenerator,
    Valuation,
    closed_form_product,
    diagonal_product_evaluate,
    euler,
    evaluate,
    exterior_product,
    homogeneous_decomposition,
    odd_product_witness,
    pairing_matrix,
    parity_decomposition,
    product,
    translation_profile,
    valuation_axiom_check,
    vol_valuation,
)

from conftest import rational_points

F = Fraction
X2 = Polynomial(2, {(1, 0): F(1)})


def rand_poly(rng, n=2, pts=5):
    return hull(rational_points(rng, pts, n), n)


class TestEvaluate:
    def test_volume_generator(self):
        g = MVGenerator(2, 2, ())
        assert g.evaluate(unit_cube(2)) == 1

    def test_euler_generator(self, rng):
        chi = euler(2)
        for K in (unit_cube(2), rand_poly(rng), hull([(1, 1)], 2)):
            assert chi.evaluate(K) == 1

    def test_density_generator_against_symbolic_oracle(self):
        # d/dl at 0 of integral of x over [0, 1+l]^2 = d/dl (1+l)^3 / 2 = 3/2.
        g = PDGenerator(2, X2, (unit_cube(2),))
        assert g.evaluate(unit_cube(2)) == F(3, 2)

    def test_constant_density_is_a_mixed_volume(self, rng):
        # d^s/dl at 0 of c vol(K + sum l_j A_j) is c n!/i! V(K[i], A_1, ...).
        for n in (2, 3):
            K = rand_poly(rng, n, n + 3)
            bodies = tuple(rand_poly(rng, n, n + 2) for _ in range(n))
            c = F(-7, 3)
            for i in range(n + 1):
                pd = PDGenerator(n, Polynomial.constant(n, c), bodies[: n - i])
                mv = MVGenerator(n, i, bodies[: n - i])
                assert pd.evaluate(K) == c * F(factorial(n), factorial(i)) * mv.evaluate(K)

    def test_mv_degree_zero_is_constant(self, rng):
        A, B = rand_poly(rng), rand_poly(rng)
        g = MVGenerator(2, 0, (A, B))
        val = mixed_volume([A, B])
        for K in (unit_cube(2), standard_simplex(2)):
            assert g.evaluate(K) == val

    def test_point_body(self):
        pt = hull([(2, 3)], 2)
        assert MVGenerator(2, 1, (unit_cube(2),)).evaluate(pt) == 0
        assert euler(2).evaluate(pt) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(Valuation(2, (euler(2),)), unit_cube(3))


class TestClosedForm:
    def test_square_pair(self):
        sq = unit_cube(2)
        got = closed_form_product(MVGenerator(2, 1, (sq,)), MVGenerator(2, 1, (sq,)))
        assert got.degree == 2 and got.coeff == F(1, 2)

    def test_point_slack_kills(self):
        pt = hull([(0, 0)], 2)
        got = closed_form_product(MVGenerator(2, 1, (unit_cube(2),)), MVGenerator(2, 1, (pt,)))
        assert got.coeff == 0

    def test_cubes_dim3(self):
        c = unit_cube(3)
        got = closed_form_product(MVGenerator(3, 1, (c, c)), MVGenerator(3, 2, (c,)))
        assert got.coeff == F(1, 3)

    def test_non_complementary_rejected(self):
        with pytest.raises(ValueError):
            closed_form_product(MVGenerator(2, 1, (unit_cube(2),)), MVGenerator(2, 2, ()))


class TestDiagonalRoute:
    def test_matches_closed_form(self, rng):
        for _ in range(3):
            A, B, K = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            phi, psi = MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (B,))
            assert closed_form_product(phi, psi).evaluate(K) == diagonal_product_evaluate(phi, psi, K)

    def test_unit_factor(self, rng):
        K = rand_poly(rng)
        psi = MVGenerator(2, 1, (unit_cube(2),))
        assert diagonal_product_evaluate(euler(2), psi, K) == psi.evaluate(K)

    def test_single_factor_after_unit_factors(self, rng):
        # Unit factors flatten away, leaving one block on the diagonal of K
        # itself; the cost guard does not apply to a single block.
        A, K = rand_poly(rng), rand_poly(rng)
        unit = ProductGenerator(2, euler(2), euler(2))
        psi = MVGenerator(2, 1, (A,))
        assert diagonal_product_evaluate(unit, psi, K) == psi.evaluate(K)
        pd = PDGenerator(2, X2 * X2, (A,))
        assert diagonal_product_evaluate(unit, pd, K, max_internal_dim=1) == pd.evaluate(K)

    def test_degree_overflow_zero(self, rng):
        K = rand_poly(rng)
        assert diagonal_product_evaluate(vol_valuation(2), vol_valuation(2), K) == 0

    def test_matches_closed_form_in_4d(self, rng):
        # Internal dimension 8, above the default guard.
        A, B, K = (rand_poly(rng, 4, 6) for _ in range(3))
        for i in (1, 2, 3):
            phi, psi = MVGenerator(4, i, (A,) * (4 - i)), MVGenerator(4, 4 - i, (B,) * i)
            value = closed_form_product(phi, psi).evaluate(K)
            assert value != 0
            assert value == diagonal_product_evaluate(phi, psi, K, max_internal_dim=8)

    def test_cost_guard(self):
        g = MVGenerator(4, 3, (unit_cube(4),))
        with pytest.raises(CostGuardError):
            diagonal_product_evaluate(g, g, unit_cube(4))
        # Override lets it through (kept tiny: degree-overflow is cheap).
        val = diagonal_product_evaluate(vol_valuation(4), vol_valuation(4), unit_cube(4), max_internal_dim=8)
        assert val == 0


class TestProduct:
    def test_unit_law_all_kinds(self, rng):
        chi = euler(2)
        bodies = [unit_cube(2), standard_simplex(2), rand_poly(rng)]
        kinds = [
            MVGenerator(2, 1, (rand_poly(rng),)),
            PDGenerator(2, X2, (rand_poly(rng),)),
            EulerGenerator(2, F(5)),
            ProductGenerator(2, MVGenerator(2, 1, (unit_cube(2),)), MVGenerator(2, 1, (unit_cube(2),))),
        ]
        for psi in kinds:
            prod = product(chi, psi)
            for K in bodies:
                assert evaluate(prod, K) == psi.evaluate(K)

    def test_commutative(self, rng):
        phi = Valuation(2, (MVGenerator(2, 1, (rand_poly(rng),)), euler(2)))
        psi = Valuation(2, (PDGenerator(2, X2, (rand_poly(rng),)),))
        for K in (unit_cube(2), standard_simplex(2)):
            assert evaluate(product(phi, psi), K) == evaluate(product(psi, phi), K)

    def test_bilinear_expansion(self, rng):
        A, B, C = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        phi = Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (B,), F(2))))
        psi = Valuation(2, (MVGenerator(2, 1, (C,)),))
        K = unit_cube(2)
        expand = closed_form_product(MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (C,))).evaluate(K) + 2 * closed_form_product(MVGenerator(2, 1, (B,)), MVGenerator(2, 1, (C,))).evaluate(K)
        assert evaluate(product(phi, psi), K) == expand


class TestExteriorProduct:
    def test_volume_times_volume(self):
        v1 = Valuation(1, (vol_valuation(1),))
        ext = exterior_product(v1, v1)
        assert ext.dim == 2
        assert evaluate(ext, unit_cube(2)) == 1

    def test_euler_side_on_product_bodies(self, rng):
        psi = MVGenerator(2, 1, (rand_poly(rng),))
        ext = exterior_product(Valuation(1, (euler(1),)), Valuation(2, (psi,)))
        K = segment(1, 0)
        L = unit_cube(2)
        M = cartesian_product(K, L)
        assert evaluate(ext, M) == psi.evaluate(L)
        with pytest.raises(ValueError):
            evaluate(ext, standard_simplex(3))

    def test_fubini_on_boxes(self):
        # phi(K) = integral over K + A of f; the slice formula collapses to
        # phi(K) psi(L) on product boxes, computed here fully through slices.
        f1 = Polynomial(1, {(1,): F(1)})
        A = segment(1, 0)
        # phi as a sum of derivative-extracted terms: int_{K+lam A} f at lam=1.
        phi = Valuation(
            1,
            (
                PDGenerator(1, f1, ()),
                PDGenerator(1, f1, (A,)),
                PDGenerator(1, f1, (A, A), F(1, 2)),
            ),
        )
        psi = MVGenerator(1, 1, ())
        K = segment(1, 0)
        L = scale(segment(1, 0), 2)
        # Direct slice computation: phi-side measure integrates f over K + A,
        # and each slice {x} x W contributes psi(L).
        region = minkowski_sum(K, A)
        slice_value = psi.evaluate(L)
        oracle = integrate(region, f1) * slice_value
        ext = exterior_product(phi, Valuation(1, (psi,)))
        assert evaluate(ext, cartesian_product(K, L)) == oracle

    def test_exterior_matches_diagonal_on_embedded(self, rng):
        A, B, K = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        phi, psi = MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (B,))
        ext = exterior_product(Valuation(2, (phi,)), Valuation(2, (psi,)))
        assert evaluate(ext, diagonal_embed(K)) == diagonal_product_evaluate(phi, psi, K)


class TestUnitLawFubini:
    def test_euler_product_slicewise_on_boxes(self):
        # (chi . psi)(K) for psi(K) = integral over K + A of f: the slice at x
        # is nonempty iff x lies in K + A, so the outer integral is psi(K).
        from math import factorial

        f = Polynomial(2, {(1, 0): F(1), (0, 0): F(2)})
        A = box([(0, 1), (0, 2)])
        K = box([(-1, 1), (0, 1)])
        region = minkowski_sum(K, A)
        slice_integral = integrate(region, f)
        # psi(K) = integral over K + A of f, expanded into derivative terms
        # up to the full polynomial degree n + deg f.
        psi_val = Valuation(
            2,
            tuple(
                PDGenerator(2, f, tuple([A] * s), F(1, factorial(s)))
                for s in range(2 + f.degree() + 1)
            ),
        )
        assert evaluate(psi_val, K) == slice_integral
        assert evaluate(product(Valuation(2, (euler(2),)), psi_val), K) == slice_integral


class TestOddWitness:
    def test_symmetric_vanishes(self):
        assert odd_product_witness(unit_cube(2), asymmetric_triangle(0)) == 0

    def test_antisymmetric_in_reflection(self):
        A, B = asymmetric_triangle(0), asymmetric_triangle(1)
        assert odd_product_witness(A, reflect(B)) == -odd_product_witness(A, B)

    def test_stored_pair_nonzero(self):
        w = odd_product_witness(asymmetric_triangle(0), asymmetric_triangle(1))
        assert w != 0
        # Cross-check the witness against the expanded mixed volumes.
        A, B = asymmetric_triangle(0), asymmetric_triangle(1)
        assert w == mixed_volume([A, reflect(B)]) - mixed_volume([A, B])

    def test_product_really_is_multiple_of_volume(self, rng):
        A, B = asymmetric_triangle(0), asymmetric_triangle(1)
        w = odd_product_witness(A, B)
        phi = Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (reflect(A),), F(-1))))
        psi = Valuation(2, (MVGenerator(2, 1, (B,)), MVGenerator(2, 1, (reflect(B),), F(-1))))
        K = rand_poly(rng)
        assert evaluate(product(phi, psi), K) == w * volume(K)


class TestDecompositions:
    def test_volume_plus_body(self, rng):
        A = rand_poly(rng)
        v = Valuation(
            2,
            tuple(MVGenerator(2, i, tuple([A] * (2 - i)), F(comb(2, i))) for i in range(3)),
        )
        bodies = [unit_cube(2), standard_simplex(2)]
        for K in bodies:
            assert v.evaluate(K) == volume(minkowski_sum(K, A))
        dec = homogeneous_decomposition(v, bodies)
        K = unit_cube(2)
        assert dec.components[2].evaluate(K) == volume(K)
        assert dec.components[1].evaluate(K) == 2 * mixed_volume([K, A])
        assert dec.components[0].evaluate(K) == volume(A)

    def test_pure_volume(self):
        dec = homogeneous_decomposition(Valuation(2, (vol_valuation(2),)), [unit_cube(2)])
        assert dec.components[2].terms and not dec.components[0].terms

    def test_pure_euler(self):
        dec = homogeneous_decomposition(Valuation(2, (euler(2),)), [unit_cube(2)])
        assert dec.components[0].terms and not dec.components[2].terms

    def test_rejects_translation_variant(self):
        v = Valuation(2, (PDGenerator(2, X2, ()),))
        with pytest.raises(ValueError):
            homogeneous_decomposition(v, [unit_cube(2)])

    def test_parity_volume(self, rng):
        even, odd = parity_decomposition(Valuation(2, (vol_valuation(2),)))
        K = rand_poly(rng)
        assert evaluate(even, K) == volume(K)
        assert evaluate(odd, K) == 0

    def test_parity_asymmetric_body(self):
        A = asymmetric_triangle(0)
        v = Valuation(2, (MVGenerator(2, 1, (A,)),))
        even, odd = parity_decomposition(v)
        K = unit_cube(2)
        assert evaluate(even, K) + evaluate(odd, K) == v.evaluate(K)
        # K symmetric, so the odd part vanishes there; pick a skewed witness.
        W = asymmetric_triangle(1)
        total = evaluate(even, W) + evaluate(odd, W)
        assert total == v.evaluate(W)
        assert evaluate(odd, W) != 0

    def test_parity_even_body_gives_zero_odd(self, rng):
        v = Valuation(2, (MVGenerator(2, 1, (unit_cube(2),)),))
        _, odd = parity_decomposition(v)
        for K in (unit_cube(2), standard_simplex(2), rand_poly(rng)):
            assert evaluate(odd, K) == 0

    def test_parity_commutes_with_grading(self, rng):
        A = asymmetric_triangle(1)
        v = Valuation(
            2,
            tuple(MVGenerator(2, i, tuple([A] * (2 - i)), F(comb(2, i))) for i in range(3)),
        )
        bodies = [unit_cube(2), asymmetric_triangle(0)]
        dec = homogeneous_decomposition(v, bodies)
        even_total, odd_total = parity_decomposition(v)
        for K in bodies:
            even_sum = sum((evaluate(dec.parity[i][0], K) for i in range(3)), F(0))
            assert even_sum == evaluate(even_total, K)


class TestGradingAndParityProducts:
    def test_even_times_odd_complementary_vanishes(self, rng):
        # Symmetric body -> even degree-1 generator; odd part of an asymmetric
        # one pairs to zero with it by reflection invariance.
        sym = unit_cube(2)
        A = asymmetric_triangle(0)
        even_g = Valuation(2, (MVGenerator(2, 1, (sym,)),))
        odd_g = Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (reflect(A),), F(-1))))
        prod = product(even_g, odd_g)
        for K in (unit_cube(2), standard_simplex(2), rand_poly(rng)):
            assert evaluate(prod, K) == 0

    def test_product_is_degree_additive_by_scale_probe(self, rng):
        A, B = rand_poly(rng), rand_poly(rng)
        g = ProductGenerator(2, MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (B,)))
        K = standard_simplex(2)
        base = g.evaluate(K)
        for lam in (2, 3):
            assert g.evaluate(scale(K, lam)) == F(lam) ** 2 * base


class TestPairing:
    def test_one_by_one(self):
        sq = unit_cube(2)
        pm = pairing_matrix([MVGenerator(2, 1, (sq,))], [MVGenerator(2, 1, (sq,))])
        assert pm.entries == ((F(1, 2),),)

    def test_zero_row(self, rng):
        zero = MVGenerator(2, 1, (rand_poly(rng),), F(0))
        pm = pairing_matrix([zero], [MVGenerator(2, 1, (unit_cube(2),))])
        assert pm.entries[0][0] == 0 and pm.rank() == 0

    def test_generic_full_rank(self, rng):
        left = [MVGenerator(2, 1, (rand_poly(rng),)) for _ in range(3)]
        right = [MVGenerator(2, 1, (rand_poly(rng),)) for _ in range(3)]
        assert pairing_matrix(left, right).rank() == 3

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            pairing_matrix([MVGenerator(2, 1, (unit_cube(2),))], [MVGenerator(2, 1, (unit_cube(2),)), vol_valuation(2)])


class TestTranslationProfile:
    def test_invariant_generator_constant(self, rng):
        g = MVGenerator(2, 1, (rand_poly(rng),))
        p = translation_profile(g, unit_cube(2), (1, 0))
        assert p.degree() == 0

    def test_density_generator_degree_one(self):
        g = PDGenerator(2, X2, (unit_cube(2),))
        p = translation_profile(g, unit_cube(2), (1, 0))
        assert p.degree() == 1
        # Shift along y leaves the x-density untouched.
        q = translation_profile(g, unit_cube(2), (0, 1))
        assert q.degree() == 0

    def test_euler_constant_one(self):
        p = translation_profile(euler(2), unit_cube(2), (1, 1))
        assert p == Polynomial(1, {(0,): F(1)})


class TestAxiom:
    def test_volume_split(self):
        rep = valuation_axiom_check(vol_valuation(2), [(0, 1), (0, 1)], 0, F(1, 2))
        assert rep["equal"] and rep["pieces"]["overlap"] == 0

    def test_euler_split(self):
        rep = valuation_axiom_check(euler(2), [(0, 1), (0, 1)], 0, F(1, 2))
        assert rep["equal"] and rep["pieces"]["overlap"] == 1

    def test_density_split(self):
        rep = valuation_axiom_check(PDGenerator(2, X2, ()), [(0, 2), (0, 1)], 0, F(1, 3))
        assert rep["equal"]

    def test_cut_outside(self):
        with pytest.raises(ValueError):
            valuation_axiom_check(euler(2), [(0, 1), (0, 1)], 0, F(2))
