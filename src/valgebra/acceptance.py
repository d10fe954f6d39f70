"""The acceptance suite: every exit criterion as a callable check.

Each criterion returns {"id", "name", "passed", "details", "elapsed"}.  The
CLI `verify` command and the pytest acceptance module both run these.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial

from . import filtration as filt
from .geometry import reflect, volume
from .invariants import lefschetz_check, structure_constants, unitary_dimension
from .mixed import (
    derivative_at_zero,
    minkowski_polynomial,
    mixed_volume,
    mixed_volume_grouped,
    projection_identity_check,
    _group_bodies,
)
from .polynomials import Polynomial
from .samples import (
    asymmetric_triangle,
    random_polytope,
    segment,
    standard_simplex,
    unit_cube,
)
from .valuations import (
    EulerGenerator,
    MVGenerator,
    PDGenerator,
    ProductGenerator,
    Valuation,
    closed_form_product,
    diagonal_product_evaluate,
    euler,
    evaluate,
    homogeneous_decomposition,
    odd_product_witness,
    pairing_matrix,
    product,
    valuation_axiom_check,
    vol_valuation,
)
from .geometry import minkowski_sum

# Tight rational bounds on pi for certified containment checks.
PI_LO = Fraction(3141592653589793, 10 ** 15)
PI_HI = Fraction(3141592653589794, 10 ** 15)

DEFAULT_SEED = 20240


def _timed(fn):
    t0 = time.time()
    out = fn()
    out["elapsed"] = round(time.time() - t0, 3)
    return out


def criterion_1(seed: int = DEFAULT_SEED) -> dict:
    """Diagonal degeneration: V(K, ..., K) equals vol(K) exactly."""

    def run():
        rng = random.Random(seed)
        checked = 0
        for n in (2, 3):
            for _ in range(10):
                K = random_polytope(n, rng, n_points=n + 3)
                if mixed_volume([K] * n) != volume(K):
                    return {"passed": False, "details": f"mismatch on {K}"}
                checked += 1
        return {"passed": True, "details": f"{checked} random bodies, n in (2, 3)"}

    out = _timed(run)
    out.update({"id": 1, "name": "diagonal degeneration V(K,..,K) = vol(K)"})
    return out


def criterion_2(seed: int = DEFAULT_SEED) -> dict:
    """Closed-form product equals the diagonal-route product, exactly."""

    def run():
        rng = random.Random(seed)
        cases = 0
        for _ in range(10):
            A = random_polytope(2, rng, n_points=5)
            B = random_polytope(2, rng, n_points=5)
            K = random_polytope(2, rng, n_points=5)
            phi = MVGenerator(2, 1, (A,))
            psi = MVGenerator(2, 1, (B,))
            if closed_form_product(phi, psi).evaluate(K) != diagonal_product_evaluate(phi, psi, K):
                return {"passed": False, "details": "n=2 mismatch"}
            cases += 1
        for i in (1, 2, 1):
            K = random_polytope(3, rng, n_points=4)
            bodies = [random_polytope(3, rng, n_points=4) for _ in range(3)]
            phi = MVGenerator(3, i, tuple(bodies[: 3 - i]))
            psi = MVGenerator(3, 3 - i, tuple(bodies[3 - i :]))
            if closed_form_product(phi, psi).evaluate(K) != diagonal_product_evaluate(phi, psi, K):
                return {"passed": False, "details": f"n=3 i={i} mismatch"}
            cases += 1
        return {"passed": True, "details": f"{cases} dual-route instances (10 planar, 3 spatial)"}

    out = _timed(run)
    out.update({"id": 2, "name": "closed form = diagonal route (complementary degrees)"})
    return out


def criterion_3(seed: int = DEFAULT_SEED) -> dict:
    """Unit law, commutativity, associativity at the evaluation level."""

    def run():
        rng = random.Random(seed)
        A = random_polytope(2, rng, n_points=4)
        B = random_polytope(2, rng, n_points=4)
        bodies = [unit_cube(2), standard_simplex(2), asymmetric_triangle(0),
                  random_polytope(2, rng, n_points=5), random_polytope(2, rng, n_points=6)]
        chi = euler(2)
        x_poly = Polynomial(2, {(1, 0): Fraction(1)})
        kinds = [
            MVGenerator(2, 1, (A,)),
            PDGenerator(2, x_poly, (B,)),
            EulerGenerator(2, Fraction(3, 2)),
            ProductGenerator(2, MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (B,))),
        ]
        for psi in kinds:
            for K in bodies:
                if evaluate(product(chi, psi), K) != psi.evaluate(K):
                    return {"passed": False, "details": f"unit law fails for {type(psi).__name__}"}
        # Commutativity on mixed kinds.
        phi = MVGenerator(2, 1, (A,))
        psi = PDGenerator(2, x_poly, (B,))
        for K in bodies:
            if diagonal_product_evaluate(phi, psi, K) != diagonal_product_evaluate(psi, phi, K):
                return {"passed": False, "details": "commutativity fails"}
        # Associativity: nested closed forms against the flat triple diagonal
        # (the two groupings route through genuinely different computations).
        psi_mv = MVGenerator(2, 1, (B,))
        eta = MVGenerator(2, 0, (segment(2, 0), segment(2, 1)))
        for K in (standard_simplex(2), asymmetric_triangle(1)):
            nested = evaluate(product(product(phi, psi_mv), eta), K)
            flat_left = ProductGenerator(2, ProductGenerator(2, phi, psi_mv), eta)
            flat_right = ProductGenerator(2, phi, ProductGenerator(2, psi_mv, eta))
            a = flat_left.evaluate(K)
            b = flat_right.evaluate(K)
            if not (nested == a == b):
                return {"passed": False, "details": f"associativity: {nested}, {a}, {b}"}
        return {"passed": True, "details": "unit law (4 kinds x 5 bodies), commutativity, associativity"}

    out = _timed(run)
    out.update({"id": 3, "name": "unit, commutativity, associativity"})
    return out


def criterion_4(seed: int = DEFAULT_SEED) -> dict:
    """Derivative identity: the mixed derivative of the volume polynomial,
    interpolated from one hull per grid point, equals n!/i! times the mixed
    volume read off one pulled hull of the sum."""

    def run():
        rng = random.Random(seed)
        cases = 0
        for n in (2, 2, 2, 2, 2, 2, 3, 3, 3, 3):
            i = rng.randrange(0, n + 1)
            K = random_polytope(n, rng, n_points=n + 2)
            slack = [random_polytope(n, rng, n_points=n + 2) for _ in range(n - i)]
            mp = minkowski_polynomial(K, slack)
            lhs = derivative_at_zero(mp, list(range(n - i)))
            groups, _ = _group_bodies(slack)
            full = ([(K, i)] if i else []) + groups
            rhs = Fraction(factorial(n), factorial(i)) * mixed_volume_grouped(full, n)
            if lhs != rhs:
                return {"passed": False, "details": f"n={n} i={i} mismatch {lhs} vs {rhs}"}
            cases += 1
        return {"passed": True, "details": f"{cases} instances, n in (2, 3)"}

    out = _timed(run)
    out.update({"id": 4, "name": "mixed derivative identity (dual route)"})
    return out


def criterion_5(seed: int = DEFAULT_SEED) -> dict:
    """Projection identity for flat bodies, exact."""

    def run():
        rng = random.Random(seed)
        r1 = projection_identity_check(segment(1, 0), [random_polytope(2, rng, n_points=5)])
        if not r1["equal"]:
            return {"passed": False, "details": f"N=2 case: {r1}"}
        cube4 = unit_cube(4)
        r2 = projection_identity_check(unit_cube(2), [cube4, cube4])
        if not r2["equal"]:
            return {"passed": False, "details": f"N=4 cube case: {r2}"}
        r3 = projection_identity_check(unit_cube(2), [cube4, random_polytope(4, rng, n_points=6)])
        if not r3["equal"]:
            return {"passed": False, "details": f"N=4 random case: {r3}"}
        return {"passed": True, "details": "N=2,n=1 and two N=4,n=2 instances exact"}

    out = _timed(run)
    out.update({"id": 5, "name": "flat-body projection identity"})
    return out


def criterion_6(seed: int = DEFAULT_SEED) -> dict:
    """Odd witness pair gives a nonzero pairing; symmetric inputs give zero."""

    def run():
        w = odd_product_witness(asymmetric_triangle(0), asymmetric_triangle(1))
        if w == 0:
            return {"passed": False, "details": "stored witness pair pairs to zero"}
        z1 = odd_product_witness(unit_cube(2), asymmetric_triangle(1))
        z2 = odd_product_witness(asymmetric_triangle(0), unit_cube(2))
        if z1 != 0 or z2 != 0:
            return {"passed": False, "details": "symmetric input did not vanish"}
        return {"passed": True, "details": f"witness value {w}, symmetric cases exactly 0"}

    out = _timed(run)
    out.update({"id": 6, "name": "odd-part pairing witness"})
    return out


def criterion_7(seed: int = DEFAULT_SEED) -> dict:
    """Structure constants: c11 brackets pi/2 tightly (n=2); positivity (n=3)."""

    def run():
        sc2 = structure_constants(2, 5, seed=seed)
        c11 = sc2.entry(1, 1)
        target_lo, target_hi = PI_LO / 2, PI_HI / 2
        if not (c11.lo <= target_lo and target_hi <= c11.hi):
            return {"passed": False, "details": f"c11={c11.as_floats()} misses pi/2"}
        if c11.width() > Fraction(1, 100):
            return {"passed": False, "details": f"c11 width {float(c11.width())} > 1e-2"}
        sc3 = structure_constants(3, 1, seed=seed)
        for (i, j), iv in sc3.table.items():
            if not iv.excludes_zero():
                return {"passed": False, "details": f"c{i}{j} bracket includes 0: {iv.as_floats()}"}
        for sc in (sc2, sc3):
            for key, ivals in sc.per_body.items():
                for a in range(len(ivals)):
                    for b in range(a + 1, len(ivals)):
                        if not ivals[a].overlaps(ivals[b]):
                            return {"passed": False, "details": f"proportionality fails at {key}"}
        return {
            "passed": True,
            "details": f"c11 = [{float(c11.lo):.6f}, {float(c11.hi):.6f}] (width {float(c11.width()):.2e}); n=3 entries positive",
        }

    out = _timed(run)
    out.update({"id": 7, "name": "intrinsic structure constants (pi/2 bracket, positivity)"})
    return out


def criterion_8(seed: int = DEFAULT_SEED) -> dict:
    """Graded decomposition of K -> vol(K + A): reassembly and degree purity."""

    def run():
        rng = random.Random(seed)
        n = 2
        test_bodies = [unit_cube(2), standard_simplex(2), random_polytope(2, rng, n_points=5)]
        for trial in range(5):
            A = random_polytope(2, rng, n_points=5)
            v = Valuation(
                2,
                tuple(
                    MVGenerator(2, i, tuple([A] * (n - i)), Fraction(comb(n, i)))
                    for i in range(n + 1)
                ),
            )
            for K in test_bodies:
                if v.evaluate(K) != volume(minkowski_sum(K, A)):
                    return {"passed": False, "details": "expansion disagrees with direct volume"}
            dec = homogeneous_decomposition(v, test_bodies)  # verifies purity internally
            for K in test_bodies:
                total = sum((dec.components[i].evaluate(K) for i in range(n + 1)), Fraction(0))
                if total != v.evaluate(K):
                    return {"passed": False, "details": "components do not reassemble"}
        return {"passed": True, "details": "5 random A; reassembly and scale-purity exact"}

    out = _timed(run)
    out.update({"id": 8, "name": "graded decomposition of vol(K + A)"})
    return out


def criterion_9(seed: int = DEFAULT_SEED) -> dict:
    """Filtration suite: orders, multiplicativity, sandwich, symbols."""

    def run():
        rng = random.Random(seed)
        n = 2
        A = asymmetric_triangle(0)
        B = random_polytope(2, rng, n_points=5)
        x_poly = Polynomial(2, {(1, 0): Fraction(1)})
        # Exact lowest orders of mixed-volume generators.
        K = random_polytope(2, rng, n_points=5)
        zero = (Fraction(0), Fraction(0))
        for i in range(n + 1):
            g = MVGenerator(2, i, tuple([B] * (n - i)))
            prof = filt.scaling_profile(g, K, zero)
            if g.evaluate(K) != 0 and prof.lowest_order != i:
                return {"passed": False, "details": f"degree-{i} generator has order {prof.lowest_order}"}
        gens = [
            Valuation(2, (euler(2),)),
            Valuation(2, (MVGenerator(2, 1, (A,)),)),
            Valuation(2, (vol_valuation(2),)),
            Valuation(2, (PDGenerator(2, x_poly, (B,)),)),
            Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (reflect(A),), Fraction(-1)))),
        ]
        report = filt.filtration_report(gens, 2, seed=seed)
        if not report["all_products_ok"]:
            return {"passed": False, "details": "a product failed additive scaling membership"}
        if not report["all_sandwich_ok"]:
            return {"passed": False, "details": "a sandwich certificate failed"}
        # Symbol dual route on density generators (internal exact check).
        k_grid = [unit_cube(2), standard_simplex(2)]
        x_grid = [zero, (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
        filt.symbol(Valuation(2, (PDGenerator(2, x_poly, (B,)),)), 1, k_grid, x_grid)
        filt.symbol(Valuation(2, (MVGenerator(2, 1, (A,)),)), 1, k_grid, x_grid)
        filt.symbol(Valuation(2, (vol_valuation(2),)), 2, k_grid, x_grid)
        # Symbol multiplicativity on five pairs.
        samples = [(Kb, x) for Kb in k_grid for x in x_grid]
        pairs = [
            (gens[1], gens[1], 1, 1),
            (gens[1], gens[3], 1, 1),
            (gens[3], gens[3], 1, 1),
            (gens[0], gens[3], 0, 1),
            (gens[2], gens[0], 2, 0),
        ]
        for pa, pb, i, j in pairs:
            rep = filt.symbol_homomorphism_check(pa, pb, i, j, samples)
            if not rep["passed"]:
                return {"passed": False, "details": f"symbol product fails: {rep['mismatches'][:1]}"}
        return {"passed": True, "details": "orders, products, sandwich, symbol dual-route, 5 pairs"}

    out = _timed(run)
    out.update({"id": 9, "name": "filtration suite"})
    return out


def criterion_10(seed: int = DEFAULT_SEED) -> dict:
    """Dimension formula values, symmetry, and profile inequalities."""

    def run():
        for m in range(1, 5):
            for k in range(0, 2 * m + 1):
                v = unitary_dimension(k, m)
                if v != 1 + min(k, 2 * m - k) // 2:
                    return {"passed": False, "details": f"formula value wrong at k={k}, m={m}"}
                if v != unitary_dimension(2 * m - k, m):
                    return {"passed": False, "details": f"symmetry fails at k={k}, m={m}"}
        prof_on = lefschetz_check([1, 1, 1, 1])
        prof_u2 = lefschetz_check([unitary_dimension(k, 2) for k in range(5)])
        if not (prof_on["monotone"] and prof_on["duality"]):
            return {"passed": False, "details": "constant profile fails"}
        if prof_u2["profile"] != [1, 1, 2, 1, 1] or not (prof_u2["monotone"] and prof_u2["duality"]):
            return {"passed": False, "details": f"U(2) profile fails: {prof_u2}"}
        return {"passed": True, "details": "formula for 2m <= 8; profiles (1,1,1,1) and (1,1,2,1,1)"}

    out = _timed(run)
    out.update({"id": 10, "name": "dimension formula and profile inequalities"})
    return out


def criterion_11(seed: int = DEFAULT_SEED) -> dict:
    """Valuation axiom on box splits for volume, the unit, and a density."""

    def run():
        x_poly = Polynomial(2, {(1, 0): Fraction(1)})
        cases = [
            Valuation(2, (vol_valuation(2),)),
            Valuation(2, (euler(2),)),
            Valuation(2, (PDGenerator(2, x_poly, ()),)),
        ]
        for v in cases:
            rep = valuation_axiom_check(v, [(0, 1), (0, 1)], 0, Fraction(1, 2))
            if not rep["equal"]:
                return {"passed": False, "details": f"axiom fails: {rep}"}
            rep = valuation_axiom_check(v, [(-1, 2), (0, 3)], 1, Fraction(1, 3))
            if not rep["equal"]:
                return {"passed": False, "details": f"axiom fails on skewed box: {rep}"}
        return {"passed": True, "details": "volume, unit, density on two box splits each"}

    out = _timed(run)
    out.update({"id": 11, "name": "valuation axiom on box splits"})
    return out


def criterion_12(seed: int = DEFAULT_SEED) -> dict:
    """A random 3x3 complementary-degree pairing matrix has full rank."""

    def run():
        attempts = []
        s = seed
        for trial in range(3):
            rng = random.Random(s)
            left = [MVGenerator(2, 1, (random_polytope(2, rng, n_points=5),)) for _ in range(3)]
            right = [MVGenerator(2, 1, (random_polytope(2, rng, n_points=5),)) for _ in range(3)]
            pm = pairing_matrix(left, right)
            rank = pm.rank()
            attempts.append({"seed": s, "rank": rank})
            if rank == 3:
                return {"passed": True, "details": f"full rank at seed {s} (attempt {trial + 1})"}
            s += 1
        return {"passed": False, "details": f"three degenerate draws: {attempts}"}

    out = _timed(run)
    out.update({"id": 12, "name": "pairing matrix full rank (with redraws)"})
    return out


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(seed: int = DEFAULT_SEED) -> list[dict]:
    return [fn(seed) for fn in ALL_CRITERIA]
