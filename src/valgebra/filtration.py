"""Filtrations on polynomial valuations as exact decision procedures.

Every implemented valuation restricted to r -> v(rK + x) is a polynomial, so
membership limits become exact lowest-nonzero-coefficient tests and the
symbol map becomes coefficient extraction.  Membership results are sample
certificates (with witnesses), never claims about all convex bodies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .geometry import Polytope, affine_dim, as_point, scale as scale_body, translate
from .interp import univariate_coeffs
from .intlinalg import independent_rows, solve
from .polynomials import Polynomial
from .samples import dimension_ladder, stock_bodies
from .valuations import (
    MVGenerator,
    PDGenerator,
    EulerGenerator,
    Valuation,
    as_valuation,
    product,
)


@dataclass(frozen=True)
class ScalingProfile:
    """Exact polynomial r -> v(rK + x) with its lowest nonzero order."""

    poly: Polynomial  # univariate
    lowest_order: int | None  # None for the zero polynomial

    def coefficient(self, k: int) -> Fraction:
        return self.poly.coefficient((k,))


def _total_density_degree(v: Valuation) -> int:
    return sum(t.density_degree() for t in v.terms)


def scaling_profile(v, K: Polytope, x) -> ScalingProfile:
    """Interpolate r -> v(rK + x) exactly on r = 0..n+d."""
    v = as_valuation(v)
    x = as_point(x)
    d = _total_density_degree(v)
    nodes = v.dim + d + 1
    vals = []
    for r in range(nodes):
        body = translate(scale_body(K, Fraction(r)), x)
        vals.append(v.evaluate(body))
    coeffs = univariate_coeffs(vals)
    poly = Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})
    return ScalingProfile(poly, min((e[0] for e in poly.terms), default=None))


@dataclass(frozen=True)
class MembershipCertificate:
    kind: str  # "vanishing" or "scaling"
    level: int
    passed: bool
    witnesses: tuple  # failing samples
    samples_checked: int


def vanishing_membership(v, level: int, samples) -> MembershipCertificate:
    """Certificate that v vanishes on every sample body of dimension < level."""
    v = as_valuation(v)
    failures = []
    checked = 0
    for K in samples:
        if affine_dim(K) >= level:
            continue
        checked += 1
        val = v.evaluate(K)
        if val != 0:
            failures.append((K, val))
    return MembershipCertificate("vanishing", level, not failures, tuple(failures), checked)


def scaling_membership(v, level: int, samples) -> MembershipCertificate:
    """Certificate that every scaling profile has lowest order >= level.

    This is the exact polynomial form of the vanishing-limit condition: the
    profile divided by r^(level-1) tends to zero at 0+ iff its lowest
    nonzero order is at least `level`.
    """
    v = as_valuation(v)
    failures = []
    checked = 0
    for K, x in samples:
        checked += 1
        prof = scaling_profile(v, K, x)
        if prof.lowest_order is not None and prof.lowest_order < level:
            failures.append(((K, x), prof.lowest_order))
    return MembershipCertificate("scaling", level, not failures, tuple(failures), checked)


def default_scaling_samples(n: int, seed: int = 20240, lean: bool = False) -> list[tuple[Polytope, tuple]]:
    rng = random.Random(seed)
    bodies = stock_bodies(n, rng)
    if lean:
        bodies = bodies[:3]
    else:
        for k, flat in dimension_ladder(n, rng).items():
            bodies.extend(flat)
    e1 = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
    e12 = tuple(Fraction(1 if i <= 1 else 0) for i in range(n))
    zero = tuple(Fraction(0) for _ in range(n))
    xs = [zero, e1] if lean else [zero, e1, e12]
    return [(K, x) for K in bodies for x in xs]


def default_vanishing_samples(n: int, seed: int = 20240) -> list[Polytope]:
    """Bodies of every affine dimension up to n, so level-(n+1) claims are honest."""
    rng = random.Random(seed)
    out = []
    for k, flat in dimension_ladder(n, rng).items():
        out.extend(flat)
    out.extend(stock_bodies(n, rng))
    return out


@dataclass(frozen=True)
class Symbol:
    """Leading scaling behaviour: pairs of (translation-invariant part, polynomial in x)."""

    dim: int
    degree: int
    pairs: tuple[tuple[Valuation, Polynomial], ...]
    dual_route_checked: bool

    def evaluate(self, K: Polytope, x) -> Fraction:
        x = [Fraction(c) if not isinstance(c, Fraction) else c for c in x]
        total = Fraction(0)
        for va, po in self.pairs:
            total += va.evaluate(K) * po.eval(x)
        return total


def _closed_form_symbol_term(g, i: int):
    """Symbol pair of a single generator at level i, when a closed form exists."""
    n = g.dim
    if isinstance(g, EulerGenerator):
        if i != 0:
            return None
        return (Valuation(n, (g,)), Polynomial.constant(n, 1))
    if isinstance(g, MVGenerator):
        if g.degree != i:
            return None
        return (Valuation(n, (g,)), Polynomial.constant(n, 1))
    if isinstance(g, PDGenerator):
        s = len(g.slack)
        if n - s != i:
            return None
        # The translation-invariant part absorbs the derivative prefactor; the
        # x-dependence is exactly the density.
        mv = MVGenerator(n, i, g.slack, g.coeff * Fraction(factorial(n), factorial(i)))
        return (Valuation(n, (mv,)), g.density)
    return None


def symbol(v, i: int, k_grid, x_grid, require_membership: bool = True) -> Symbol:
    """Level-i symbol: the r^i coefficient of r -> v(rK + x), in closed form.

    Terms of strictly higher level drop out.  The closed form is verified
    exactly against coefficient extraction on the supplied grids, and for
    densities of degree at most one the x-dependence reconstructed from the
    grid must coincide with the closed-form density.
    """
    v = as_valuation(v)
    n = v.dim
    k_grid = list(k_grid)
    x_grid = [as_point(x) for x in x_grid]
    if not k_grid or not x_grid:
        raise ValueError("symbol extraction needs nonempty body and point grids")
    if require_membership:
        cert = scaling_membership(v, i, [(K, x) for K in k_grid for x in x_grid])
        if not cert.passed:
            raise ValueError(f"scaling membership at level {i} fails: {cert.witnesses[:1]}")
    pairs = []
    for t in v.terms:
        got = _closed_form_symbol_term(t, i)
        if got is not None:
            pairs.append(got)
            continue
        hom = t.homogeneity()
        if hom is not None and hom > i:
            continue  # strictly higher level: contributes nothing at level i
        if isinstance(t, PDGenerator) and n - len(t.slack) > i:
            continue  # scaling order at least n - s, still above the level
        raise ValueError(f"no closed-form symbol for term kind {type(t).__name__}")
    sym = Symbol(n, i, tuple(pairs), dual_route_checked=True)
    # Dual route: closed form against grid extraction, exact.
    for K in k_grid:
        vals = []
        for x in x_grid:
            prof = scaling_profile(v, K, x)
            got = prof.coefficient(i)
            if got != sym.evaluate(K, x):
                raise ArithmeticError("symbol closed form disagrees with coefficient extraction")
            vals.append(got)
        fitted = _affine_fit(x_grid, vals, n) if _total_density_degree(v) <= 1 else None
        if fitted is not None and all(fitted.eval(x) == val for x, val in zip(x_grid, vals)):
            direct = Polynomial(n)
            for va, po in sym.pairs:
                direct = direct + po.scale(va.evaluate(K))
            if direct.degree() <= 1 and fitted != direct:
                raise ArithmeticError("grid-reconstructed density disagrees with the closed form")
    return sym


def _affine_fit(x_grid, values, n: int) -> Polynomial | None:
    """The affine polynomial through the sampled values, fitted on the first
    n + 1 points whose rows [1, x] are independent; None when the rows have
    rank below n + 1, so that no fit is unique."""
    rows = [(1,) + tuple(x) for x in x_grid]
    kept, _ = independent_rows(rows, n + 1)
    if len(kept) <= n:
        return None
    sol = solve([rows[k] for k in kept], [values[k] for k in kept])
    exps = [(0,) * n] + [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return Polynomial(n, dict(zip(exps, sol)))


def symbol_homomorphism_check(phi, psi, i: int, j: int, samples) -> dict:
    """Exact check that the symbol of a product is the product of symbols.

    Left side: the r^(i+j) coefficient of (phi.psi)(rK + x).  Right side: the
    diagonal specialization of the symbol product.  Guarded to dimension 2.
    """
    phi, psi = as_valuation(phi), as_valuation(psi)
    n = phi.dim
    if n > 2:
        raise ValueError("symbol product checks are guarded to dimension 2")
    samples = list(samples)
    k_grid = sorted({K for K, _ in samples}, key=lambda P: P.vertices)
    x_grid = [x for _, x in samples]
    cert_i = scaling_membership(phi, i, samples)
    cert_j = scaling_membership(psi, j, samples)
    if not (cert_i.passed and cert_j.passed):
        raise ValueError("membership preconditions fail on the samples")
    sym_i = symbol(phi, i, k_grid, x_grid, require_membership=False)
    sym_j = symbol(psi, j, k_grid, x_grid, require_membership=False)
    prod_val = product(phi, psi)
    mismatches = []
    for K, x in samples:
        left = scaling_profile(prod_val, K, x).coefficient(i + j)
        right = Fraction(0)
        for va, pa in sym_i.pairs:
            for vb, pb in sym_j.pairs:
                right += product(va, vb).evaluate(K) * pa.eval(x) * pb.eval(x)
        if left != right:
            mismatches.append(((K, x), left, right))
    return {
        "level": i + j,
        "samples": len(samples),
        "passed": not mismatches,
        "mismatches": mismatches,
    }


def generator_levels(v, n: int, seed: int = 20240, lean: bool = False) -> dict:
    """Sample-certified vanishing and scaling levels of a valuation."""
    v = as_valuation(v)
    flat = default_vanishing_samples(n, seed)
    pairs = default_scaling_samples(n, seed, lean=lean)
    gamma_level = 0
    for k in range(n + 1):
        dim_k = [K for K in flat if affine_dim(K) == k]
        if any(v.evaluate(K) != 0 for K in dim_k):
            break
        gamma_level = k + 1
    orders = []
    for K, x in pairs:
        prof = scaling_profile(v, K, x)
        if prof.lowest_order is not None:
            orders.append(prof.lowest_order)
    w_level = min(orders) if orders else n + 1
    return {"gamma_level": gamma_level, "w_level": w_level, "seed": seed}


def filtration_report(generators, n: int, seed: int = 20240, check_products: bool = True) -> dict:
    """Levels, sandwich certificates and product multiplicativity for a set.

    The sandwich certificate is w <= gamma <= w + 1 per generator; products
    must pass scaling membership at the sum of the factor levels (checked for
    dimension at most 2).
    """
    generators = list(generators)
    lean_pairs = default_scaling_samples(n, seed, lean=True)
    per_gen = []
    for g in generators:
        lv = generator_levels(g, n, seed)
        lv["sandwich_ok"] = lv["w_level"] <= lv["gamma_level"] <= lv["w_level"] + 1
        per_gen.append(lv)
    product_checks = []
    if check_products and n <= 2:
        for a in range(len(generators)):
            for b in range(a, len(generators)):
                w_sum = per_gen[a]["w_level"] + per_gen[b]["w_level"]
                prod_v = product(generators[a], generators[b])
                cert = scaling_membership(prod_v, min(w_sum, n + 1), lean_pairs)
                product_checks.append(
                    {"left": a, "right": b, "level": w_sum, "passed": cert.passed}
                )
    return {
        "dim": n,
        "seed": seed,
        "generators": per_gen,
        "products": product_checks,
        "all_sandwich_ok": all(g["sandwich_ok"] for g in per_gen),
        "all_products_ok": all(p["passed"] for p in product_checks),
    }
