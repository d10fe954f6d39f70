"""Mixed volumes, Minkowski polynomials and Steiner data.

Mixed volumes come from inclusion-exclusion over Minkowski sums, with equal
bodies grouped by multiplicity so that only a handful of full-size hull
computations are needed.  Minkowski polynomials (volume or a polynomial
density integrated over `K + sum lambda_j A_j`) are recovered exactly by
interpolation on integer grids sized by per-body degree bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .geometry import (
    Polytope,
    affine_dim,
    ball_approx,
    unit_segment_ball,
    volume,
)
from .hull import hull_data_int
from .intervals import Interval
from .interp import tensor_interpolate
from .intlinalg import scale_to_ints
from .polynomials import Polynomial, integrate_points


def _group_bodies(bodies) -> tuple[list[tuple[Polytope, int]], list[int]]:
    """Group equal bodies; returns (groups, slot->group index)."""
    groups: list[tuple[Polytope, int]] = []
    slot_map: list[int] = []
    for body in bodies:
        for gi, (rep, mult) in enumerate(groups):
            if rep == body:
                groups[gi] = (rep, mult + 1)
                slot_map.append(gi)
                break
        else:
            groups.append((body, 1))
            slot_map.append(len(groups) - 1)
    return groups, slot_map


def _combo_candidates(parts: list[tuple[Polytope, Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Vertex candidates of a sum of scaled polytopes (no canonicalization).

    The candidates are integer points over one common denominator, returned
    with it; both are the least ones, as `scale_to_ints` would give.
    """
    scaled = []
    for body, coef in parts:
        if coef == 0:
            continue
        pts, den = scale_to_ints(body.vertices)
        scaled.append((pts, coef.numerator, coef.denominator * den))
    if not scaled:
        return [], 1
    scale = lcm(*(den for _, _, den in scaled))
    out = None
    for pts, num, den in scaled:
        m = num * (scale // den)
        vs = [tuple(m * x for x in p) for p in pts]
        out = vs if out is None else list(dict.fromkeys(tuple(a + b for a, b in zip(p, q)) for p in out for q in vs))
    g = gcd(scale, *(x for p in out for x in p))
    if g > 1:
        out = [tuple(x // g for x in p) for p in out]
    return out, scale // g


def _combo_measure(parts: list[tuple[Polytope, Fraction]], n: int, density: Polynomial | None) -> Fraction:
    cands, scale = _combo_candidates(parts)
    if not cands:
        return Fraction(0)
    if density is not None:
        return integrate_points(cands, n, density, scale)
    data = hull_data_int(cands, n, scale)
    return Fraction(0) if data is None else data.volume()


def mixed_volume_grouped(groups: list[tuple[Polytope, int]], n: int) -> Fraction:
    """V(body_1[m_1], ..., body_g[m_g]) with sum of multiplicities n."""
    total_mult = sum(m for _, m in groups)
    if total_mult != n:
        raise ValueError("multiplicities must sum to the dimension")
    for body, _ in groups:
        if body.dim != n:
            raise ValueError("mixed volume bodies must live in the ambient dimension")
    total = Fraction(0)
    ranges = [range(m + 1) for _, m in groups]
    for counts in itertools.product(*ranges):
        k = sum(counts)
        if k == 0:
            continue
        coef = 1
        for (_, m), a in zip(groups, counts):
            coef *= comb(m, a)
        parts = [(body, Fraction(a)) for (body, _), a in zip(groups, counts) if a]
        vol = _combo_measure(parts, n, None)
        if vol:
            total += (-1) ** (n - k) * coef * vol
    return total / factorial(n)


def mixed_volume(bodies) -> Fraction:
    """Symmetric multilinear mixed volume of n bodies in dimension n.

    Normalized so that V(K, ..., K) equals vol(K) and
    vol(sum lambda_i K_i) = sum over n-tuples V(K_i1, ..., K_in) lambda_i1...lambda_in.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("mixed volume needs at least one body")
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError(f"mixed volume in dimension {n} needs exactly {n} bodies")
    groups, _ = _group_bodies(bodies)
    return mixed_volume_grouped(groups, n)


def mixed_derivative_coefficient(
    base: Polytope,
    slack: list[Polytope],
    n: int,
    density: Polynomial | None = None,
) -> Fraction:
    """d^s/(dlam_1 ... dlam_s) at 0 of measure(base + sum lam_j slack_j).

    With no density, or a constant one c, this equals (c times) n!/(n-s)!
    times the mixed volume with the base repeated n-s times, computed by
    polarization.  With a nonconstant density the grouped Minkowski
    polynomial is interpolated and the mixed coefficient extracted with
    multiplicity factorials.
    """
    s = len(slack)
    d = density.degree() if density is not None else 0
    if s > n + d:
        return Fraction(0)
    groups, _ = _group_bodies(slack)
    if d == 0:
        c = density.coefficient((0,) * n) if density is not None else 1
        full = ([(base, n - s)] if n > s else []) + groups
        return c * Fraction(factorial(n), factorial(n - s)) * mixed_volume_grouped(full, n)
    poly = _grouped_sum_polynomial(base, groups, n, density)
    exp = tuple(m for _, m in groups)
    coef = poly.coefficient(exp)
    for _, m in groups:
        coef *= factorial(m)
    return coef


def _grouped_sum_polynomial(
    base: Polytope,
    groups: list[tuple[Polytope, int]],
    n: int,
    density: Polynomial | None,
) -> Polynomial:
    """Exact polynomial s -> measure(base + sum s_g rep_g) by interpolation."""
    d = density.degree() if density is not None else 0
    degs = []
    for rep, _ in groups:
        degs.append(min(affine_dim(rep), n) + d)

    def build(axis: int, coeffs: list[Fraction]):
        if axis == len(groups):
            parts = [(base, Fraction(1))]
            parts += [(rep, c) for (rep, _), c in zip(groups, coeffs)]
            return _combo_measure(parts, n, density)
        return [build(axis + 1, coeffs + [Fraction(k)]) for k in range(degs[axis] + 1)]

    values = build(0, [])
    if not groups:
        return Polynomial.constant(0, values)
    return tensor_interpolate(values, degs)


@dataclass(frozen=True)
class MinkowskiPolynomial:
    """vol or integral of a density over K + sum lambda_j A_j, as a polynomial."""

    base: Polytope
    slack: tuple[Polytope, ...]
    density: Polynomial | None
    poly: Polynomial

    def eval(self, lambdas) -> Fraction:
        return self.poly.eval(lambdas)


def minkowski_polynomial(K: Polytope, slack, density: Polynomial | None = None) -> MinkowskiPolynomial:
    """Exact multivariate Minkowski polynomial in one variable per slack body."""
    slack = list(slack)
    n = K.dim
    for A in slack:
        if A.dim != n:
            raise ValueError("slack bodies must share the ambient dimension")
    if density is not None and density.num_vars != n:
        raise ValueError("density variable count must match the ambient dimension")
    groups, slot_map = _group_bodies(slack)
    grouped = _grouped_sum_polynomial(K, groups, n, density)
    s = len(slack)
    if s == 0:
        value = grouped.coefficient(())
        return MinkowskiPolynomial(K, (), density, Polynomial.constant(0, value))
    # Expand each group variable into the sum of its slot variables.
    reps = []
    for gi in range(len(groups)):
        p = Polynomial(s)
        for slot, g in enumerate(slot_map):
            if g == gi:
                p = p + Polynomial.variable(s, slot)
        reps.append(p)
    return MinkowskiPolynomial(K, tuple(slack), density, grouped.substitute(reps))


def derivative_at_zero(mp: MinkowskiPolynomial, variables=None) -> Fraction:
    """Mixed first partial derivative of the polynomial at the origin.

    With no variables listed this is the constant term (the base measure).
    """
    s = len(mp.slack)
    if variables is None:
        variables = list(range(s))
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("each variable may be differentiated once")
    for v in variables:
        if not (0 <= v < s):
            raise ValueError(f"unknown variable index {v}")
    exp = tuple(1 if j in set(variables) else 0 for j in range(s))
    return mp.poly.coefficient(exp)


# ---------------------------------------------------------------------------
# Steiner polynomial and intrinsic volumes, bracketed by ball approximations.


def unit_ball_volume(j: int, level: int) -> Interval:
    """Volume of the unit j-ball as an exact bracket (j <= 3)."""
    if j == 0:
        return Interval.point(1)
    if j == 1:
        return Interval.point(2)
    if j in (2, 3):
        lo = volume(ball_approx(j, level, "inscribed"))
        hi = volume(ball_approx(j, level, "circumscribed"))
        return Interval(lo, hi)
    raise ValueError("unit ball volume implemented for dimensions up to 3")


def _ball_pair(n: int, level: int) -> tuple[Polytope, Polytope]:
    if n == 1:
        b = unit_segment_ball()
        return b, b
    return ball_approx(n, level, "inscribed"), ball_approx(n, level, "circumscribed")


def steiner_coeffs(K: Polytope, level: int) -> list[Interval]:
    """Brackets of the coefficients of vol(K + eps * ball), degree 0..n.

    Index i is the eps^i coefficient.  Brackets at consecutive levels are
    intersected, so they shrink monotonically with the level.
    """
    n = K.dim
    if n not in (2, 3):
        raise ValueError("Steiner coefficients support dimensions 2 and 3")
    if level < 1:
        raise ValueError("level must be at least 1")
    lo_ball, hi_ball = _ball_pair(n, level)
    mp_lo = minkowski_polynomial(K, [lo_ball]).poly
    mp_hi = minkowski_polynomial(K, [hi_ball]).poly
    out = []
    for i in range(n + 1):
        a = mp_lo.coefficient((i,))
        b = mp_hi.coefficient((i,))
        if a > b:
            raise ArithmeticError("ball bracket ordering violated")
        out.append(Interval(a, b))
    if level > 1:
        prev = steiner_coeffs(K, level - 1)
        out = [cur.intersect(prv) for cur, prv in zip(out, prev)]
    return out


def intrinsic_volume_brackets(K: Polytope, level: int) -> list[Interval]:
    """Brackets of the intrinsic volumes V_0 .. V_n of K.

    V_i is the eps^(n-i) Steiner coefficient divided by the volume of the
    unit (n-i)-ball; V_n is exactly vol(K) and V_0 brackets 1.
    """
    n = K.dim
    coeffs = steiner_coeffs(K, level)
    out = []
    for i in range(n + 1):
        out.append(coeffs[n - i] / unit_ball_volume(n - i, level))
    return out


def projection_identity_check(M: Polytope, A_list) -> dict:
    """Mixed volume of a flat body against its complement projections.

    M lives in the first-n-coordinates subspace of an N-dimensional space;
    the identity checked is
    V_N(M[n], A_1, ..., A_{N-n}) == vol_n(M) V_{N-n}(proj A_1, ..., proj A_{N-n}) / C(N, n).
    """
    A_list = list(A_list)
    if not A_list:
        raise ValueError("need at least one complement body")
    big_n = A_list[0].dim
    n = M.dim
    if big_n != n + len(A_list):
        raise ValueError("split is misaligned: need dim(A) = dim(M) + number of bodies")
    for A in A_list:
        if A.dim != big_n:
            raise ValueError("complement bodies must live in the big space")
    pad = tuple(Fraction(0) for _ in range(big_n - n))
    m_emb = Polytope._trusted(big_n, [v + pad for v in M.vertices])
    groups, _ = _group_bodies(A_list)
    lhs = mixed_volume_grouped([(m_emb, n)] + groups, big_n)
    z = big_n - n
    from .geometry import hull as _geo_hull

    projs = [_geo_hull([v[n:] for v in A.vertices], z) for A in A_list]
    proj_groups, _ = _group_bodies(projs)
    rhs = Fraction(volume(M)) * mixed_volume_grouped(proj_groups, z) / comb(big_n, n)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
