"""Mixed volumes, Minkowski polynomials and Steiner data.

For lambda > 0, sum_j lambda_j A_j keeps one face lattice, and the vertex
of each normal cone is the sum of one vertex of each body.  One pulling
triangulation of sum_j A_j therefore serves every lambda in the closed
orthant: each simplex's determinant is a constant times a product of facet
heights that are linear in lambda (`_PulledSum`).  A mixed volume
V(A_1[m_1], ...) is one coefficient of that polynomial, read off one hull.
Minkowski polynomials (volume or a polynomial density integrated over
`K + sum lambda_j A_j`) are recovered exactly by interpolation on integer
grids sized by per-body degree bounds.  A volume takes one hull per grid
point; an integral takes the one pulled hull of K + sum A_j, placed at each
grid point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul

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
from .intlinalg import scale_to_ints, simplex_det
from .polynomials import Polynomial, _fan_integral, integrate_points


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
    """V(body_1[m_1], ..., body_g[m_g]) with sum of multiplicities n.

    vol(sum_g lam_g body_g) = sum_m n!/prod_g m_g! V(body[m]) lam^m, and one
    pulled triangulation of sum_g body_g gives n! scale^n times that volume
    as sum_σ C_σ prod_k h_k(lam) on the whole closed orthant
    (`_PulledSum`).  The mixed volume is its coefficient at lam^m: one hull
    per call, and 0 when the sum is not full-dimensional.
    """
    total_mult = sum(m for _, m in groups)
    if total_mult != n:
        raise ValueError("multiplicities must sum to the dimension")
    for body, _ in groups:
        if body.dim != n:
            raise ValueError("mixed volume bodies must live in the ambient dimension")
    groups = [(body, m) for body, m in groups if m]
    pulled = _pulled_sum([body for body, _ in groups], n)
    if pulled is None:
        return Fraction(0)
    mults = tuple(m for _, m in groups)
    weight = prod(factorial(m) for m in mults)
    return pulled.coefficient(mults) * weight / (factorial(n) ** 2 * pulled.scale**n)


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
    times the mixed volume with the base repeated n-s times
    (`mixed_volume_grouped`).  With a nonconstant density the grouped
    Minkowski polynomial is interpolated and the mixed coefficient extracted
    with multiplicity factorials.
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
    """Exact polynomial s -> measure(base + sum s_g rep_g) by interpolation.

    The measure is taken on the grid prod_g {0..deg_g}.  Volumes come from
    one hull per grid point.  Integrals of a density come from one hull of
    base + sum rep_g, whose pulled triangulation is placed at every grid
    point (`_PulledSum`).
    """
    if not groups:
        return Polynomial.constant(0, _combo_measure([(base, Fraction(1))], n, density))
    d = density.degree() if density is not None else 0
    degs = [min(affine_dim(rep), n) + d for rep, _ in groups]
    grid = itertools.product(*(range(deg + 1) for deg in degs))
    if density is None:
        values = [
            _combo_measure([(base, Fraction(1))] + [(rep, Fraction(k)) for (rep, _), k in zip(groups, lams)], n, None)
            for lams in grid
        ]
    else:
        if density.num_vars != n:
            raise ValueError("density variable count must match the ambient dimension")
        pulled = _pulled_sum([base] + [rep for rep, _ in groups], n)
        if pulled is None:
            return Polynomial(len(groups))
        values = [pulled.integral(lams, density) for lams in grid]
    for deg in reversed(degs[1:]):
        values = [values[i : i + deg + 1] for i in range(0, len(values), deg + 1)]
    return tensor_interpolate(values, degs)


@dataclass(frozen=True)
class _PulledSum:
    """A pulled triangulation of sum_b lam_b body_b for every lam >= 0.

    For lam > 0 the sum has one normal fan, so one face lattice, and the
    vertex of each normal cone is the sum of one vertex of each body (its
    label).  A pulling triangulation depends on the lattice only, so one
    triangulation serves every lam.  Simplex i is pulled along a flag of
    faces F_0 ⊃ F_1 ⊃ ... ⊃ F_n: its vertex v_k is the vertex pulled in F_k,
    and a hull facet G_k cuts F_{k+1} out of F_k.  Within the direction
    space of F_k, which is fixed, the distance from v_k to F_{k+1} is a
    constant times the height h_k = c_G − ν_G·v_k, an integer linear form
    sum_b forms[k][b]·lam_b.  So |det| = C_σ · prod_k h_k(lam) with C_σ
    constant, as a polynomial on the closed orthant: simplices that flatten
    at a zero of lam get det 0.  `coefficient` reads this homogeneously;
    `place`, `dets` and `integral` fix lam_0 = 1 and take the other weights.

    `points[b]` are the integer vertices of body b over the common
    denominator `scale`, and `labels[v]` holds one vertex index per body.
    Simplex i has vertices `simplices[i]`, heights `forms[k]` for k in
    `heights[i]`, and |det| = num · prod h / den for (num, den) = `consts[i]`.
    """

    points: list[list[tuple[int, ...]]]
    scale: int
    labels: list[tuple[int, ...]]
    simplices: list[tuple[int, ...]]
    heights: list[tuple[int, ...]]
    consts: list[tuple[int, int]]
    forms: list[tuple[int, ...]]

    def place(self, lams) -> list[tuple[int, ...]]:
        """The vertices at lam, integers over `scale`."""
        weights = (1, *lams)
        return [
            tuple(sum(map(mul, weights, col)) for col in zip(*(pts[i] for pts, i in zip(self.points, label))))
            for label in self.labels
        ]

    def dets(self, lams) -> list[int]:
        """|det| of each simplex's edge vectors at lam, C_σ · prod_k h_k(lam)."""
        weights = (1, *lams)
        h = [sum(map(mul, form, weights)) for form in self.forms]
        out = []
        for ids, (num, den) in zip(self.heights, self.consts):
            for k in ids:
                num *= h[k]
            det, rem = divmod(num, den)
            if rem:
                raise ArithmeticError("flag heights do not give an integer determinant")
            out.append(det)
        return out

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        """Coefficient of lam^exps in sum_σ C_σ prod_k h_k(lam), one lam per body.

        Each product is expanded with exponents capped at exps, so only the
        monomials that can still reach lam^exps are kept.
        """
        support = [[(b, a) for b, a in enumerate(form) if a] for form in self.forms]
        by_den: dict[int, int] = {}
        for ids, (num, den) in zip(self.heights, self.consts):
            terms = {exps: num}  # exponents still to take -> coefficient so far
            for k in ids:
                grown: dict[tuple[int, ...], int] = {}
                for rest, c in terms.items():
                    for b, a in support[k]:
                        if rest[b]:
                            key = rest[:b] + (rest[b] - 1,) + rest[b + 1 :]
                            grown[key] = grown.get(key, 0) + c * a
                terms = grown
            if terms:
                # n factors take all n exponents: only lam^0 is left.
                by_den[den] = by_den.get(den, 0) + terms.popitem()[1]
        return sum((Fraction(c, den) for den, c in by_den.items()), Fraction(0))

    def integral(self, lams, f: Polynomial) -> Fraction:
        """Integral of f over body_0 + sum_g lam_g body_g."""
        dets = self.dets(lams)
        simplices = [simplex for simplex, det in zip(self.simplices, dets) if det]
        if not simplices:
            return Fraction(0)
        return _fan_integral(self.place(lams), self.scale, simplices, [det for det in dets if det], f)


def _pulled_sum(bodies: list[Polytope], n: int) -> _PulledSum | None:
    """Pull one hull of the sum of the bodies; None when it is not full-dimensional."""
    scaled = [scale_to_ints(body.vertices) for body in bodies]
    scale = lcm(*(den for _, den in scaled))
    points = [[tuple(x * (scale // den) for x in p) for p in pts] for pts, den in scaled]
    # Candidate point -> label.  A vertex of a sum is the sum of one vertex of
    # each body in one way only, and so are its partial sums, so keeping the
    # first label of each point keeps every vertex's label.
    cands = {p: (i,) for i, p in enumerate(points[0])}
    for pts in points[1:]:
        grown: dict[tuple[int, ...], tuple[int, ...]] = {}
        for p, label in cands.items():
            for i, q in enumerate(pts):
                grown.setdefault(tuple(map(add, p, q)), label + (i,))
        cands = grown
    data = hull_data_int(list(cands), n, scale)
    if data is None:
        return None
    facets = data.facets()
    vids = sorted(set().union(*(verts for _, _, verts in facets)))
    local = {v: k for k, v in enumerate(vids)}
    every = list(cands.values())
    labels = [every[v] for v in vids]
    masks = [sum(1 << local[v] for v in verts) for _, _, verts in facets]
    corners = [data.points[v] for v in vids]
    fan_total = sum(data.fan_dets())
    # The facet complex is the largest object here; free it before the pull.
    del data
    pulled: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    _pull((1 << len(vids)) - 1, (), (), masks, {}, pulled)
    forms: list[tuple[int, ...]] = []
    form_ids: dict[tuple[int, int], int] = {}
    simplices, heights, consts = [], [], []
    volume_dets = 0
    for verts, gs in pulled:
        ids = []
        for g, v in zip(gs, verts):
            k = form_ids.get((g, v))
            if k is None:
                # h = ν·(w − v) body by body, w any vertex of the facet.
                nu = facets[g][0]
                w = labels[(masks[g] & -masks[g]).bit_length() - 1]
                forms.append(
                    tuple(
                        sum(map(mul, nu, pts[a])) - sum(map(mul, nu, pts[b]))
                        for pts, a, b in zip(points, w, labels[v])
                    )
                )
                k = form_ids[g, v] = len(forms) - 1
            ids.append(k)
        num = abs(simplex_det(corners, verts))
        volume_dets += num
        den = 1
        for k in ids:
            den *= sum(forms[k])
        common = gcd(num, den)
        simplices.append(verts)
        heights.append(tuple(ids))
        consts.append((num // common, den // common))
    if volume_dets != fan_total:
        raise ArithmeticError("pulled simplices do not tile the hull's volume")
    return _PulledSum(points, scale, labels, simplices, heights, consts, forms)


def _pull(face: int, verts: tuple[int, ...], cuts: tuple[int, ...], facets: list[int], memo: dict, out: list):
    """Append the simplices of a pulling triangulation of a face to out.

    A face is the bit mask of its vertex ids and `facets` lists the hull's
    facets likewise.  The smallest vertex v of the face is coned over the
    pulled triangulations of the face's facets that miss v.  Each simplex is
    appended as (vertices, cuts) after the flag so far: vertices[k] was
    pulled in the k-th face of its flag, and hull facet cuts[k] cuts the next
    face out of it.  memo maps a face to its facets that miss v.
    """
    v = (face & -face).bit_length() - 1
    verts += (v,)
    if face == 1 << v:
        out.append((verts, cuts))
        return
    subs = memo.get(face)
    if subs is None:
        subs = memo[face] = _facets_of_face(face, v, facets)
    for sub, g in subs:
        _pull(sub, verts, cuts + (g,), facets, memo, out)


def _facets_of_face(face: int, v: int, facets: list[int]) -> list[tuple[int, int]]:
    """The facets of a face that miss vertex v, each with a hull facet cutting it out.

    The facets of a face F are the inclusion-maximal sets F ∩ G over hull
    facets G not holding F.
    """
    cuts: dict[int, int] = {}
    for g, verts in enumerate(facets):
        sub = face & verts
        if sub and sub != face:
            cuts.setdefault(sub, g)
    maximal: list[int] = []
    for sub in sorted(cuts, key=int.bit_count, reverse=True):
        if all(sub & other != sub for other in maximal):
            maximal.append(sub)
    return [(sub, cuts[sub]) for sub in maximal if not sub >> v & 1]


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
