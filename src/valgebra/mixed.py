"""Mixed volumes, Minkowski polynomials and Steiner data.

A mixed volume V(A_1[m_1], ..., A_k[m_k]) is read off one triangulation of
the Cayley polytope of the bodies, conv(∪_i A_i × {e_i}): its simplices
with m_i + 1 vertices in body i are the mixed cells of sum_i lam_i A_i
(`mixed_volume_grouped`).
Minkowski polynomials (volume or a polynomial density integrated over
`K + sum lambda_j A_j`) are recovered exactly by interpolation on integer
grids sized by per-body degree bounds.  A volume takes one hull per grid
point.  An integral takes one pulled hull of K + sum A_j: for lambda > 0 the
sum keeps one face lattice, so one pulling triangulation, whose simplex
determinants are products of lattice heights linear in lambda, is placed at
each grid point (`_PulledSum`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, or_

from .geometry import (
    Polytope,
    affine_dim,
    ball_approx,
    unit_segment_ball,
    volume,
)
from .hull import bit_indices, hull_data_int
from .intervals import Interval
from .interp import tensor_interpolate
from .intlinalg import scale_to_ints
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
    """V(body_1[m_1], ..., body_k[m_k]) with sum of multiplicities n.

    The Cayley trick (Sturmfels 1994; Huber, Rambau & Santos 2000): a
    triangulation of the Cayley polytope C = conv(∪_i body_i × {e_i}) in
    dimension n + k − 1, with e_1 = 0 and e_2, ..., e_k the unit vectors,
    induces a mixed subdivision of sum_i lam_i body_i for every lam > 0.  A
    simplex σ with a_i vertices in body i gives a cell of volume
    prod_i lam_i^(a_i − 1) |det σ| / prod_i (a_i − 1)!, so V is the sum of
    |det σ| / n! over the simplices with m_i + 1 vertices in body i.  One hull
    of C per call, whose fan triangulation is summed; 0 when the sum of the
    bodies is not full-dimensional, for then C is flat.
    """
    total_mult = sum(m for _, m in groups)
    if total_mult != n:
        raise ValueError("multiplicities must sum to the dimension")
    for body, _ in groups:
        if body.dim != n:
            raise ValueError("mixed volume bodies must live in the ambient dimension")
    groups = [(body, m) for body, m in groups if m]
    k = len(groups)
    scaled = [scale_to_ints(body.vertices) for body, _ in groups]
    scale = lcm(*(den for _, den in scaled))
    tails = [tuple(scale * (j == i - 1) for j in range(k - 1)) for i in range(k)]
    points = [tuple(x * (scale // den) for x in p) + tail for (pts, den), tail in zip(scaled, tails) for p in pts]
    data = hull_data_int(points, n + k - 1, scale)
    if data is None:
        return Fraction(0)
    # A simplex's vertex counts per body, as the digits of one number in base
    # n + k + 1 (no count exceeds the n + k vertices).  The hull drops
    # repeated points, so each point's body is read off its tail.
    body = {tail: i for i, tail in enumerate(tails)}
    weight = [(n + k + 1) ** body[p[n:]] for p in data.points]
    wanted = sum((m + 1) * (n + k + 1) ** i for i, (_, m) in enumerate(groups))
    total = sum(
        det
        for simplex, det in zip(data.fan_triangulation(), data.fan_dets())
        if sum(weight[v] for v in simplex) == wanted
    )
    return Fraction(total, factorial(n) * scale ** (n + k - 1))


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
    """A pulled triangulation of sum_b lam_b body_b for every lam >= 0, for
    the density route.

    For lam > 0 the sum has one normal fan, so one face lattice, and the
    vertex of each normal cone is the sum of one vertex of each body (its
    label).  A pulling triangulation depends on the lattice only, so one
    triangulation serves every lam.  It is held as a DAG over the faces that
    the pull reaches: face i pulls its smallest vertex `pulled[i]` and cones
    it over the faces of `edges[i]`, its facets that miss that vertex.

    Each edge (F, F') carries the lattice height φ of the pulled vertex v
    over F' in Λ_F, the integer points of the direction space of F.  The
    hull facet G that cuts F' out of F takes the values g·ℤ on Λ_F, so
    φ = (c_G − ν_G·v)/g, an integer linear form sum_b forms[k][b]·lam_b.  A
    simplex pulled along the flag F_0 ⊃ ... ⊃ F_n is a lattice pyramid over
    each step, so |det| = prod_k φ_k(lam) with no constant, as a polynomial
    on the closed orthant: simplices that flatten at a zero of lam get det 0.
    `place`, `dets` and `integral` fix lam_0 = 1, take the other weights and
    use the simplices expanded from the DAG; `flag_sum` walks the DAG once,
    memoised per face, and certifies that the simplices tile the hull.

    `points[b]` are the integer vertices of body b over the common
    denominator `scale`, and `labels[v]` holds one vertex index per body.
    `edges[i]` holds (face, form index) pairs; face 0 is the whole hull.
    """

    points: list[list[tuple[int, ...]]]
    scale: int
    labels: list[tuple[int, ...]]
    pulled: list[int]
    edges: list[tuple[tuple[int, int], ...]]
    forms: list[tuple[int, ...]]

    @cached_property
    def _flags(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Every simplex, with the form of each step of its flag."""
        simplices: list[tuple[int, ...]] = []
        heights: list[tuple[int, ...]] = []
        _expand_flags(0, (), (), self.pulled, self.edges, simplices, heights)
        return simplices, heights

    @property
    def simplices(self) -> list[tuple[int, ...]]:
        """The vertex ids of each simplex, in the order of its flag."""
        return self._flags[0]

    def place(self, lams) -> list[tuple[int, ...]]:
        """The vertices at lam, integers over `scale`."""
        weights = (1, *lams)
        return [
            tuple(sum(map(mul, weights, col)) for col in zip(*(pts[i] for pts, i in zip(self.points, label))))
            for label in self.labels
        ]

    def dets(self, lams) -> list[int]:
        """|det| of each simplex's edge vectors at lam, prod_k φ_k(lam)."""
        weights = (1, *lams)
        h = [sum(map(mul, form, weights)) for form in self.forms]
        return [prod(h[k] for k in ids) for ids in self._flags[1]]

    def flag_sum(self, weights) -> int:
        """sum_σ prod_k φ_k(weights), one weight per body: n! scale^n vol(sum_b w_b body_b)."""
        h = [sum(map(mul, form, weights)) for form in self.forms]
        return _flag_sum(0, h, self.edges, {})

    def integral(self, lams, f: Polynomial) -> Fraction:
        """Integral of f over body_0 + sum_g lam_g body_g."""
        dets = self.dets(lams)
        simplices = [simplex for simplex, det in zip(self.simplices, dets) if det]
        if not simplices:
            return Fraction(0)
        return _fan_integral(self.place(lams), self.scale, simplices, [det for det in dets if det], f)


def _flag_sum(face: int, h: list[int], edges, memo: dict[int, int]) -> int:
    """sum over the flags below a face of the product of their heights h."""
    if not edges[face]:
        return 1
    total = memo.get(face)
    if total is None:
        total = memo[face] = sum(h[k] * _flag_sum(sub, h, edges, memo) for sub, k in edges[face])
    return total


def _expand_flags(face: int, verts: tuple[int, ...], ids: tuple[int, ...], pulled, edges, simplices, heights):
    """Append each flag below a face: its vertices, and its forms to heights."""
    verts += (pulled[face],)
    if not edges[face]:
        simplices.append(verts)
        heights.append(ids)
        return
    for sub, k in edges[face]:
        _expand_flags(sub, verts, ids + (k,), pulled, edges, simplices, heights)


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
    fan_total = sum(data.fan_dets())
    # The facet complex is the largest object here; free it before the pull.
    del data
    vids = bit_indices(reduce(or_, (mask for _, _, mask in facets)))
    local = {v: k for k, v in enumerate(vids)}
    every = list(cands.values())
    labels = [every[v] for v in vids]
    normals = [nu for nu, _, _ in facets]
    masks = [sum(1 << local[v] for v in bit_indices(mask)) for _, _, mask in facets]
    pulled = _PulledSum(points, scale, labels, *_face_dag(normals, masks, points, labels))
    if pulled.flag_sum((1,) * len(bodies)) != fan_total:
        raise ArithmeticError("pulled simplices do not tile the hull's volume")
    return pulled


def _face_dag(normals, masks, points, labels):
    """The faces a pull of the hull reaches, as (pulled, edges, forms) of `_PulledSum`.

    Hull facet g has normal normals[g] and vertex bit mask masks[g].  A face
    is set up once, when it is first reached, with its facets, each cut out
    by a hull facet, and a basis of Λ_F: the whole hull has the hull facets
    and the unit vectors, and a facet of a face F gets both from F
    (`_facets_of_facet`, `_lattice_step`).
    """
    n = len(normals[0])
    root = (1 << len(labels)) - 1
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    faces: list = [(root, list(zip(masks, range(len(masks)))), unit)]
    index = {root: 0}
    pulled: list[int] = []
    edges: list[tuple[tuple[int, int], ...]] = []
    forms: dict[tuple[int, ...], int] = {}  # few distinct forms recur on many edges
    for i, (face, subs, basis) in enumerate(faces):
        faces[i] = None  # done with its facets and basis
        v = (face & -face).bit_length() - 1
        out = []
        for sub, g in subs:
            if sub >> v & 1:
                continue
            nu = normals[g]
            values = [sum(map(mul, nu, b)) for b in basis]
            j = index.get(sub)
            if j is None:
                j = index[sub] = len(faces)
                step, kernel = _lattice_step(values, basis)
                faces.append((sub, _facets_of_facet(sub, subs), kernel))
            else:
                step = gcd(*values)
            # The height ν·(w − v) body by body, w any vertex of sub.
            w = labels[(sub & -sub).bit_length() - 1]
            form = tuple(
                (sum(map(mul, nu, pts[a])) - sum(map(mul, nu, pts[b]))) // step
                for pts, a, b in zip(points, w, labels[v])
            )
            out.append((j, forms.setdefault(form, len(forms))))
        pulled.append(v)
        edges.append(tuple(out))
    return pulled, edges, list(forms)


def _facets_of_facet(sub: int, facets: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The facets of sub, a facet of a face F, from the facets of F.

    Every face of F two dimensions down lies in exactly two facets of F (the
    diamond property), so the facets of sub are the inclusion-maximal
    nonempty sub ∩ F'' over the other facets F'' of F, and the hull facet
    that cuts F'' out of F cuts sub ∩ F'' out of sub.
    """
    cuts: dict[int, int] = {}
    for other, g in facets:
        meet = sub & other
        if meet and meet != sub:
            cuts.setdefault(meet, g)
    maximal: list[int] = []
    for meet in sorted(cuts, key=int.bit_count, reverse=True):
        for m in maximal:
            if meet & m == meet:
                break
        else:
            maximal.append(meet)
    return [(meet, cuts[meet]) for meet in maximal]


def _lattice_step(values: list[int], basis: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """The gcd g of a linear map's values on a lattice basis, and a basis of its kernel.

    Euclid's algorithm runs on the values and applies each step to the basis
    vectors, so they stay a basis of the lattice; it ends with one vector of
    value ±g and the others of value 0.
    """
    kernel = [b for a, b in zip(values, basis) if not a]
    live = [(a, b) for a, b in zip(values, basis) if a]
    while len(live) > 1:
        live.sort(key=lambda pair: abs(pair[0]))
        a0, b0 = live[0]
        rest = [live[0]]
        for a, b in live[1:]:
            q, r = divmod(a, a0)
            b = tuple(x - q * y for x, y in zip(b, b0))
            if r:
                rest.append((r, b))
            else:
                kernel.append(b)
        live = rest
    return abs(live[0][0]), kernel


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
