"""The algebra of polytope valuations.

Generators come in four kinds: mixed-volume generators, polynomial-density
generators, the Euler generator (the unit) and lazy products.  Every non-unit
generator normalizes to "prefactor times a derivative-extracted integral over
Minkowski sums", which is what makes exterior and diagonal products of any
two generators computable by the same machinery: embed the slack bodies in
coordinate blocks, take the external product of the densities, evaluate on
the diagonally embedded body and extract the mixed derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .geometry import (
    Polytope,
    as_point,
    as_scalar,
    cartesian_product,
    hull,
    point_scale,
    reflect,
    scale as scale_body,
    translate,
)
from .interp import univariate_coeffs
from .mixed import (
    mixed_derivative_coefficient,
    mixed_volume_grouped,
    _group_bodies,
)
from .polynomials import Polynomial
from .samples import box

DEFAULT_MAX_INTERNAL_DIM = 6


class CostGuardError(ValueError):
    """Raised when a diagonal evaluation would exceed the dimension guard."""


# ---------------------------------------------------------------------------
# Generators.


@dataclass(frozen=True)
class MVGenerator:
    """K -> coeff * V(K[degree], bodies...); translation invariant."""

    dim: int
    degree: int
    bodies: tuple[Polytope, ...]
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if not (0 <= self.degree <= self.dim):
            raise ValueError("degree must lie between 0 and the dimension")
        if len(self.bodies) != self.dim - self.degree:
            raise ValueError("a degree-i generator needs n-i fixed bodies")
        for b in self.bodies:
            if b.dim != self.dim:
                raise ValueError("fixed bodies must share the ambient dimension")

    def evaluate(self, K: Polytope) -> Fraction:
        if self.coeff == 0:
            return Fraction(0)
        return self.coeff * _cached_mv_value(self.dim, self.degree, self.bodies, K)

    def scaled(self, c) -> "MVGenerator":
        return MVGenerator(self.dim, self.degree, self.bodies, self.coeff * as_scalar(c))

    def reflected(self) -> "MVGenerator":
        return MVGenerator(self.dim, self.degree, tuple(reflect(b) for b in self.bodies), self.coeff)

    def homogeneity(self) -> int:
        return self.degree

    def density_degree(self) -> int:
        return 0


@dataclass(frozen=True)
class PDGenerator:
    """K -> coeff * mixed derivative at 0 of integral of density over K + sum lam_j A_j."""

    dim: int
    density: Polynomial
    slack: tuple[Polytope, ...]
    coeff: Fraction = Fraction(1)

    def __post_init__(self):
        if self.density.num_vars != self.dim:
            raise ValueError("density variable count must equal the dimension")
        if len(self.slack) > self.dim + self.density.degree():
            # Beyond n + deg f the extracted coefficient is identically zero.
            raise ValueError("more slack bodies than the polynomial degree allows")
        for b in self.slack:
            if b.dim != self.dim:
                raise ValueError("slack bodies must share the ambient dimension")

    def evaluate(self, K: Polytope) -> Fraction:
        if self.coeff == 0:
            return Fraction(0)
        return self.coeff * _cached_pd_value(self.dim, self.density, self.slack, K)

    def scaled(self, c) -> "PDGenerator":
        return PDGenerator(self.dim, self.density, self.slack, self.coeff * as_scalar(c))

    def reflected(self) -> "PDGenerator":
        return PDGenerator(
            self.dim,
            self.density.reflect_variables(),
            tuple(reflect(b) for b in self.slack),
            self.coeff,
        )

    def homogeneity(self) -> int | None:
        if self.density.degree() > 0:
            return None
        return self.dim - len(self.slack)

    def density_degree(self) -> int:
        return self.density.degree()


@dataclass(frozen=True)
class EulerGenerator:
    """The unit: K -> coeff on every nonempty body."""

    dim: int
    coeff: Fraction = Fraction(1)

    def evaluate(self, K: Polytope) -> Fraction:
        return self.coeff

    def scaled(self, c) -> "EulerGenerator":
        return EulerGenerator(self.dim, self.coeff * as_scalar(c))

    def reflected(self) -> "EulerGenerator":
        return self

    def homogeneity(self) -> int:
        return 0

    def density_degree(self) -> int:
        return 0


@dataclass(frozen=True)
class ProductGenerator:
    """Lazy product of two generators, evaluated through the diagonal."""

    dim: int
    left: object
    right: object
    coeff: Fraction = Fraction(1)
    max_internal_dim: int = DEFAULT_MAX_INTERNAL_DIM

    def evaluate(self, K: Polytope) -> Fraction:
        return self.coeff * diagonal_product_evaluate(
            self.left, self.right, K, max_internal_dim=self.max_internal_dim
        )

    def scaled(self, c) -> "ProductGenerator":
        return ProductGenerator(self.dim, self.left, self.right, self.coeff * as_scalar(c), self.max_internal_dim)

    def reflected(self) -> "ProductGenerator":
        return ProductGenerator(
            self.dim, self.left.reflected(), self.right.reflected(), self.coeff, self.max_internal_dim
        )

    def homogeneity(self) -> int | None:
        a = self.left.homogeneity()
        b = self.right.homogeneity()
        if a is None or b is None:
            return None
        return a + b

    def density_degree(self) -> int:
        return self.left.density_degree() + self.right.density_degree()


@dataclass(frozen=True)
class ExteriorEulerGenerator:
    """Euler factor boxed with another valuation; lives on a product space.

    Evaluation is only defined on bodies that are products of their two
    coordinate projections (the slices are then constant), which covers the
    box instances the Fubini identity is checked on.
    """

    dim: int
    left_dim: int
    inner: object  # generator on the right block
    euler_side: str  # "left" or "right"
    coeff: Fraction = Fraction(1)

    def evaluate(self, K: Polytope) -> Fraction:
        nl = self.left_dim
        p_left = hull([v[:nl] for v in K.vertices], nl)
        p_right = hull([v[nl:] for v in K.vertices], self.dim - nl)
        if cartesian_product(p_left, p_right) != K:
            raise ValueError("Euler exterior factors evaluate on product bodies only")
        inner_body = p_right if self.euler_side == "left" else p_left
        return self.coeff * self.inner.evaluate(inner_body)

    def scaled(self, c) -> "ExteriorEulerGenerator":
        return ExteriorEulerGenerator(self.dim, self.left_dim, self.inner, self.euler_side, self.coeff * as_scalar(c))

    def reflected(self) -> "ExteriorEulerGenerator":
        return ExteriorEulerGenerator(self.dim, self.left_dim, self.inner.reflected(), self.euler_side, self.coeff)

    def homogeneity(self) -> int | None:
        return self.inner.homogeneity()

    def density_degree(self) -> int:
        return self.inner.density_degree()


Generator = MVGenerator | PDGenerator | EulerGenerator | ProductGenerator | ExteriorEulerGenerator


@dataclass(frozen=True)
class Valuation:
    """Finite rational combination of generators on a fixed ambient space."""

    dim: int
    terms: tuple[Generator, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.dim != self.dim:
                raise ValueError("all terms must share the ambient dimension")

    @staticmethod
    def of(*gens) -> "Valuation":
        if not gens:
            raise ValueError("a valuation needs an ambient dimension; use Valuation(dim, ())")
        return Valuation(gens[0].dim, tuple(gens))

    def evaluate(self, K: Polytope) -> Fraction:
        return sum((t.evaluate(K) for t in self.terms), Fraction(0))

    def scaled(self, c) -> "Valuation":
        return Valuation(self.dim, tuple(t.scaled(c) for t in self.terms))

    def __add__(self, other: "Valuation") -> "Valuation":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Valuation(self.dim, self.terms + other.terms)

    def __sub__(self, other: "Valuation") -> "Valuation":
        return self + other.scaled(-1)

    def reflected(self) -> "Valuation":
        return Valuation(self.dim, tuple(t.reflected() for t in self.terms))


def as_valuation(v) -> Valuation:
    if isinstance(v, Valuation):
        return v
    return Valuation(v.dim, (v,))


def vol_valuation(n: int) -> MVGenerator:
    return MVGenerator(n, n, ())


def euler(n: int) -> EulerGenerator:
    return EulerGenerator(n)


def evaluate(v, K: Polytope) -> Fraction:
    """Evaluate a Valuation or a bare generator on a body, exactly."""
    v = as_valuation(v)
    if v.dim != K.dim:
        raise ValueError("valuation and body dimensions differ")
    return v.evaluate(K)


# Each entry pins its bodies, so the bound caps the memory of a stream of
# fresh requests; the acceptance suite fills about 300 mv and 70 pd entries.
@lru_cache(maxsize=1024)
def _cached_mv_value(dim: int, degree: int, bodies: tuple, K: Polytope) -> Fraction:
    groups, _ = _group_bodies(list(bodies))
    if degree > 0:
        groups = [(K, degree)] + groups
    return mixed_volume_grouped(groups, dim)


@lru_cache(maxsize=1024)
def _cached_pd_value(dim: int, density: Polynomial, slack: tuple, K: Polytope) -> Fraction:
    return mixed_derivative_coefficient(K, list(slack), dim, density)


# Each entry pins its generators and body, so the bound caps the memory of a
# stream of fresh products; the acceptance suite fills fewer than 256.
@lru_cache(maxsize=512)
def _cached_diagonal_value(g, h, K: Polytope, max_internal_dim: int) -> Fraction:
    c1, f1 = _theta_factors(g)
    c2, f2 = _theta_factors(h)
    scalar = c1 * c2
    if not f1 and not f2:
        return scalar
    return scalar * _evaluate_factors_on_diagonal(f1 + f2, K, max_internal_dim)


# ---------------------------------------------------------------------------
# Normal form: prefactor * derivative-extracted density integral.


@dataclass(frozen=True)
class _Factor:
    dim: int
    prefactor: Fraction
    density: Polynomial
    slack: tuple[Polytope, ...]


def _theta_factors(g) -> tuple[Fraction, list[_Factor]]:
    """Flatten a generator to (scalar, integral-form factors).

    Unit factors contribute only to the scalar.  Products flatten because
    restriction along a diagonal composes with block-wise embeddings of the
    slack bodies.
    """
    if isinstance(g, EulerGenerator):
        return g.coeff, []
    if isinstance(g, MVGenerator):
        n = g.dim
        pre = g.coeff * Fraction(factorial(g.degree), factorial(n))
        return Fraction(1), [_Factor(n, pre, Polynomial.constant(n, 1), g.bodies)]
    if isinstance(g, PDGenerator):
        return Fraction(1), [_Factor(g.dim, g.coeff, g.density, g.slack)]
    if isinstance(g, ProductGenerator):
        c1, f1 = _theta_factors(g.left)
        c2, f2 = _theta_factors(g.right)
        return g.coeff * c1 * c2, f1 + f2
    raise ValueError(f"generator kind {type(g).__name__} has no integral form")


def _embed_body(body: Polytope, total: int, offset: int) -> Polytope:
    zero_pre = tuple(Fraction(0) for _ in range(offset))
    zero_post = tuple(Fraction(0) for _ in range(total - offset - body.dim))
    return Polytope._trusted(total, [zero_pre + v + zero_post for v in body.vertices])


def _multi_diagonal(K: Polytope, copies: int) -> Polytope:
    return Polytope._trusted(K.dim * copies, [v * copies for v in K.vertices])


def _evaluate_factors_on_diagonal(factors: list[_Factor], K: Polytope, max_internal_dim: int) -> Fraction:
    """Evaluate the product of integral-form factors at the diagonal of K.

    Every factor occupies one coordinate block of the internal space.
    """
    n = K.dim
    blocks = list(factors)
    m = len(blocks)
    total = n * m
    if m > 1 and total > max_internal_dim:
        raise CostGuardError(
            f"diagonal evaluation needs internal dimension {total} > guard {max_internal_dim}"
        )
    base = _multi_diagonal(K, m)
    slack: list[Polytope] = []
    const = Fraction(1)
    dens_parts: list[Polynomial] = []
    for bi, f in enumerate(blocks):
        for b in f.slack:
            slack.append(_embed_body(b, total, bi * n))
        dens_parts.append(f.density)
        const *= f.prefactor
    ext = dens_parts[0]
    for p in dens_parts[1:]:
        ext = ext.external_product(p)
    return const * mixed_derivative_coefficient(base, slack, total, ext)


def diagonal_product_evaluate(g, h, K: Polytope, max_internal_dim: int = DEFAULT_MAX_INTERNAL_DIM) -> Fraction:
    """(g . h)(K) through the diagonal embedding; exact.

    Unit factors use the unit law directly (their Fubini slice identity is
    exercised separately on boxes, where slices are computable).
    """
    if g.dim != h.dim or g.dim != K.dim:
        raise ValueError("dimension mismatch")
    if isinstance(g, EulerGenerator):
        return g.coeff * h.evaluate(K)
    if isinstance(h, EulerGenerator):
        return h.coeff * g.evaluate(K)
    return _cached_diagonal_value(g, h, K, max_internal_dim)


def closed_form_product(g: MVGenerator, h: MVGenerator) -> MVGenerator:
    """Product of complementary-degree mixed-volume generators, in closed form.

    For degrees i and n-i the product is a multiple of the volume: the
    coefficient is V(A_1, ..., A_{n-i}, -B_1, ..., -B_i) / C(n, i).
    """
    if not isinstance(g, MVGenerator) or not isinstance(h, MVGenerator):
        raise ValueError("closed form applies to mixed-volume generators")
    n = g.dim
    if h.dim != n:
        raise ValueError("dimension mismatch")
    if g.degree + h.degree != n:
        raise ValueError("closed form needs complementary degrees")
    bodies = list(g.bodies) + [reflect(b) for b in h.bodies]
    groups, _ = _group_bodies(bodies)
    c = mixed_volume_grouped(groups, n) if bodies else Fraction(1)
    coeff = g.coeff * h.coeff * c / comb(n, g.degree)
    return MVGenerator(n, n, (), coeff)


def product(phi, psi, max_internal_dim: int = DEFAULT_MAX_INTERNAL_DIM) -> Valuation:
    """Bilinear product of valuations.

    Unit factors apply the unit law; complementary-degree mixed-volume pairs
    take the closed form; everything else stays a lazy product generator.
    """
    phi, psi = as_valuation(phi), as_valuation(psi)
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    out: list[Generator] = []
    for g in phi.terms:
        for h in psi.terms:
            if isinstance(g, EulerGenerator):
                out.append(h.scaled(g.coeff))
            elif isinstance(h, EulerGenerator):
                out.append(g.scaled(h.coeff))
            elif isinstance(g, MVGenerator) and isinstance(h, MVGenerator) and g.degree + h.degree == g.dim:
                out.append(closed_form_product(g, h))
            else:
                out.append(ProductGenerator(g.dim, g, h, Fraction(1), max_internal_dim))
    return Valuation(phi.dim, tuple(out))


def exterior_product(phi, psi) -> Valuation:
    """Box product: a valuation on the orthogonal sum of the two spaces."""
    phi, psi = as_valuation(phi), as_valuation(psi)
    m, w = phi.dim, psi.dim
    total = m + w
    out: list[Generator] = []
    for g in phi.terms:
        for h in psi.terms:
            ge = isinstance(g, EulerGenerator)
            he = isinstance(h, EulerGenerator)
            if ge and he:
                out.append(EulerGenerator(total, g.coeff * h.coeff))
            elif ge:
                out.append(ExteriorEulerGenerator(total, m, h, "left", g.coeff))
            elif he:
                out.append(ExteriorEulerGenerator(total, m, g, "right", h.coeff))
            else:
                c1, gf = _theta_factors(g)
                c2, hf = _theta_factors(h)
                if len(gf) != 1 or len(hf) != 1:
                    raise ValueError("exterior products of lazy products are not supported")
                f1, f2 = gf[0], hf[0]
                slack = tuple(_embed_body(b, total, 0) for b in f1.slack) + tuple(
                    _embed_body(b, total, m) for b in f2.slack
                )
                dens = f1.density.external_product(f2.density)
                out.append(PDGenerator(total, dens, slack, c1 * c2 * f1.prefactor * f2.prefactor))
    return Valuation(total, tuple(out))


def odd_product_witness(A: Polytope, B: Polytope) -> Fraction:
    """Coefficient c with (V(.,A)-V(.,-A)) . (V(.,B)-V(.,-B)) = c * vol, n=2.

    Zero when either body is centrally symmetric; nonzero witnesses show the
    odd degree-1 part pairs nontrivially with itself.
    """
    if A.dim != 2 or B.dim != 2:
        raise ValueError("the odd witness is a planar construction")
    phi = Valuation(2, (MVGenerator(2, 1, (A,)), MVGenerator(2, 1, (reflect(A),), Fraction(-1))))
    psi = Valuation(2, (MVGenerator(2, 1, (B,)), MVGenerator(2, 1, (reflect(B),), Fraction(-1))))
    prod = product(phi, psi)
    c = Fraction(0)
    for t in prod.terms:
        if not (isinstance(t, MVGenerator) and t.degree == 2 and not t.bodies):
            raise ArithmeticError("closed form should have produced volume multiples")
        c += t.coeff
    return c


# ---------------------------------------------------------------------------
# Decompositions.


@dataclass(frozen=True)
class GradedDecomposition:
    dim: int
    components: tuple[Valuation, ...]  # index = homogeneity degree 0..n
    parity: tuple[tuple[Valuation, Valuation], ...]  # (even, odd) per component

    def component(self, i: int) -> Valuation:
        return self.components[i]


def _term_degree(g, probe: Polytope | None = None) -> int:
    d = g.homogeneity()
    if d is None:
        raise ValueError("term has no homogeneity degree (density is not constant)")
    if isinstance(g, ProductGenerator) and probe is not None:
        # Degree bookkeeping of lazy products is confirmed by a scale probe.
        v1 = g.evaluate(probe)
        v2 = g.evaluate(scale_body(probe, 2))
        if v2 != 2 ** d * v1:
            raise ArithmeticError("scale probe contradicts the bookkept degree")
    return d


def homogeneous_decomposition(v, test_bodies) -> GradedDecomposition:
    """Split a translation-invariant valuation into homogeneous components.

    Components are verified against exact interpolation of lambda -> v(lambda K)
    on every test body, and each must be degree-pure under scale probes.
    """
    v = as_valuation(v)
    n = v.dim
    test_bodies = list(test_bodies)
    if not test_bodies:
        raise ValueError("need at least one test body")
    # Translation probe.
    probe_body = test_bodies[0]
    shift = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    if v.evaluate(translate(probe_body, shift)) != v.evaluate(probe_body):
        raise ValueError("valuation is not translation invariant")
    buckets: dict[int, list[Generator]] = {}
    for t in v.terms:
        d = _term_degree(t, probe_body)
        buckets.setdefault(d, []).append(t)
    components = tuple(Valuation(n, tuple(buckets.get(i, ()))) for i in range(n + 1))
    # Verification: interpolation of v(lambda K) recovers the components.
    for K in test_bodies:
        vals = [v.evaluate(scale_body(K, lam)) for lam in range(n + 1)]
        coeffs = univariate_coeffs(vals)
        coeffs += [Fraction(0)] * (n + 1 - len(coeffs))
        for i in range(n + 1):
            if components[i].evaluate(K) != coeffs[i]:
                raise ArithmeticError("decomposition mismatch against interpolation")
        for lam in (1, 2, 3):
            for i in range(n + 1):
                if components[i].evaluate(scale_body(K, lam)) != Fraction(lam) ** i * components[i].evaluate(K):
                    raise ArithmeticError("component is not degree-pure")
    parity = tuple(parity_decomposition(c) for c in components)
    return GradedDecomposition(n, components, parity)


def parity_decomposition(v) -> tuple[Valuation, Valuation]:
    """Formal even/odd split: bodies (and densities) reflected, halved."""
    v = as_valuation(v)
    half = v.scaled(Fraction(1, 2))
    half_ref = v.reflected().scaled(Fraction(1, 2))
    even = half + half_ref
    odd = half + half_ref.scaled(-1)
    return even, odd


# ---------------------------------------------------------------------------
# Pairings.


@dataclass(frozen=True)
class PairingMatrix:
    dim: int
    degree: int
    entries: tuple[tuple[Fraction, ...], ...]  # c[p][q] with phi_p psi_q = c vol

    def rank(self) -> int:
        from .intlinalg import independent_rows

        return len(independent_rows(self.entries)[0])


def pairing_matrix(left, right) -> PairingMatrix:
    """Closed-form pairing of complementary-degree mixed-volume generators."""
    left, right = list(left), list(right)
    if not left or not right:
        raise ValueError("pairing needs nonempty generator lists")
    n = left[0].dim
    i = left[0].degree
    for g in left:
        if g.degree != i or g.dim != n:
            raise ValueError("left generators must share dimension and degree")
    for h in right:
        if h.dim != n or h.degree != n - i:
            raise ValueError("right generators must have the complementary degree")
    entries = tuple(tuple(closed_form_product(g, h).coeff for h in right) for g in left)
    return PairingMatrix(n, i, entries)


# ---------------------------------------------------------------------------
# Translation behaviour and the valuation axiom.


def translation_profile(v, K: Polytope, direction) -> Polynomial:
    """Exact polynomial t -> v(K + t * direction)."""
    v = as_valuation(v)
    direction = as_point(direction)
    d = sum(t.density_degree() for t in v.terms)
    nodes = v.dim + d + 1
    vals = []
    for t in range(nodes):
        vals.append(v.evaluate(translate(K, point_scale(direction, Fraction(t)))))
    coeffs = univariate_coeffs(vals)
    return Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})


def valuation_axiom_check(v, bounds, axis: int, cut) -> dict:
    """Inclusion-exclusion check on an axis-aligned box split.

    The box given by `bounds` is split at coordinate `cut` along `axis`; the
    two closed half-boxes have convex union and a facet slab intersection.
    """
    v = as_valuation(v)
    bounds = [(as_scalar(a), as_scalar(b)) for a, b in bounds]
    cut = as_scalar(cut)
    if len(bounds) != v.dim:
        raise ValueError("box dimension mismatch")
    lo, hi = bounds[axis]
    if not (lo < cut < hi):
        raise ValueError("cut must be strictly inside the box")
    b_all = box(bounds)
    b1 = box(bounds[:axis] + [(lo, cut)] + bounds[axis + 1 :])
    b2 = box(bounds[:axis] + [(cut, hi)] + bounds[axis + 1 :])
    b12 = box(bounds[:axis] + [(cut, cut)] + bounds[axis + 1 :])
    whole = v.evaluate(b_all)
    parts = v.evaluate(b1) + v.evaluate(b2) - v.evaluate(b12)
    return {
        "whole": whole,
        "split_sum": parts,
        "equal": whole == parts,
        "pieces": {"first": v.evaluate(b1), "second": v.evaluate(b2), "overlap": v.evaluate(b12)},
    }
