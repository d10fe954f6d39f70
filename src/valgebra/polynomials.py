"""Sparse multivariate polynomials over Fractions and exact integration.

A polynomial is integrated over a simplex by the Grundmann-Moeller cubature,
whose rational nodes and rational weights make it exact for every degree it
is built for, so every polytope integral in the package is an exact rational
number.  A polytope is integrated over the fan triangulation of its hull as
one integer sum per cubature level, taken over the hull's integer points;
each level becomes one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, lcm

from .geometry import Polytope, as_scalar
from .hull import hull_data_int
from .intlinalg import scale_to_ints, simplex_det


class Polynomial:
    """Polynomial with Fraction coefficients, stored sparsely by exponent."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.num_vars = num_vars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in (terms or {}).items():
            coef = as_scalar(coef)
            if coef == 0:
                continue
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {num_vars} variables")
            clean[tuple(exp)] = coef
        self.terms = clean

    @staticmethod
    def constant(num_vars: int, c) -> "Polynomial":
        c = as_scalar(c)
        if c == 0:
            return Polynomial(num_vars)
        return Polynomial(num_vars, {tuple(0 for _ in range(num_vars)): c})

    @staticmethod
    def variable(num_vars: int, i: int) -> "Polynomial":
        exp = tuple(1 if j == i else 0 for j in range(num_vars))
        return Polynomial(num_vars, {exp: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return Polynomial(self.num_vars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = as_scalar(c)
        return Polynomial(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.num_vars, out)

    def power(self, k: int) -> "Polynomial":
        out = Polynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, x) -> Fraction:
        x = [as_scalar(c) for c in x]
        if len(x) != self.num_vars:
            raise ValueError("evaluation point dimension mismatch")
        total = Fraction(0)
        for exp, coef in self.terms.items():
            v = coef
            for xi, e in zip(x, exp):
                if e:
                    v *= xi ** e
            total += v
        return total

    def substitute(self, replacements: list["Polynomial"]) -> "Polynomial":
        """Substitute variable i by replacements[i] (all over the same vars)."""
        if len(replacements) != self.num_vars:
            raise ValueError("needs one replacement per variable")
        m = replacements[0].num_vars if replacements else 0
        out = Polynomial(m)
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        for exp, coef in self.terms.items():
            term = Polynomial.constant(m, coef)
            for i, e in enumerate(exp):
                if e:
                    key = (i, e)
                    p = pow_cache.get(key)
                    if p is None:
                        p = replacements[i].power(e)
                        pow_cache[key] = p
                    term = term * p
            out = out + term
        return out

    def external_product(self, other: "Polynomial") -> "Polynomial":
        """f(x) g(y) over the concatenated variable blocks."""
        m, n = self.num_vars, other.num_vars
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = c1 * c2
        return Polynomial(m + n, out)

    def reflect_variables(self) -> "Polynomial":
        """The polynomial x -> f(-x)."""
        return Polynomial(
            self.num_vars,
            {e: (c if sum(e) % 2 == 0 else -c) for e, c in self.terms.items()},
        )

    def shift(self, x) -> "Polynomial":
        """The polynomial y -> f(y + x)."""
        x = [as_scalar(c) for c in x]
        reps = [Polynomial.variable(self.num_vars, i) + Polynomial.constant(self.num_vars, x[i]) for i in range(self.num_vars)]
        return self.substitute(reps)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exp, coef in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e) or "1"
            bits.append(f"{coef}*{mono}")
        return "Polynomial(" + " + ".join(bits) + ")"


def _gm_levels(n: int, deg: int) -> tuple[tuple[int, Fraction, tuple[tuple[int, ...], ...]], ...]:
    """Grundmann-Moeller levels exact for degree deg over an n-simplex.

    The index s = deg // 2 makes the rule exact up to degree 2s + 1.  Level
    i = 0..s weighs (-1)^i m^(2s+1) / (4^s i! (2s+1+n-i)!) on the nodes
    sum_j (2 b_j + 1) p_j / m, m = 2s+1+n-2i, for every b in N^(n+1) with
    |b| = s - i; the weights sum the integral over the standard simplex.  A
    level is (m, weight, multisets), where a multiset lists vertex j b_j times.
    """
    s = deg // 2
    levels = []
    for i in range(s + 1):
        m = 2 * s + 1 + n - 2 * i
        weight = Fraction((-1) ** i * m ** (2 * s + 1), 4**s * factorial(i) * factorial(2 * s + 1 + n - i))
        levels.append((m, weight, tuple(combinations_with_replacement(range(n + 1), s - i))))
    return tuple(levels)


def _fan_integral(points, scale: int, simplices, dets, f: Polynomial) -> Fraction:
    """Integral of f over simplices on integer points divided by scale.

    Each simplex is weighed by its entry of dets, |det| of its edge vectors
    in the integer coordinates.  Node numerators are integers over the
    level's denominator m * scale and f's coefficients share one
    denominator, so every level is one Python int summed over all simplices,
    and one Fraction per level ends the sum.
    """
    n = f.num_vars
    deg = f.degree()
    levels = _gm_levels(n, deg)
    cden = lcm(*(c.denominator for c in f.terms.values()))
    # Per level, each term's integer coefficient is padded to degree deg so
    # that every term shares the denominator (m * scale)^deg.
    level_terms = [
        [
            (int(c * cden) * (m * scale) ** (deg - sum(exp)), [(k, e) for k, e in enumerate(exp) if e])
            for exp, c in f.terms.items()
        ]
        for m, _, _ in levels
    ]
    accs = [0] * len(levels)
    for simplex, det in zip(simplices, dets):
        corners = [points[j] for j in simplex]
        # sum_j (2 b_j + 1) p_j is the corner sum plus twice the multiset sum.
        corner_sum = [sum(col) for col in zip(*corners)]
        twice = [[2 * x for x in p] for p in corners]
        for li, (_, _, multisets) in enumerate(levels):
            terms = level_terms[li]
            acc = 0
            for multiset in multisets:
                node = corner_sum
                for j in multiset:
                    node = [a + b for a, b in zip(node, twice[j])]
                for v, factors in terms:
                    for k, e in factors:
                        v *= node[k] ** e
                    acc += v
            accs[li] += det * acc
    total = sum(weight * Fraction(acc, (m * scale) ** deg) for (m, weight, _), acc in zip(levels, accs))
    return total / (cden * scale**n)


def integrate_simplex(vertices, f: Polynomial) -> Fraction:
    """Exact integral of f over the simplex with the given n+1 vertices.

    The vertices are cleared to integers once and the simplex goes through
    the same Grundmann-Moeller sum as a whole fan (`_fan_integral`).
    """
    verts = [tuple(as_scalar(c) for c in v) for v in vertices]
    n = len(verts[0]) if verts else 0
    if len(verts) != n + 1:
        raise ValueError("a simplex in dimension n needs exactly n+1 vertices")
    if f.num_vars != n:
        raise ValueError("density variable count must match the dimension")
    pts, den = scale_to_ints(verts)
    simplex = tuple(range(n + 1))
    return _fan_integral(pts, den, [simplex], [abs(simplex_det(pts, simplex))], f)


def integrate(P: Polytope, f: Polynomial) -> Fraction:
    """Exact integral of the polynomial density f over the polytope."""
    return integrate_points(P.vertices, P.dim, f)


def integrate_points(points, n: int, f: Polynomial, scale: int = 1) -> Fraction:
    """Integral of f over the hull of raw candidate points divided by scale.

    Coordinates are ints or Fractions.  One Grundmann-Moeller sum runs over
    the fan triangulation of the hull, on the hull's integer points, with the
    fan determinants the hull keeps.
    """
    if f.num_vars != n:
        raise ValueError("density variable count must match the ambient dimension")
    pts, den = scale_to_ints(points)
    data = hull_data_int(pts, n, den * scale)
    if data is None:
        return Fraction(0)
    return _fan_integral(data.points, data.scale, data.fan_triangulation(), data.fan_dets(), f)
