"""The isometry-invariant subalgebra: intrinsic volumes and their products.

Every ball-dependent number is a two-sided bracket built from inscribed and
circumscribed rational ball approximations; mixed-volume monotonicity makes
the brackets valid, and exact interval arithmetic keeps them honest.  The
dimension utilities at the end are pure integer formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .geometry import Polytope
from .intervals import Interval
from .mixed import _ball_pair, unit_ball_volume
from .samples import random_polytope, standard_simplex, unit_cube
from .valuations import (
    EulerGenerator,
    MVGenerator,
    Valuation,
    as_valuation,
    evaluate,
    product,
)


@dataclass(frozen=True)
class IntrinsicBasis:
    """Bracketed intrinsic-volume basis V_0 .. V_n.

    Entry i holds the inscribed and circumscribed mixed-volume valuations
    C(n,i) V(.[i], B[n-i]) and the normalizing unit-ball volume bracket.
    """

    dim: int
    level: int
    entries: tuple[tuple[Valuation, Valuation], ...]
    kappas: tuple[Interval, ...]  # kappa_{n-i} per entry

    def evaluate(self, i: int, K: Polytope) -> Interval:
        lo_v, hi_v = self.entries[i]
        raw = Interval(evaluate(lo_v, K), evaluate(hi_v, K))
        return raw / self.kappas[i]


def intrinsic_basis(n: int, level: int) -> IntrinsicBasis:
    """Mixed-volume representatives of the intrinsic volumes with brackets."""
    if n not in (2, 3):
        raise ValueError("intrinsic basis supports dimensions 2 and 3")
    lo_ball, hi_ball = _ball_pair(n, level)
    entries = []
    kappas = []
    for i in range(n + 1):
        c = Fraction(comb(n, i))
        lo = MVGenerator(n, i, tuple([lo_ball] * (n - i)), c)
        hi = MVGenerator(n, i, tuple([hi_ball] * (n - i)), c)
        entries.append((Valuation(n, (lo,)), Valuation(n, (hi,))))
        kappas.append(unit_ball_volume(n - i, level))
    return IntrinsicBasis(n, level, tuple(entries), tuple(kappas))


def _intrinsic_product_interval(basis: IntrinsicBasis, i: int, j: int, K: Polytope) -> Interval:
    """Bracket of (V_i . V_j)(K) using both ball approximations."""
    n = basis.dim
    lo_i, hi_i = basis.entries[i]
    lo_j, hi_j = basis.entries[j]
    if i == 0:
        # Unit law: the degree-0 entry is a bracketed multiple of the unit.
        lo_ball_vol = lo_i.terms[0].evaluate(K)  # constant in K
        hi_ball_vol = hi_i.terms[0].evaluate(K)
        inner = Interval(evaluate(lo_j, K), evaluate(hi_j, K))
        raw = Interval(lo_ball_vol, hi_ball_vol) * inner
    elif j == 0:
        return _intrinsic_product_interval(basis, j, i, K)
    else:
        raw = Interval(
            evaluate(product(lo_i, lo_j), K),
            evaluate(product(hi_i, hi_j), K),
        )
    return raw / (basis.kappas[i] * basis.kappas[j])


@dataclass(frozen=True)
class StructureConstants:
    """Table of c_ij brackets with V_i . V_j inside c_ij V_{i+j} on test bodies."""

    dim: int
    level: int
    table: dict
    per_body: dict
    seed: int

    def entry(self, i: int, j: int) -> Interval:
        return self.table[(min(i, j), max(i, j))]


def structure_constants(n: int, level: int, test_bodies=None, seed: int = 11) -> StructureConstants:
    """Measured proportionality constants of the intrinsic-volume algebra.

    For each i + j <= n the interval of (V_i.V_j)(K) / V_{i+j}(K) is computed
    per test body; all contain the true constant, so their intersection is
    reported and the per-body intervals must pairwise overlap.
    """
    if n not in (2, 3):
        raise ValueError("structure constants support dimensions 2 and 3")
    if test_bodies is None:
        rng = random.Random(seed)
        test_bodies = [unit_cube(n), standard_simplex(n), random_polytope(n, rng, n_points=5)]
    basis = intrinsic_basis(n, level)
    table = {}
    per_body = {}
    for i in range(n + 1):
        for j in range(i, n + 1 - i):
            key = (i, j)
            ivals = []
            for K in test_bodies:
                num = _intrinsic_product_interval(basis, i, j, K)
                den = basis.evaluate(i + j, K)
                ivals.append(num / den)
            per_body[key] = ivals
            agg = ivals[0]
            for iv in ivals[1:]:
                agg = agg.intersect(iv)
            table[key] = agg
    return StructureConstants(n, level, table, per_body, seed)


def truncated_poly_check(n: int, level: int, seed: int = 11) -> dict:
    """Consistency of the algebra generated by V_1 with truncated polynomials.

    Checks that power ratios (V_1)^i / V_i stay in consistent nonzero
    brackets for i <= n and that any product of total degree above n is
    exactly zero.
    """
    sc = structure_constants(n, level, seed=seed)
    basis = intrinsic_basis(n, level)
    rng = random.Random(seed)
    bodies = [unit_cube(n), standard_simplex(n), random_polytope(n, rng, n_points=5)]
    report: dict = {"dim": n, "level": level, "power_ratios": {}, "degree_overflow_zero": None}
    # (V_1)^i / V_i as a chain of measured constants: each step multiplies by
    # the bracket of V_1 . V_k / V_{k+1}.
    chain = Interval.point(1)
    ratios = {1: chain}
    for k in range(1, n):
        chain = chain * sc.entry(1, k)
        ratios[k + 1] = chain
    report["power_ratios"] = {i: r for i, r in ratios.items()}
    report["ratios_nonzero"] = all(r.excludes_zero() for i, r in ratios.items())
    # Degree overflow: V_n . V_1 evaluates to exactly zero.
    lo_n, hi_n = basis.entries[n]
    lo_1, hi_1 = basis.entries[1]
    overflow_vals = []
    for K in bodies:
        overflow_vals.append(evaluate(product(lo_n, lo_1), K))
        overflow_vals.append(evaluate(product(hi_n, hi_1), K))
    report["degree_overflow_zero"] = all(v == 0 for v in overflow_vals)
    report["seed"] = seed
    return report


# ---------------------------------------------------------------------------
# Restriction to subspaces and stability.


@dataclass(frozen=True)
class RestrictedGenerator:
    """Pullback of a valuation along a coordinate-aligned isometric embedding."""

    dim: int
    inner: Valuation
    columns: tuple[int, ...]  # image coordinates, one per source coordinate

    def _embed(self, K: Polytope) -> Polytope:
        m = self.inner.dim
        verts = []
        for v in K.vertices:
            w = [Fraction(0)] * m
            for i, c in enumerate(self.columns):
                w[c] = v[i]
            verts.append(tuple(w))
        return Polytope._trusted(m, verts)

    def evaluate(self, K: Polytope) -> Fraction:
        return self.inner.evaluate(self._embed(K))

    def scaled(self, c) -> "RestrictedGenerator":
        return RestrictedGenerator(self.dim, self.inner.scaled(c), self.columns)

    def reflected(self) -> "RestrictedGenerator":
        return RestrictedGenerator(self.dim, self.inner.reflected(), self.columns)

    def homogeneity(self) -> int | None:
        degs = {t.homogeneity() for t in self.inner.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def density_degree(self) -> int:
        return sum(t.density_degree() for t in self.inner.terms)


def restriction(v, embedding) -> Valuation:
    """Pull a valuation back along a coordinate-aligned isometric embedding.

    `embedding` is either a LinearMap whose columns are distinct standard
    basis vectors, or directly the list of target coordinates.  Evaluation
    embeds bodies and defers to the original valuation.
    """
    from .geometry import LinearMap

    v = as_valuation(v)
    if isinstance(embedding, LinearMap):
        if embedding.target_dim != v.dim:
            raise ValueError("embedding target dimension mismatch")
        cols = embedding.coordinate_isometry_columns()
        if cols is None:
            raise ValueError("embedding is not a coordinate-aligned isometry")
        columns = cols
    else:
        columns = tuple(int(c) for c in embedding)
    if len(set(columns)) != len(columns):
        raise ValueError("embedding columns must be distinct")
    if any(not (0 <= c < v.dim) for c in columns):
        raise ValueError("embedding columns out of range")
    k = len(columns)
    if k == 0 or k > v.dim:
        raise ValueError("embedding must target a nontrivial subspace")
    out = []
    for t in v.terms:
        if isinstance(t, EulerGenerator):
            out.append(EulerGenerator(k, t.coeff))
        else:
            out.append(RestrictedGenerator(k, Valuation(v.dim, (t,)), columns))
    return Valuation(k, tuple(out))


def stable_iso_check(k: int, levels: int = 2, seed: int = 23) -> dict:
    """Intrinsic volume V_k evaluated in the plane against restriction from space.

    The two brackets both contain the true V_k of the planar body, so they
    must overlap; this is the sample form of stabilization under the
    standard isometric embeddings.
    """
    if not (0 <= k <= 2):
        raise ValueError("stable check compares planar bodies, so k <= 2")
    rng = random.Random(seed)
    bodies = [unit_cube(2), standard_simplex(2), random_polytope(2, rng, n_points=5)]
    basis2 = intrinsic_basis(2, levels)
    basis3 = intrinsic_basis(3, levels)
    rows = []
    ok = True
    for K in bodies:
        b2 = basis2.evaluate(k, K)
        lo3, hi3 = basis3.entries[k]
        emb = restriction(lo3, (0, 1)), restriction(hi3, (0, 1))
        raw3 = Interval(evaluate(emb[0], K), evaluate(emb[1], K))
        b3 = raw3 / basis3.kappas[k]
        overlap = b2.overlaps(b3)
        ok = ok and overlap
        rows.append({"body": K, "plane": b2, "space": b3, "overlap": overlap})
    return {"k": k, "level": levels, "rows": rows, "all_overlap": ok, "seed": seed}


# ---------------------------------------------------------------------------
# Dimension formulas and inequality profiles.


def unitary_dimension(k: int, m: int) -> int:
    """Dimension of the degree-k isometry-invariant space on complex m-space."""
    if not (0 <= k <= 2 * m):
        raise ValueError("degree out of range")
    return 1 + min(k, 2 * m - k) // 2


def lefschetz_check(h) -> dict:
    """Monotonicity of a dimension profile up to the middle, plus duality."""
    h = [int(x) for x in h]
    n = len(h) - 1
    monotone = all(h[i] <= h[i + 1] for i in range(n) if i < n / 2)
    duality = all(h[i] == h[n - i] for i in range(n + 1))
    return {"profile": h, "monotone": monotone, "duality": duality}
