"""The three workloads: seeded inputs, the operations, and their checks.

A workload is a function `build(seed, round_index) -> list[Op]`.  Every
round of a workload runs the same operations on fresh inputs drawn from
`random.Random(f"{workload}/{seed}/{round_index}")`; `diag6` and `density`
draw their shapes from a stream that is the same for every seed and apply
seeded symmetries to them (`pool_and_symmetry`).  Fresh inputs keep
valgebra's lru caches from turning later rounds into lookups; `requests`
repeats each request that carries a body once on purpose, so that the
caches do see hits.

Bodies of `diag6` and `density` are integer points on a
parabola or paraboloid, so they are in convex position by construction, and
they reach valgebra as `Polytope(dim, vertices)` without passing through
`geometry.hull`.  Only `requests` uses the JSON wire format.

Checks receive the `oracles` module as an argument, so that no checking code
is imported before the workload process has read its peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from valgebra import cli, filtration, valuations
from valgebra.geometry import Polytope
from valgebra.polynomials import Polynomial
from valgebra.valuations import MVGenerator, PDGenerator

# Known faults that some operations of `requests` run into on every run.
LP_HULL_FAULT = "lp.point_in_hull reports a vertex as inside, so geometry.hull drops it"
POLY_TERM_FAULT = "a non-object polynomial term exits 1 instead of 2"

# Fixed bodies in convex position (points on the paraboloid z = x^2 + y^2)
# on which geometry.hull loses vertices: 4 -> 3 and 12 -> 9.
LP_FAULT_BODIES = (
    [(-1, 1, 2), (-1, -1, 2), (1, -1, 2), (0, 0, 0)],
    [(x, y, x * x + y * y) for x in (-1, 0, 1) for y in (-1, 0, 1)] + [(2, 0, 4), (0, 2, 4), (-2, 1, 5)],
)

REQUEST_LEVEL = 2


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    # check(result, oracles) -> None when right, else a description of what is wrong.
    check: Callable[[object, object], str | None]
    fault: str | None = None


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def pool_and_symmetry(workload: str, seed: int, round_index: int) -> tuple[random.Random, random.Random]:
    """Two streams for round `round_index`: the first draws the shapes and is
    the same for every seed; the second, from the seed, draws the symmetries
    and signs applied to them.

    An operation of `diag6` or `density` costs up to 2.6 times another of
    its kind on other shapes, and a run has only 4 to 8 rounds; with shapes
    drawn from the seed, the seed would set the timings.  Symmetries keep every
    coordinate's magnitude, so they leave the cost alone and change the
    outputs.
    """
    return random.Random(f"{workload}/pool/{round_index}"), rng_for(workload, seed, round_index)


# ---------------------------------------------------------------------------
# Bodies and densities.


def polygon(rng, k: int, spread: int, shift: int = 1) -> list[tuple[int, int]]:
    """k lattice points on a translated parabola: a convex k-gon."""
    xs = sorted(rng.sample(range(-spread, spread + 1), k))
    tx, ty = rng.randint(-shift, shift), rng.randint(-shift, shift)
    return [(x + tx, x * x + ty) for x in xs]


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def tetrahedron(rng) -> list[tuple[int, int, int]]:
    """Four lattice points on the paraboloid z = x^2 + y^2, redrawn while flat."""
    while True:
        xy = rng.sample([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)], 4)
        pts = [(x, y, x * x + y * y) for x, y in xy]
        if _det3([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) != 0:
            return pts


def linear_density(rng) -> dict:
    return {(0, 0): rng.randint(-3, 3), (1, 0): rng.choice((-2, -1, 1, 2)), (0, 1): rng.randint(-2, 2)}


def as_polytope(points) -> Polytope:
    return Polytope(len(points[0]), tuple(sorted(tuple(Fraction(c) for c in p) for p in points)))


def as_polynomial(f: dict) -> Polynomial:
    return Polynomial(2, {e: Fraction(c) for e, c in f.items()})


def _frac(x) -> Fraction:
    return Fraction(str(x))


# ---------------------------------------------------------------------------
# diag6: complementary-degree mixed-volume products in dimension 3, each by
# the closed form and by the diagonal route at internal dimension 6.


def build_diag6(seed: int, round_index: int) -> list[Op]:
    pool, sym = pool_and_symmetry("diag6", seed, round_index)

    def body():
        """A pooled tetrahedron under a seeded symmetry of the square grid:
        signs of x and y, and their order, all of which keep z = x^2 + y^2."""
        sx, sy = sym.choice((-1, 1)), sym.choice((-1, 1))
        pts = [(sx * x, sy * y, z) for x, y, z in tetrahedron(pool)]
        return [(y, x, z) for x, y, z in pts] if sym.random() < 0.5 else pts

    return [_diag6_op(i, body(), body(), body()) for i in (1, 2)]


def _diag6_op(i: int, K, A, B) -> Op:
    # Degree i against degree 3 - i, with the slack bodies A and B repeated:
    # the diagonal route still runs its 6-D hulls, on 64 rather than 256
    # Minkowski candidates, so one operation takes seconds instead of tens.
    PK, PA, PB = as_polytope(K), as_polytope(A), as_polytope(B)
    phi = MVGenerator(3, i, (PA,) * (3 - i))
    psi = MVGenerator(3, 3 - i, (PB,) * i)

    def call():
        closed = valuations.closed_form_product(phi, psi).evaluate(PK)
        diagonal = valuations.diagonal_product_evaluate(phi, psi, PK)
        return closed, diagonal

    def check(out, o):
        closed, diagonal = out
        if closed != diagonal:
            return f"closed form {closed} != diagonal route {diagonal}"
        v, v_scale = o.mixed_volume_qhull([A] * (3 - i) + [o.neg(B)] * i)
        vol_k = o.volume_qhull(K)
        if not o.close(diagonal, v * vol_k / 3, v_scale * vol_k, rel=1e-8):
            return f"product {diagonal} != V(A..,-B..) vol(K) / 3 = {v * vol_k / 3} (Qhull)"
        return None

    return Op(f"diag6.i{i}", call, check)


# ---------------------------------------------------------------------------
# density: planar products of polynomial-density generators through the
# internal-dimension-4 diagonal, and one scaling profile of such a product.


def build_density(seed: int, round_index: int) -> list[Op]:
    pool, sym = pool_and_symmetry("density", seed, round_index)

    def body():
        """A pooled triangle, mirrored in x on about half the seeds."""
        pts = polygon(pool, 3, 2)
        return [(-x, y) for x, y in pts] if sym.random() < 0.5 else pts

    def density():
        """A pooled linear density with seeded signs."""
        return {e: c * sym.choice((-1, 1)) for e, c in linear_density(pool).items()}

    def draw():
        return body(), body(), body(), density()

    K, A, B, g = draw()
    f = density()
    pdpd = _density_op("density.pdxpd", PDGenerator(2, as_polynomial(f), (as_polytope(A),)), K, A, B, g, 2, f)
    K, A, B, g = draw()
    mvpd = _density_op("density.mvxpd", MVGenerator(2, 1, (as_polytope(A),)), K, A, B, g, 1, None)
    K, A, B, g = draw()
    shift = tuple(pool.randint(-2, 2) * sym.choice((-1, 1)) for _ in range(2))
    return [pdpd, mvpd, _profile_op(K, A, B, g, shift)]


def _density_op(kind, left, K, A, B, g, factor, f) -> Op:
    """(left . PD(g; B))(K), which equals factor * V(A, -B) * integral_K f g.

    The identities: (PD(f; A) . PD(g; B))(K) = 2 V(A, -B) int_K f g and
    (MV(1; A) . PD(g; B))(K) = V(A, -B) int_K g.
    """
    right = PDGenerator(2, as_polynomial(g), (as_polytope(B),))
    PK = as_polytope(K)

    def call():
        return valuations.diagonal_product_evaluate(left, right, PK)

    def check(out, o):
        density = o.poly_mul(f, g) if f is not None else g
        want = factor * o.mixed_area(A, o.neg(B)) * o.integrate2(K, density)
        return None if out == want else f"{out} != {want} (oracle identity)"

    return Op(kind, call, check)


def _profile_op(K, A, B, g, shift) -> Op:
    """The scaling profile r -> (MV(1; A) . PD(g; B))(rK + x)."""
    prod = valuations.product(MVGenerator(2, 1, (as_polytope(A),)), PDGenerator(2, as_polynomial(g), (as_polytope(B),)))
    PK = as_polytope(K)
    x = tuple(Fraction(c) for c in shift)

    def call():
        prof = filtration.scaling_profile(prod, PK, x)
        return {e[0]: c for e, c in prof.poly.terms.items()}

    def check(out, o):
        v_ab = o.mixed_area(A, o.neg(B))
        for r in (0, 1, 2, 3, 5, Fraction(1, 2)):
            got = sum((c * Fraction(r) ** k for k, c in out.items()), Fraction(0))
            want = v_ab * o.integrate2(o.scaled(K, r, shift), g)
            if got != want:
                return f"profile at r={r}: {got} != {want} (oracle identity)"
        return None

    return Op("density.profile", call, check)


# ---------------------------------------------------------------------------
# requests: a closed loop of small JSON requests through valgebra.cli.main.


def _jnum(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _jbody(points) -> dict:
    return {"dim": len(points[0]), "vertices": [[_jnum(c) for c in p] for p in points]}


def _jdensity(f: dict) -> dict:
    return {"vars": 2, "terms": [{"exp": list(e), "coef": _jnum(c)} for e, c in f.items()]}


def _run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse reports usage errors this way
            code = e.code
    return code, buf.getvalue()


def _request(kind: str, argv: list[str], check_results, fault: str | None = None) -> Op:
    """A request expected to exit 0; check_results(results, oracles) checks the report."""

    def check(out, o):
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip()[:160]}"
        return check_results(json.loads(text)["results"], o)

    return Op(f"requests.{kind}", lambda: _run_cli(argv), check, fault)


def _malformed(kind: str, argv: list[str], fault: str | None = None) -> Op:
    def check(out, o):
        code, text = out
        if code == 2 and "error" in json.loads(text):
            return None
        return f"malformed input exits {code}, not 2: {text.strip()[:160]}"

    return Op(f"requests.malformed.{kind}", lambda: _run_cli(argv), check, fault)


def _small_polygon(rng) -> list:
    """A 3- to 5-gon; half of them with half-integer coordinates."""
    pts = polygon(rng, rng.randint(3, 5), 3)
    if rng.random() < 0.5:
        pts = [tuple(Fraction(c, 2) for c in p) for p in pts]
    return pts


def _flat_3d(rng, axis: int) -> list:
    """A triangle in a plane normal to `axis`: flat, so geometry.hull takes its planar path."""
    out = []
    for u, w in polygon(rng, 3, 2):
        p = [u, w]
        p.insert(axis, rng.choice((0, 1)) if not out else out[0][axis])
        out.append(tuple(p))
    return out


def _eval_valuation(v: dict, K, o) -> Fraction:
    """Oracle value of a planar valuation report made of mv and euler terms."""
    total = Fraction(0)
    for t in v["terms"]:
        c = _frac(t.get("coeff", 1))
        if t["kind"] == "euler":
            total += c
            continue
        bodies = [[tuple(_frac(x) for x in p) for p in b["vertices"]] for b in t["bodies"]]
        if t["degree"] == 2:
            total += c * o.area2(K)
        elif t["degree"] == 1:
            total += c * o.mixed_area(K, bodies[0])
        else:
            total += c * o.mixed_area(bodies[0], bodies[1])
    return total


def _req_mixed_2d(rng) -> Op:
    A, B = _small_polygon(rng), _small_polygon(rng)
    argv = ["mixed-volume", "--input", json.dumps({"bodies": [_jbody(A), _jbody(B)]})]

    def check(res, o):
        got, want = _frac(res["mixed_volume"]), o.mixed_area(A, B)
        return None if got == want else f"V(A,B) = {got} != {want}"

    return _request("mixed-volume-2d", argv, check)


def _mixed_3d_request(kind: str, bodies, fault=None) -> Op:
    argv = ["mixed-volume", "--input", json.dumps({"bodies": [_jbody(b) for b in bodies]})]

    def check(res, o):
        got = _frac(res["mixed_volume"])
        want, scale = o.mixed_volume_qhull(bodies)
        return None if o.close(got, want, scale) else f"V = {got} != {want} (Qhull)"

    return _request(kind, argv, check, fault)


def _req_mixed_3d(rng) -> Op:
    # Flat bodies: full-dimensional ones would meet the LP fault on some
    # seeds, and a seed-dependent failure count cannot be compared run to run.
    return _mixed_3d_request("mixed-volume-3d", [_flat_3d(rng, axis) for axis in (2, 1, 0)])


def _req_evaluate(rng) -> Op:
    A, K = _small_polygon(rng), _small_polygon(rng)
    f = linear_density(rng)
    c = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(4)]
    valuation = {
        "dim": 2,
        "terms": [
            {"kind": "mv", "degree": 1, "bodies": [_jbody(A)], "coeff": _jnum(c[0])},
            {"kind": "mv", "degree": 2, "bodies": [], "coeff": _jnum(c[1])},
            {"kind": "euler", "coeff": _jnum(c[2])},
            {"kind": "pd", "density": _jdensity(f), "slack": [], "coeff": _jnum(c[3])},
        ],
    }
    argv = ["evaluate", "--input", json.dumps({"valuation": valuation, "body": _jbody(K)})]

    def check(res, o):
        want = c[0] * o.mixed_area(K, A) + c[1] * o.area2(K) + c[2] + c[3] * o.integrate2(K, f)
        got = _frac(res["value"])
        return None if got == want else f"value {got} != {want}"

    return _request("evaluate", argv, check)


def _mv1(points) -> dict:
    return {"kind": "mv", "degree": 1, "bodies": [_jbody(points)]}


def _req_product(rng) -> Op:
    A, B, K = _small_polygon(rng), _small_polygon(rng), _small_polygon(rng)
    payload = {
        "left": {"dim": 2, "terms": [_mv1(A)]},
        "right": {"dim": 2, "terms": [_mv1(B)]},
        "body": _jbody(K),
    }
    argv = ["product", "--input", json.dumps(payload)]

    def check(res, o):
        coeff = o.mixed_area(A, o.neg(B)) / 2
        terms = res["product"]["terms"]
        if len(terms) != 1 or terms[0]["kind"] != "mv" or terms[0]["degree"] != 2 or _frac(terms[0]["coeff"]) != coeff:
            return f"product {terms} is not V(A,-B)/2 = {coeff} times the area"
        got = _frac(res["value"])
        return None if got == coeff * o.area2(K) else f"value {got} != {coeff * o.area2(K)}"

    return _request("product", argv, check)


def _req_pairing(rng) -> Op:
    left = [_small_polygon(rng) for _ in range(2)]
    right = [_small_polygon(rng) for _ in range(2)]
    payload = {
        "left": {"dim": 2, "terms": [_mv1(A) for A in left]},
        "right": {"dim": 2, "terms": [_mv1(B) for B in right]},
    }
    argv = ["pairing", "--input", json.dumps(payload)]

    def check(res, o):
        want = [[o.mixed_area(A, o.neg(B)) / 2 for B in right] for A in left]
        got = [[_frac(x) for x in row] for row in res["matrix"]]
        if got != want:
            return f"pairing {got} != V(A,-B)/2 = {want}"
        return None if res["rank"] == o.rank(want) else f"rank {res['rank']} != {o.rank(want)}"

    return _request("pairing", argv, check)


def _iv(d) -> tuple[Fraction, Fraction]:
    return _frac(d["lo"]), _frac(d["hi"])


def _check_intrinsic(vols, K, o) -> str | None:
    """V_0 brackets 1, V_1 half the perimeter, and V_2 is exactly the area."""
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = vols
    if not lo0 <= 1 <= hi0:
        return f"V0 = [{float(lo0)}, {float(hi0)}] misses 1"
    p_lo, p_hi = o.perimeter_bounds(K)
    if not o.brackets(lo1, hi1, p_lo / 2, p_hi / 2):
        return f"V1 = [{float(lo1)}, {float(hi1)}] misses half the perimeter {float(p_lo) / 2}"
    area = o.area2(K)
    if not lo2 == hi2 == area:
        return f"V2 = [{lo2}, {hi2}] != area {area}"
    return None


def _req_steiner(rng) -> Op:
    K = _small_polygon(rng)
    argv = ["steiner", "--level", str(REQUEST_LEVEL), "--input", json.dumps({"body": _jbody(K)})]

    def check(res, o):
        (lo0, hi0), (lo1, hi1), (lo2, hi2) = (_iv(c) for c in res["coefficients"])
        if not lo0 == hi0 == o.area2(K):
            return f"eps^0 coefficient [{lo0}, {hi0}] != area"
        p_lo, p_hi = o.perimeter_bounds(K)
        if not o.brackets(lo1, hi1, p_lo, p_hi):
            return f"eps^1 coefficient [{float(lo1)}, {float(hi1)}] misses the perimeter"
        if not o.brackets(lo2, hi2, o.PI_LO, o.PI_HI):
            return f"eps^2 coefficient [{float(lo2)}, {float(hi2)}] misses pi"
        return None

    return _request("steiner", argv, check)


def _req_intrinsic(rng) -> Op:
    K = _small_polygon(rng)
    argv = ["intrinsic", "--level", str(REQUEST_LEVEL), "--input", json.dumps({"body": _jbody(K)})]
    return _request(
        "intrinsic", argv, lambda res, o: _check_intrinsic([_iv(v) for v in res["intrinsic_volumes"]], K, o)
    )


def _req_decompose(rng) -> Op:
    A, B, C, K = (_small_polygon(rng) for _ in range(4))
    c = [rng.randint(-3, 3) or 1 for _ in range(4)]
    valuation = {
        "dim": 2,
        "terms": [
            {"kind": "euler", "coeff": c[0]},
            {"kind": "mv", "degree": 1, "bodies": [_jbody(A)], "coeff": c[1]},
            {"kind": "mv", "degree": 0, "bodies": [_jbody(B), _jbody(C)], "coeff": c[2]},
            {"kind": "mv", "degree": 2, "bodies": [], "coeff": c[3]},
        ],
    }
    argv = ["decompose", "--input", json.dumps({"valuation": valuation, "bodies": [_jbody(K)]})]

    def check(res, o):
        comps = sorted(res["components"], key=lambda comp: comp["degree"])
        if [comp["degree"] for comp in comps] != [0, 1, 2]:
            return f"degrees {[comp['degree'] for comp in comps]} != [0, 1, 2]"
        K2, Kneg = o.scaled(K, 2), o.neg(K)
        total = Fraction(0)
        for i, comp in enumerate(comps):
            value = _eval_valuation(comp["component"], K, o)
            total += value
            if _eval_valuation(comp["component"], K2, o) != 2**i * value:
                return f"component {i} is not homogeneous of degree {i}"
            even, odd = _eval_valuation(comp["even"], K, o), _eval_valuation(comp["odd"], K, o)
            if even + odd != value:
                return f"even + odd parts of component {i} do not add up"
            if _eval_valuation(comp["even"], Kneg, o) != even or _eval_valuation(comp["odd"], Kneg, o) != -odd:
                return f"parity parts of component {i} are not even and odd"
        want = _eval_valuation(valuation, K, o)
        return None if total == want else f"components sum to {total}, not {want}"

    return _request("decompose", argv, check)


def _req_udim(rng) -> Op:
    m = rng.randint(1, 6)
    k = rng.randint(0, 2 * m)

    def check(res, o):
        want = 1 + min(k, 2 * m - k) // 2
        return None if res["dimension"] == want else f"udim({k}, {m}) = {res['dimension']} != {want}"

    return _request("udim", ["udim", "--k", str(k), "--m", str(m)], check)


def _req_lefschetz(rng) -> Op:
    h = [rng.randint(0, 4) for _ in range(rng.randint(3, 7))]
    if rng.random() < 0.5:
        h = sorted(h[: (len(h) + 1) // 2])
        h = h + h[: len(h) - 1][::-1]  # a unimodal palindrome
    n = len(h) - 1

    def check(res, o):
        want = {
            "profile": h,
            "monotone": all(h[i] <= h[i + 1] for i in range((n + 1) // 2)),
            "duality": h == h[::-1],
        }
        return None if res == want else f"lefschetz {res} != {want}"

    return _request("lefschetz", ["lefschetz", "--h", ",".join(map(str, h))], check)


# One fresh well-formed request per command a round, 2-D and 3-D for
# `mixed-volume`.  There is no recorded traffic to weigh the commands by.
REQUEST_MAKERS = (
    _req_mixed_2d,
    _req_mixed_3d,
    _req_evaluate,
    _req_product,
    _req_pairing,
    _req_steiner,
    _req_intrinsic,
    _req_decompose,
    _req_udim,
    _req_lefschetz,
)


def _malformed_requests(rng) -> list[Op]:
    A = _jbody(_small_polygon(rng))
    mv_a = {"dim": 2, "terms": [{"kind": "mv", "degree": 1, "bodies": [A]}]}
    bad_coeff = {"dim": 2, "terms": [{"kind": "mv", "degree": 1, "bodies": [A], "coeff": "1/0"}]}
    non_object_term = {
        "dim": 2,
        "terms": [{"kind": "pd", "density": {"vars": 2, "terms": [rng.randint(1, 9)]}, "slack": []}],
    }
    return [
        _malformed("vertex-length", ["mixed-volume", "--input", json.dumps({"bodies": [{"dim": 2, "vertices": [[0, 0], [1]]}, A]})]),
        _malformed("missing-body", ["evaluate", "--input", json.dumps({"valuation": mv_a})]),
        _malformed("bad-rational", ["product", "--input", json.dumps({"left": bad_coeff, "right": mv_a})]),
        _malformed("bad-json", ["mixed-volume", "--input", json.dumps({"bodies": [A]})[:-3]]),
        _malformed("bad-profile", ["lefschetz", "--h", "1,x,2"]),
        _malformed("non-object-term", ["evaluate", "--input", json.dumps({"valuation": non_object_term, "body": A})], POLY_TERM_FAULT),
    ]


def build_requests(seed: int, round_index: int) -> list[Op]:
    """One round: each fresh request, a repeat of each one that carries a
    body (so that every cache meets each body twice), one malformed request
    per kind of input error, and the two requests that meet the LP fault."""
    rng = rng_for("requests", seed, round_index)
    fresh = [make(rng) for make in REQUEST_MAKERS]
    stream = fresh + _malformed_requests(rng)
    stream += [
        _mixed_3d_request(f"mixed-volume-3d.lp-fault{len(body)}", [body] * 3, LP_HULL_FAULT) for body in LP_FAULT_BODIES
    ]
    rng.shuffle(stream)
    for op in fresh:
        if op.kind not in ("requests.udim", "requests.lefschetz"):
            at = stream.index(op) + 1
            stream.insert(rng.randint(at, len(stream)), replace(op, kind=f"{op.kind}.repeat"))
    return stream


BUILDERS = {
    "diag6": build_diag6,
    "density": build_density,
    "requests": build_requests,
}
