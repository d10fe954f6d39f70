"""JSON wire formats for polytopes, polynomials and valuations.

Rationals serialize as integers when possible and "p/q" strings otherwise,
so nothing is ever rounded.  Parsing accepts both forms.  Every emitted
object re-parses to an equal object.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Polytope, hull
from .polynomials import Polynomial
from .valuations import (
    EulerGenerator,
    MVGenerator,
    PDGenerator,
    ProductGenerator,
    Valuation,
)


def scalar_to_json(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational literal {obj!r}") from e
    raise ValueError(f"bad scalar {obj!r} (use an int or a 'p/q' string)")


def polytope_to_json(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "vertices": [[scalar_to_json(c) for c in v] for v in P.vertices],
    }


def polytope_from_json(obj) -> Polytope:
    if not isinstance(obj, dict) or "dim" not in obj or "vertices" not in obj:
        raise ValueError("polytope JSON needs 'dim' and 'vertices'")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("polytope 'dim' must be a positive integer")
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise ValueError("polytope 'vertices' must be a nonempty list")
    pts = []
    for v in verts:
        if not isinstance(v, list) or len(v) != dim:
            raise ValueError("each vertex must list exactly 'dim' coordinates")
        pts.append(tuple(scalar_from_json(c) for c in v))
    return hull(pts, dim)


def interval_to_json(iv) -> dict:
    return {
        "lo": scalar_to_json(iv.lo),
        "hi": scalar_to_json(iv.hi),
        "float": [float(iv.lo), float(iv.hi)],
    }


def polynomial_to_json(f: Polynomial) -> dict:
    return {
        "vars": f.num_vars,
        "terms": [
            {"exp": list(exp), "coef": scalar_to_json(coef)}
            for exp, coef in sorted(f.terms.items())
        ],
    }


def polynomial_from_json(obj) -> Polynomial:
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise ValueError("polynomial JSON needs 'vars' and 'terms'")
    nv = obj["vars"]
    if not isinstance(nv, int) or nv < 0:
        raise ValueError("polynomial 'vars' must be a nonnegative integer")
    if not isinstance(obj["terms"], list):
        raise ValueError("polynomial 'terms' must be a list")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise ValueError(f"polynomial term {t!r} is not an object")
        exp = t.get("exp")
        if not isinstance(exp, list) or len(exp) != nv or any(not isinstance(e, int) or e < 0 for e in exp):
            raise ValueError(f"bad exponent list {exp!r}")
        terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + scalar_from_json(t.get("coef"))
    return Polynomial(nv, terms)


def generator_to_json(g) -> dict:
    if isinstance(g, MVGenerator):
        return {
            "kind": "mv",
            "degree": g.degree,
            "bodies": [polytope_to_json(b) for b in g.bodies],
            "coeff": scalar_to_json(g.coeff),
        }
    if isinstance(g, PDGenerator):
        return {
            "kind": "pd",
            "density": polynomial_to_json(g.density),
            "slack": [polytope_to_json(b) for b in g.slack],
            "coeff": scalar_to_json(g.coeff),
        }
    if isinstance(g, EulerGenerator):
        return {"kind": "euler", "coeff": scalar_to_json(g.coeff)}
    if isinstance(g, ProductGenerator):
        return {
            "kind": "product",
            "left": generator_to_json(g.left),
            "right": generator_to_json(g.right),
            "coeff": scalar_to_json(g.coeff),
        }
    raise ValueError(f"generator kind {type(g).__name__} has no JSON form")


def list_from_json(obj: dict, key: str) -> list:
    """The list under `key`, empty when the key is absent."""
    got = obj.get(key, [])
    if not isinstance(got, list):
        raise ValueError(f"field {key!r} must be a list")
    return got


def generator_from_json(obj, dim: int):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("generator JSON needs a 'kind'")
    kind = obj["kind"]
    coeff = scalar_from_json(obj.get("coeff", 1))
    if kind == "mv":
        bodies = tuple(polytope_from_json(b) for b in list_from_json(obj, "bodies"))
        degree = obj.get("degree", dim - len(bodies))
        if not isinstance(degree, int):
            raise ValueError("'mv' term 'degree' must be an integer")
        return MVGenerator(dim, degree, bodies, coeff)
    if kind == "pd":
        density = polynomial_from_json(obj.get("density"))
        slack = tuple(polytope_from_json(b) for b in list_from_json(obj, "slack"))
        return PDGenerator(dim, density, slack, coeff)
    if kind == "euler":
        return EulerGenerator(dim, coeff)
    if kind == "product":
        left = generator_from_json(obj.get("left"), dim)
        right = generator_from_json(obj.get("right"), dim)
        return ProductGenerator(dim, left, right, coeff)
    raise ValueError(f"unknown generator kind {kind!r}")


def valuation_to_json(v: Valuation) -> dict:
    return {"dim": v.dim, "terms": [generator_to_json(t) for t in v.terms]}


def valuation_from_json(obj) -> Valuation:
    if not isinstance(obj, dict) or "dim" not in obj or "terms" not in obj:
        raise ValueError("valuation JSON needs 'dim' and 'terms'")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("valuation 'dim' must be a positive integer")
    terms = tuple(generator_from_json(t, dim) for t in list_from_json(obj, "terms"))
    return Valuation(dim, terms)
