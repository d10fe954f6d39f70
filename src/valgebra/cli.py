"""Batch command-line interface with JSON input and output.

Exit codes: 0 success, 2 input validation failure, 1 internal failure.
JSON reports never round exact values; timing only appears in pretty mode so
that JSON reruns are byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import acceptance
from . import filtration as filt
from .invariants import lefschetz_check, structure_constants, unitary_dimension
from .mixed import intrinsic_volume_brackets, mixed_volume, steiner_coeffs
from .serialize import (
    interval_to_json,
    list_from_json,
    polynomial_to_json,
    polytope_from_json,
    scalar_from_json,
    scalar_to_json,
    valuation_from_json,
    valuation_to_json,
)
from .valuations import (
    MVGenerator,
    evaluate,
    homogeneous_decomposition,
    pairing_matrix,
    product,
)

DEFAULT_SEED = acceptance.DEFAULT_SEED


class InputError(ValueError):
    pass


def _read_input(args) -> dict:
    if args.input is None:
        raise InputError("this command needs --input (a path, '-' for stdin, or inline JSON)")
    text = args.input
    if text == "-":
        text = sys.stdin.read()
    elif not text.lstrip().startswith(("{", "[")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read input file: {e}") from e
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputError(f"malformed JSON: {e}") from e
    if not isinstance(data, dict):
        raise InputError("the input must be a JSON object")
    return data


def _emit(args, command: str, results, witnesses=None, started=None) -> None:
    report = {
        "command": command,
        "results": results,
        "witnesses": witnesses or [],
        "seed": args.seed,
    }
    if args.format == "pretty":
        report["timing_s"] = round(time.time() - started, 3) if started else None
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(json.dumps(report, sort_keys=True, default=str))


def _cmd_mixed_volume(args):
    data = _read_input(args)
    bodies = [polytope_from_json(b) for b in list_from_json(data, "bodies")]
    if not bodies:
        raise InputError("field 'bodies' must list the polytopes")
    return {"mixed_volume": scalar_to_json(mixed_volume(bodies))}


def _cmd_evaluate(args):
    data = _read_input(args)
    v = valuation_from_json(data.get("valuation") or _missing("valuation"))
    K = polytope_from_json(data.get("body") or _missing("body"))
    return {"value": scalar_to_json(evaluate(v, K))}


def _missing(field: str):
    raise InputError(f"missing field '{field}'")


def _cmd_product(args):
    data = _read_input(args)
    left = valuation_from_json(data.get("left") or _missing("left"))
    right = valuation_from_json(data.get("right") or _missing("right"))
    prod = product(left, right, max_internal_dim=2 * args.max_dim)
    out = {"product": valuation_to_json(prod)}
    if data.get("body") is not None:
        K = polytope_from_json(data["body"])
        out["value"] = scalar_to_json(evaluate(prod, K))
    return out


def _cmd_decompose(args):
    data = _read_input(args)
    v = valuation_from_json(data.get("valuation") or _missing("valuation"))
    bodies = [polytope_from_json(b) for b in list_from_json(data, "bodies")]
    if not bodies:
        raise InputError("field 'bodies' must list at least one test body")
    dec = homogeneous_decomposition(v, bodies)
    comps = []
    for i, comp in enumerate(dec.components):
        even, odd = dec.parity[i]
        comps.append(
            {
                "degree": i,
                "component": valuation_to_json(comp),
                "even": valuation_to_json(even),
                "odd": valuation_to_json(odd),
            }
        )
    return {"components": comps}


def _cmd_pairing(args):
    data = _read_input(args)
    left_v = valuation_from_json(data.get("left") or _missing("left"))
    right_v = valuation_from_json(data.get("right") or _missing("right"))
    left = [t for t in left_v.terms]
    right = [t for t in right_v.terms]
    if not all(isinstance(t, MVGenerator) for t in left + right):
        raise InputError("pairing expects mixed-volume generators")
    pm = pairing_matrix(left, right)
    return {
        "matrix": [[scalar_to_json(c) for c in row] for row in pm.entries],
        "rank": pm.rank(),
    }


def _cmd_steiner(args):
    data = _read_input(args)
    K = polytope_from_json(data.get("body") or _missing("body"))
    coeffs = steiner_coeffs(K, args.level)
    return {"level": args.level, "coefficients": [interval_to_json(iv) for iv in coeffs]}


def _cmd_intrinsic(args):
    data = _read_input(args)
    K = polytope_from_json(data.get("body") or _missing("body"))
    vols = intrinsic_volume_brackets(K, args.level)
    return {"level": args.level, "intrinsic_volumes": [interval_to_json(iv) for iv in vols]}


def _cmd_structure_constants(args):
    sc = structure_constants(args.dim, args.level, seed=args.seed)
    table = {}
    for (i, j), iv in sorted(sc.table.items()):
        table[f"{i},{j}"] = interval_to_json(iv)
    return {"dim": args.dim, "level": args.level, "table": table}


def _cmd_filtration(args):
    data = _read_input(args)
    gens = [valuation_from_json(g) for g in list_from_json(data, "generators")]
    if not gens:
        raise InputError("field 'generators' must list at least one valuation")
    n = gens[0].dim
    report = filt.filtration_report(gens, n, seed=args.seed)
    out_gens = []
    for g, lv in zip(gens, report["generators"]):
        out_gens.append(
            {
                "generator": valuation_to_json(g),
                "gamma_level": lv["gamma_level"],
                "w_level": lv["w_level"],
                "witnesses": [],
                "sandwich_ok": lv["sandwich_ok"],
            }
        )
    return {
        "generators": out_gens,
        "products": report["products"],
        "all_sandwich_ok": report["all_sandwich_ok"],
        "all_products_ok": report["all_products_ok"],
    }


def _cmd_symbol(args):
    data = _read_input(args)
    v = valuation_from_json(data.get("valuation") or _missing("valuation"))
    level = data.get("level")
    if not isinstance(level, int):
        raise InputError("field 'level' must be an integer")
    n = v.dim
    k_grid = [polytope_from_json(b) for b in list_from_json(data, "bodies")]
    if not k_grid:
        from .samples import standard_simplex, unit_cube

        k_grid = [unit_cube(n), standard_simplex(n)]
    xs = list_from_json(data, "points")
    if not all(isinstance(x, list) for x in xs):
        raise InputError("field 'points' must list coordinate lists")
    if xs:
        x_grid = [tuple(scalar_from_json(c) for c in x) for x in xs]
    else:
        zero = tuple(Fraction(0) for _ in range(n))
        e1 = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        e12 = tuple(Fraction(1 if i <= 1 else 0) for i in range(n))
        x_grid = [zero, e1, e12]
    sym = filt.symbol(v, level, k_grid, x_grid)
    return {
        "degree": sym.degree,
        "pairs": [
            {"valuation": valuation_to_json(va), "polynomial": polynomial_to_json(po)}
            for va, po in sym.pairs
        ],
        "dual_route_checked": sym.dual_route_checked,
    }


def _cmd_udim(args):
    return {"k": args.k, "m": args.m, "dimension": unitary_dimension(args.k, args.m)}


def _cmd_lefschetz(args):
    try:
        prof = [int(x) for x in args.profile.split(",")]
    except ValueError as e:
        raise InputError(f"bad profile {args.profile!r}: use comma-separated integers") from e
    return lefschetz_check(prof)


def _cmd_verify(args):
    results = acceptance.run_all(args.seed)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] criterion {r['id']:2d}: {r['name']} ({r['elapsed']}s)", file=sys.stderr)
    ok = all(r["passed"] for r in results)
    return {"passed": ok, "criteria": results}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed recorded in reports")
    common.add_argument("--level", type=int, default=3, help="ball approximation level")
    common.add_argument("--max-dim", type=int, default=3, help="ambient dimension guard for products")
    common.add_argument("--format", choices=("json", "pretty"), default="json")
    parser = argparse.ArgumentParser(
        prog="valgebra",
        description="Exact computations with polytope valuations: mixed volumes, products, filtrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name, parents=[common])
        if needs_input:
            p.add_argument("--input", default=None, help="path, '-' for stdin, or inline JSON")
        p.set_defaults(fn=fn)
        return p

    add("mixed-volume", _cmd_mixed_volume)
    add("evaluate", _cmd_evaluate)
    add("product", _cmd_product)
    add("decompose", _cmd_decompose)
    add("pairing", _cmd_pairing)
    add("steiner", _cmd_steiner)
    add("intrinsic", _cmd_intrinsic)
    p = add("structure-constants", _cmd_structure_constants, needs_input=False)
    p.add_argument("--dim", type=int, required=True)
    add("filtration", _cmd_filtration)
    add("symbol", _cmd_symbol)
    p = add("udim", _cmd_udim, needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = add("lefschetz", _cmd_lefschetz, needs_input=False)
    p.add_argument("--h", dest="profile", required=True, help="comma-separated dimensions")
    add("verify", _cmd_verify, needs_input=False)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.time()
    try:
        results = args.fn(args)
    except (InputError, ValueError) as e:
        print(json.dumps({"error": str(e), "command": args.command}), file=sys.stdout)
        return 2
    except Exception as e:  # noqa: BLE001 - internal failure boundary
        print(json.dumps({"internal_error": f"{type(e).__name__}: {e}", "command": args.command}))
        return 1
    _emit(args, args.command, results, started=started)
    if args.command == "verify" and not results["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
