"""Per-layer spans recorded from outside valgebra.

`install()` replaces each traced function, in every valgebra module namespace
that binds it, by a wrapper that counts calls and measures inclusive time.
A layer's self time is its inclusive time minus the inclusive time of the
wrapped calls it makes.  Time spent in the tracer's own bookkeeping is
charged to no layer; it shows up as `trace.overhead_s`.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, function name) -> layer name.  hull_data_int is split further by
# dimension; integrate_simplex calls are the `polynomials.simplices` count.
TRACED = {
    ("valgebra.hull", "hull_data_int"): "hull",
    ("valgebra.intlinalg", "simplex_det"): "intlinalg.det",
    ("valgebra.geometry", "hull"): "geometry.hull",
    ("valgebra.geometry", "ball_approx"): "geometry.ball",
    ("valgebra.lp", "point_in_hull"): "lp",
    ("valgebra.polynomials", "integrate_simplex"): "polynomials.integrate",
    ("valgebra.polynomials", "integrate_points"): "polynomials.points",
    ("valgebra.interp", "tensor_interpolate"): "interp",
    ("valgebra.interp", "univariate_coeffs"): "interp",
    ("valgebra.mixed", "mixed_volume_grouped"): "mixed.mv",
    ("valgebra.mixed", "mixed_derivative_coefficient"): "mixed.mdc",
    ("valgebra.mixed", "minkowski_polynomial"): "mixed.minkowski",
    ("valgebra.valuations", "_evaluate_factors_on_diagonal"): "valuations.diagonal",
    ("valgebra.valuations", "closed_form_product"): "valuations.closed_form",
    ("valgebra.filtration", "scaling_profile"): "filtration.profile",
    ("valgebra.cli", "main"): "cli",
}
SERIALIZE_FUNCS = (
    "scalar_to_json",
    "scalar_from_json",
    "polytope_to_json",
    "polytope_from_json",
    "interval_to_json",
    "polynomial_to_json",
    "polynomial_from_json",
    "generator_to_json",
    "generator_from_json",
    "valuation_to_json",
    "valuation_from_json",
)
for _name in SERIALIZE_FUNCS:
    TRACED[("valgebra.serialize", _name)] = "serialize"

# lru caches whose hit ratios are reported, by metric prefix.
CACHES = {
    "cache.mv": ("valgebra.valuations", "_cached_mv_value"),
    "cache.pd": ("valgebra.valuations", "_cached_pd_value"),
    "cache.diag": ("valgebra.valuations", "_cached_diagonal_value"),
    "cache.hull": ("valgebra.geometry", "_hull_data_of"),
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.hull = {"points_in": 0, "facets_out": 0, "vertices_out": 0}
        self._stack: list[float] = []  # per open span: time of its wrapped children

    def wrap(self, fn, layer: str):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        hull_layer = layer == "hull"

        def traced(*args, **kwargs):
            out = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                children = stack.pop()
                name = f"hull.d{args[1]}" if hull_layer else layer
                calls[name] += 1
                self_s[name] += t1 - t0 - children
                if hull_layer:
                    self._count_hull(args[0], out)
                if stack:
                    # The parent is charged for this span and for the
                    # bookkeeping above, so neither lands in its self time.
                    stack[-1] += perf_counter() - t0

        return traced

    def _count_hull(self, points, data):
        self.hull["points_in"] += len(points)
        if data is not None:
            self.hull["facets_out"] += len(data.facet_vertices)
            self.hull["vertices_out"] += len(data.boundary_vertex_indices())

    def install(self):
        """Patch every valgebra module attribute bound to a traced function."""
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "valgebra"}
        for (mod_name, fn_name), layer in TRACED.items():
            original = getattr(modules[mod_name], fn_name)
            wrapper = self.wrap(original, layer)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures, counts and times as means per round."""
        per = 1.0 / rounds
        c, s = self.calls, self.self_s
        hull_dims = [k for k in c if k.startswith("hull.d")]
        out = {
            "hull.calls": sum(c[k] for k in hull_dims) * per,
            "hull.points_in": self.hull["points_in"] * per,
            "hull.facets_out": self.hull["facets_out"] * per,
            "hull.useful_ratio": self.hull["vertices_out"] / self.hull["points_in"] if self.hull["points_in"] else 0.0,
        }
        for d in (2, 3, 4, 6):
            out[f"hull.d{d}.self_s"] = s[f"hull.d{d}"] * per
        out.update(
            {
                "intlinalg.det.calls": c["intlinalg.det"] * per,
                "intlinalg.det.self_s": s["intlinalg.det"] * per,
                "geometry.hull.calls": c["geometry.hull"] * per,
                "geometry.hull.self_s": s["geometry.hull"] * per,
                "lp.calls": c["lp"] * per,
                "lp.self_s": s["lp"] * per,
                "geometry.ball.self_s": s["geometry.ball"] * per,
                "polynomials.simplices": c["polynomials.integrate"] * per,
                "polynomials.integrate.self_s": s["polynomials.integrate"] * per,
                "polynomials.points.self_s": s["polynomials.points"] * per,
                "interp.calls": c["interp"] * per,
                "interp.self_s": s["interp"] * per,
                "mixed.mv.calls": c["mixed.mv"] * per,
                "mixed.mv.self_s": s["mixed.mv"] * per,
                "mixed.mdc.self_s": s["mixed.mdc"] * per,
                "mixed.minkowski.self_s": s["mixed.minkowski"] * per,
                "valuations.diagonal.calls": c["valuations.diagonal"] * per,
                "valuations.closed_form.calls": c["valuations.closed_form"] * per,
                "valuations.closed_form.self_s": s["valuations.closed_form"] * per,
                "filtration.profile.calls": c["filtration.profile"] * per,
                "filtration.profile.self_s": s["filtration.profile"] * per,
                "serialize.self_s": s["serialize"] * per,
                "cli.self_s": s["cli"] * per,
            }
        )
        for prefix, (mod_name, fn_name) in CACHES.items():
            info = getattr(sys.modules[mod_name], fn_name).cache_info()
            looked_up = info.hits + info.misses
            out[f"{prefix}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out
