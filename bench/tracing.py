"""Per-layer spans around galab's public functions, from outside galab.

``Tracer.install`` wraps the public functions of each galab module and
rebinds every name that refers to one of them, by object identity, in
every loaded galab module: ``scenarios.omega``, the alias
``scenarios.dz_op`` and ``series.meromorphic_certify`` as called from
``solve_recursion`` all go through the wrapper.  Patching one namespace
only would miss the calls made through the others.

A span stack gives each layer its self time: a span's duration minus
the time covered by the spans it caused.  Spans are aggregated in
memory per layer and read out when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
from collections import defaultdict

#: (module, function) -> layer; every metric named below comes from these
LAYERS = {
    ("scenarios", "load_scenario"): "scenarios.load",
    ("scenarios", "run_scenario"): "scenarios.run",
    ("expressions", "parse_expression"): "expressions.parse",
    ("expressions", "evaluate_on_grid"): "expressions.evaluate",
    ("expressions", "constant_value"): "expressions.evaluate",
    ("expressions", "as_function_of_z"): "expressions.evaluate",
    ("grid", "dbar"): "grid.stencil",
    ("grid", "dz"): "grid.stencil",
    ("grid", "diff_axis"): "grid.stencil",
    ("grid", "residual"): "grid.residual",
    ("grid", "write_csv"): "grid.write_csv",
    ("_integrate", "cumulative_integral"): "integrate.cumulative",
    ("potential", "omega"): "potential.omega",
    ("potential", "omega_singular"): "potential.omega_singular",
    ("potential", "loop_defect"): "potential.loop_defect",
    ("moutard", "moutard_simple"): "moutard.simple",
    ("moutard", "moutard_rank_n"): "moutard.rank_n",
    ("moutard", "compose_simple"): "moutard.compose",
    ("moutard", "transformed_potential"): "moutard.transformed_potential",
    ("conformal", "check_commutativity"): "conformal.commutativity",
    ("series", "solve_recursion"): "series.recursion",
    ("series", "meromorphic_certify"): "series.certify",
    ("singularity", "synthesize_singular_u"): "singularity.synthesize",
    ("singularity", "synthesize_seeds"): "singularity.synthesize",
    ("singularity", "remove_pole"): "singularity.remove_pole",
    ("singularity", "fit_laurent_profile"): "singularity.laurent_fit",
    ("reporting", "dump"): "reporting.dump",
}

#: closures returned by these layers are traced as the named layer
RETURNS_MAPS = {"moutard.simple", "moutard.rank_n", "moutard.compose"}
MAP_LAYER = "moutard.map"

#: layers each workload must reach; a traced run that records zero calls
#: on one of them is not correct
EXPECTED = {
    "cli-suite": (
        "scenarios.load", "scenarios.run", "expressions.parse",
        "expressions.evaluate", "grid.stencil", "grid.residual",
        "grid.write_csv", "integrate.cumulative", "potential.omega",
        "potential.omega_singular", "potential.loop_defect",
        "moutard.simple", "moutard.map", "moutard.transformed_potential",
        "moutard.rank_n", "moutard.compose", "conformal.commutativity",
        "series.recursion", "series.certify", "singularity.synthesize",
        "singularity.remove_pole", "singularity.laurent_fit",
        "reporting.dump"),
    "refine-ladder": (
        "expressions.parse", "expressions.evaluate", "grid.stencil",
        "grid.residual", "integrate.cumulative", "potential.omega",
        "potential.loop_defect", "moutard.simple", "moutard.map",
        "moutard.transformed_potential"),
    "pole-strip": (
        "grid.stencil", "integrate.cumulative", "potential.omega_singular",
        "series.recursion", "series.certify", "singularity.synthesize",
        "singularity.remove_pole", "singularity.laurent_fit"),
}

#: per-layer metrics, in BENCHMARK.json order
SELF_S = ("scenarios.load", "scenarios.run", "expressions.evaluate",
          "grid.stencil", "grid.residual", "grid.write_csv",
          "integrate.cumulative", "potential.omega", "potential.loop_defect",
          "potential.omega_singular", "moutard.simple", "moutard.map",
          "moutard.transformed_potential", "moutard.rank_n", "moutard.compose",
          "conformal.commutativity", "series.recursion",
          "singularity.synthesize", "singularity.remove_pole",
          "singularity.laurent_fit", "reporting.dump")
CALLS = ("scenarios.load", "expressions.parse", "grid.stencil",
         "integrate.cumulative", "potential.omega", "series.recursion",
         "series.certify", "singularity.laurent_fit")
BYTES = ("grid.write_csv", "integrate.cumulative")


def _new_stat() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "bytes": 0,
            "errors": defaultdict(int), "parents": defaultdict(int)}


class Tracer:
    """Span stack and per-layer aggregates for one process."""

    def __init__(self):
        self.stack: list[list] = []
        self.stats: dict[str, dict] = defaultdict(_new_stat)
        self.sources: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def span(self, layer: str, fn, measure=None):
        """``fn`` wrapped in a span of ``layer``.

        ``measure(args, result)`` gives the bytes the call moved; it and
        the wrapping of returned closures run after the span closes."""
        tracer = self

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.stats[layer]["errors"][type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                st = tracer.stats[layer]
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame[1]
                parent = tracer.stack[-1][0] if tracer.stack else ""
                st["parents"][parent] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            return tracer._after(layer, args, result, measure)

        traced.__wrapped__ = fn
        return traced

    def _after(self, layer, args, result, measure):
        if measure is not None:
            self.stats[layer]["bytes"] += measure(args, result)
        if layer == "expressions.parse":
            self.sources.add(args[0])
        elif layer in RETURNS_MAPS:
            result = dataclasses.replace(
                result, map_psi=self.span(MAP_LAYER, result.map_psi),
                map_psi_plus=self.span(MAP_LAYER, result.map_psi_plus))
        elif layer == "expressions.evaluate" and callable(result):
            result = self.span(layer, result)
        return result

    # -- patching

    def install(self) -> None:
        """Rebind every galab name that refers to a wrapped function."""
        wrappers: dict[int, tuple[object, object]] = {}
        for (mod_name, attr), layer in LAYERS.items():
            fn = getattr(importlib.import_module(f"galab.{mod_name}"), attr)
            wrappers[id(fn)] = (fn, self.span(layer, fn, _MEASURE.get(layer)))
        for name, mod in list(sys.modules.items()):
            if name != "galab" and not name.startswith("galab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- read-out

    def snapshot(self) -> dict:
        """Plain-data aggregates, mergeable across processes."""
        return {"stats": {k: {**v, "errors": dict(v["errors"]),
                              "parents": dict(v["parents"])}
                          for k, v in self.stats.items()},
                "sources": len(self.sources)}


def _array_bytes(args, result) -> int:
    # computed from the input and output arrays, not measured
    return int(getattr(args[0], "nbytes", 0)) + int(result.nbytes)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _stream_bytes(args, result) -> int:
    return args[1].tell()


_MEASURE = {"integrate.cumulative": _array_bytes,
            "grid.write_csv": _file_bytes,
            "reporting.dump": _stream_bytes}


def merge(into: dict, snap: dict) -> None:
    """Add one snapshot's aggregates to ``into`` (same layout)."""
    stats = into.setdefault("stats", {})
    for layer, st in snap["stats"].items():
        acc = stats.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0, "bytes": 0,
                                       "errors": {}, "parents": {}})
        for key in ("calls", "self_s", "total_s", "bytes"):
            acc[key] += st[key]
        for key in ("errors", "parents"):
            for k, v in st[key].items():
                acc[key][k] = acc[key].get(k, 0) + v
    into["sources"] = into.get("sources", 0) + snap["sources"]


def layer_metrics(agg: dict, workload: str, item_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from merged aggregates, and the expected layers
    that recorded no call.  ``item_s`` is the summed wall time of the
    traced items."""
    stats = agg.get("stats", {})
    get = lambda layer, key: stats.get(layer, {}).get(key, 0)
    out = {}
    for layer in SELF_S:
        out[f"{layer}.self_s"] = (float(get(layer, "self_s")), "s")
    for layer in CALLS:
        out[f"{layer}.calls"] = (get(layer, "calls"), "count")
    for layer in BYTES:
        out[f"{layer}.bytes"] = (get(layer, "bytes"), "B")
    parses = get("expressions.parse", "calls")
    out["expressions.parse_per_source"] = (
        parses / agg["sources"] if agg.get("sources") else 0.0, "ratio")
    potentials = get("potential.omega", "calls") + get("potential.omega_singular", "calls")
    parents = stats.get("integrate.cumulative", {}).get("parents", {})
    under = parents.get("potential.omega", 0) + parents.get("potential.omega_singular", 0)
    out["integrate.calls_per_omega"] = (under / potentials if potentials else 0.0,
                                        "ratio")
    errors = stats.get("potential.omega", {}).get("errors", {})
    out["potential.exactness_errors"] = (errors.get("ExactnessError", 0), "count")
    out["reporting.bytes"] = (get("reporting.dump", "bytes"), "B")
    attributed = sum(st["self_s"] for st in stats.values())
    out["trace.unattributed_s"] = (max(item_s - attributed, 0.0), "s")
    missing = [layer for layer in EXPECTED[workload] if get(layer, "calls") == 0]
    return out, missing
