"""The traced run: spans around every public call into the relconv layers.

``Tracer.install()`` wraps each public function of the layer modules in every
``relconv`` namespace that binds it (``relconv.catalog.profile`` as well as
``relconv.isoperimetry.profile``), and each public method of the layers'
classes.  Private helpers are never wrapped.  A span records its name, start,
end and parent span, plus a few counts read from the call's arguments and
result (probes).  Spans stay in memory; run.py writes them out at the end.

``pass_metrics`` turns the spans of one pass into the per-layer metrics.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "catalog", "isoperimetry", "cayley", "convexity", "extremal", "grid")

# Methods called once per group element, arc or violation record.  Their
# cost belongs to the caller (to_dict is the CLI's report assembly), and a
# span each would cost more than the call itself.
PER_ITEM = frozenset({"add", "neg", "coords", "index", "contains", "hex", "to_dict"})

# Per-layer metrics: name -> (unit, better).  Each comment names the
# end-to-end metric and workload the layer metric should move.
PER_LAYER = {
    "cli.self_ms": ("ms", "lower"),  # argparse, report assembly, JSON/CSV: job_p50_ms catalog, wall_s scan
    "cli.report_bytes": ("bytes", "lower"),  # wall_s and peak_rss_mb on scan
    "catalog.load_ms": ("ms", "lower"),  # job_p50_ms on catalog
    "catalog.verify_self_ms": ("ms", "lower"),  # job_p50_ms on catalog
    "isoperimetry.profile_s": ("s", "lower"),  # wall_s on catalog
    "isoperimetry.profile_s.order20": ("s", "lower"),  # wall_s on catalog
    "isoperimetry.profile_ms.small": ("ms", "lower"),  # median over order <= 16: job_p50_ms catalog
    "isoperimetry.subsets": ("count", "lower"),  # stats.subsets_enumerated
    "isoperimetry.ns_per_subset": ("ns", "lower"),  # wall_s on catalog
    "isoperimetry.digraph_ms": ("ms", "lower"),  # the six-cycle job
    "isoperimetry.self_ms": ("ms", "lower"),
    "cayley.parse_ms": ("ms", "lower"),  # job_p50_ms on catalog
    "cayley.is_generating_ms": ("ms", "lower"),  # job_p50_ms on catalog
    "cayley.max_order_ms": ("ms", "lower"),  # job_p50_ms on catalog
    "cayley.shift_table_calls": ("count", "lower"),  # job_p50_ms on catalog
    "cayley.shift_table_builds": ("count", "lower"),  # cold calls: job_p50_ms on catalog
    "cayley.self_ms": ("ms", "lower"),
    "convexity.exact_triples": ("count", "lower"),  # wall_s, job_tail_ms on scan
    "convexity.exact_ns_per_triple": ("ns", "lower"),  # wall_s, job_tail_ms on scan
    "convexity.float_ns_per_triple": ("ns", "lower"),  # wall_s on scan
    "convexity.sharpened_ns_per_triple": ("ns", "lower"),  # wall_s on scan
    "convexity.mean_ms": ("ms", "lower"),  # job_p50_ms on scan
    "convexity.endpoint_ms": ("ms", "lower"),  # without its nested full scan: job_p50_ms scan
    "convexity.violations": ("count", "lower"),  # peak_rss_mb, wall_s on scan
    "convexity.violations_per_verdict": ("count", "lower"),  # wall_s on scan
    "convexity.inputs_ms": ("ms", "lower"),  # make_tent, sample_concave: setup_s on scan
    "convexity.self_ms": ("ms", "lower"),
    "extremal.sup_s": ("s", "lower"),  # wall_s, job_tail_ms on sup
    "extremal.sup_sweeps": ("count", "lower"),  # wall_s, job_tail_ms on sup
    "extremal.sup_ms_per_sweep": ("ms", "lower"),  # wall_s, job_tail_ms on sup
    "extremal.sup_ns_per_triple": ("ns", "lower"),  # wall_s, job_tail_ms on sup
    "extremal.majorant_calls": ("count", "lower"),  # scalar bounds in profile: job_p50_ms catalog
    "extremal.majorant_us": ("us", "lower"),  # job_p50_ms on catalog
    "extremal.majorant_values_ms": ("ms", "lower"),  # wall_s on scan
    "extremal.self_ms": ("ms", "lower"),
    "grid.write_csv_ms": ("ms", "lower"),  # wall_s on sup
    "grid.csv_bytes": ("bytes", "lower"),  # wall_s on sup
    "grid.read_csv_ms": ("ms", "lower"),  # job_p50_ms on scan
    "grid.self_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),  # traced wall_s / untraced wall_s - 1
    "trace.coverage_frac": ("ratio", "higher"),  # top-level spans / traced wall_s
    "trace.spans": ("count", "lower"),
}


def _triples(n: int) -> int:
    """Grid triples a < b < c in 0..N that every triple scan visits."""
    return math.comb(n + 1, 3)


def _probe_profile(tracer, a, result):
    return {"order": a["group"].order, "subsets": result.subsets_enumerated}


def _probe_almost_convex(tracer, a, result):
    f = a["f"]
    exact = f.is_exact and a["p"] == 1 and isinstance(a["c"], (int, Fraction))
    return {"exact": exact, "triples": _triples(f.N), "violations": len(result)}


def _probe_sharpened(tracer, a, result):
    return {"triples": _triples(a["f"].N), "violations": len(result)}


def _probe_mean(tracer, a, result):
    return {"violations": len(result)}


def _probe_sup(tracer, a, result):
    sweeps = a["stats"]["iterations"] if a["stats"] is not None else 0
    return {"sweeps": sweeps, "triples": sweeps * _triples(a["N"])}


def _probe_write_csv(tracer, a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _probe_shift_table(tracer, a, result):
    # the first call for a (group object, s) pair builds, later ones hit the
    # group's cache; the group is held so its id is not reused
    group = a["self"]
    seen = tracer.shift_seen.setdefault(id(group), (group, set()))[1]
    build = a["s"] not in seen
    seen.add(a["s"])
    return {"build": build}


PROBES = {
    "isoperimetry.profile": _probe_profile,
    "convexity.check_almost_convex": _probe_almost_convex,
    "convexity.check_sharpened": _probe_sharpened,
    "convexity.check_mean_inequality": _probe_mean,
    "extremal.estimate_sup": _probe_sup,
    "grid.write_csv": _probe_write_csv,
    "cayley.AbelianGroup.shift_table": _probe_shift_table,
}


class Tracer:
    """Records spans [id, parent id, name, start, end, probe counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.shift_seen: dict[int, tuple[object, set]] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap the public functions and methods of every layer."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"relconv.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for name, module in list(sys.modules.items()):
            if name == "relconv" or name.startswith("relconv."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or attr in PER_ITEM:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = probe(self, bound.arguments, result)
            return result

        return traced


def pass_metrics(spans: list[list], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of the spans that lie within [start, end]."""
    inside = [s for s in spans if start <= s[3] and s[4] <= end]
    by_id = {s[0]: s for s in inside}
    covered = defaultdict(float)
    for s in inside:
        if s[1] in by_id:
            covered[s[1]] += s[4] - s[3]

    def named(*names, parent=None):
        # outermost spans of these names (a nested call is inside its caller)
        out = []
        for s in inside:
            up = by_id.get(s[1])
            if s[2] in names and (up is None or up[2] not in names):
                if parent is None or (up is not None and up[2] == parent):
                    out.append(s)
        return out

    def total(*names, parent=None):
        return sum(s[4] - s[3] for s in named(*names, parent=parent))

    def info(spans_, key):
        return sum(s[5][key] for s in spans_)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    def layer_self(layer):
        return sum(s[4] - s[3] - covered[s[0]] for s in inside if s[2].split(".", 1)[0] == layer)

    m = {f"{layer}.self_ms": layer_self(layer) * 1e3 for layer in ("cli", "isoperimetry", "cayley", "convexity", "extremal", "grid")}

    profiles = named("isoperimetry.profile")
    small = [s[4] - s[3] for s in profiles if s[5]["order"] <= 16]
    subsets = info(profiles, "subsets")
    m["catalog.load_ms"] = total("catalog.load_catalog") * 1e3
    m["catalog.verify_self_ms"] = sum(s[4] - s[3] - covered[s[0]] for s in named("catalog.verify_catalog")) * 1e3
    m["isoperimetry.profile_s"] = total("isoperimetry.profile")
    m["isoperimetry.profile_s.order20"] = sum(s[4] - s[3] for s in profiles if s[5]["order"] == 20)
    m["isoperimetry.profile_ms.small"] = statistics.median(small) * 1e3 if small else 0.0
    m["isoperimetry.subsets"] = subsets
    m["isoperimetry.ns_per_subset"] = per(m["isoperimetry.profile_s"], subsets, 1e9)
    m["isoperimetry.digraph_ms"] = total("isoperimetry.digraph_min_boundary") * 1e3

    shifts = named("cayley.AbelianGroup.shift_table")
    m["cayley.parse_ms"] = total("cayley.AbelianGroup.parse", "cayley.ConnectionSet.from_text",
                                 "cayley.ConnectionSet.from_coords", "cayley.ConnectionSet.basis",
                                 "cayley.parse_group_line") * 1e3
    m["cayley.is_generating_ms"] = total("cayley.is_generating") * 1e3
    m["cayley.max_order_ms"] = total("cayley.max_order") * 1e3
    m["cayley.shift_table_calls"] = len(shifts)
    m["cayley.shift_table_builds"] = info(shifts, "build")

    scans = named("convexity.check_almost_convex")
    exact = [s for s in scans if s[5]["exact"]]
    floats = [s for s in scans if not s[5]["exact"]]
    sharpened = named("convexity.check_sharpened")
    means = named("convexity.check_mean_inequality")
    endpoint = named("convexity.check_endpoint_reduction")
    nested = named("convexity.check_almost_convex", parent="convexity.check_endpoint_reduction")
    m["convexity.exact_triples"] = info(exact, "triples")
    m["convexity.exact_ns_per_triple"] = per(sum(s[4] - s[3] for s in exact), info(exact, "triples"), 1e9)
    m["convexity.float_ns_per_triple"] = per(sum(s[4] - s[3] for s in floats), info(floats, "triples"), 1e9)
    m["convexity.sharpened_ns_per_triple"] = per(total("convexity.check_sharpened"), info(sharpened, "triples"), 1e9)
    m["convexity.mean_ms"] = total("convexity.check_mean_inequality") * 1e3
    m["convexity.endpoint_ms"] = (total("convexity.check_endpoint_reduction") - sum(s[4] - s[3] for s in nested)) * 1e3
    m["convexity.violations"] = info(scans, "violations") + info(sharpened, "violations") + info(means, "violations")
    m["convexity.violations_per_verdict"] = per(info(nested, "violations"), len(endpoint), 1)
    m["convexity.verdicts"] = len(endpoint)

    sups = named("extremal.estimate_sup")
    sup_s = total("extremal.estimate_sup")
    sweeps = info(sups, "sweeps")
    m["extremal.sup_s"] = sup_s
    m["extremal.sup_sweeps"] = sweeps
    m["extremal.sup_ms_per_sweep"] = per(sup_s, sweeps, 1e3)
    m["extremal.sup_ns_per_triple"] = per(sup_s, info(sups, "triples"), 1e9)
    m["extremal.majorant_calls"] = len(named("extremal.majorant"))
    m["extremal.majorant_us"] = total("extremal.majorant") * 1e6
    m["extremal.majorant_values_ms"] = total("extremal.majorant_values") * 1e3

    m["grid.write_csv_ms"] = total("grid.write_csv") * 1e3
    m["grid.csv_bytes"] = info(named("grid.write_csv"), "bytes")
    m["grid.read_csv_ms"] = total("grid.read_csv") * 1e3

    m["trace.coverage_frac"] = sum(s[4] - s[3] for s in inside if s[1] is None) / (end - start)
    m["trace.spans"] = len(inside)
    return m


def setup_metrics(spans: list[list], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of the traced set-up."""
    inside = [s for s in spans if start <= s[3] and s[4] <= end]
    inputs = [s for s in inside if s[2] in ("convexity.make_tent", "convexity.sample_concave")]
    return {"convexity.inputs_ms": sum(s[4] - s[3] for s in inputs) * 1e3}
