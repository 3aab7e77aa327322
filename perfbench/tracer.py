"""Span tracer for the crepant layers, installed from outside the package.

``instrument`` wraps the public functions of every layer module, in the
module that defines them and in every ``crepant`` module that imported them
by name, so each call records a span (name, start, end, parent, op id).
A few layer-specific hooks count work at the same boundaries.  Spans stay
in memory; ``Tracer.dump`` returns them for writing at exit.

The package attribute ``crepant.vertex`` is the function, not the module,
so modules are always taken from ``sys.modules`` via ``importlib``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "quiver", "mckay", "roots", "toric", "series", "crystal",
          "reps", "vertex", "geometry", "compare")

# private functions that get a span of their own, under the given name
EXTRA_SPANS = {("vertex", "_glue"): "vertex.glue"}
# classes whose methods are their layer's work: each public method, the
# constructor and the arithmetic operators get a span
CLASS_SPANS = {("series", "FormalSeries")}
CLASS_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__")
# public O(1) helpers called from inside their own layer: a span per call
# (over 200k per local P2 degree-6 op) would double the traced run's time
# and change nothing in the per-layer sums
UNTRACED = {("vertex", "psize")}


class Tracer:
    """In-memory spans and work counters for one process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.op = 0
        self.cache_source = None         # the lru_cache behind vertex_raw

    def add(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float):
        end = perf_counter()
        self.stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def wrap(self, name: str, fn, hook=None):
        """A span-recording stand-in for ``fn``; generators get one span per
        resumption, so their work lands in their own layer."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.add(name + ".calls")
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, start)
                    tracer.add(name + ".items")
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.add(name + ".calls")
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# ---------------------------------------------------------------------------
# layer hooks: work counters measured where the work happens

def _hook_is_semistable(tracer, args, kwargs, result):
    rep = args[0] if args else kwargs["rep"]
    tracer.add("reps.modules")
    tracer.maximum("reps.basis_max", len(rep.vertex_of))
    if result.classification == "unstable":
        tracer.add("reps.unstable")


def _hook_gw(tracer, args, kwargs, result):
    asked = kwargs.get("t_cutoff", args[2] if len(args) > 2 else 20)
    reached = result.min_cutoff()
    if reached is not None:
        tracer.add("vertex.t_overshoot", reached - asked)


def _hook_verify(tracer, args, kwargs, result):
    for identity in result.identities:
        tracer.add("geometry.points", identity.trials)
        if identity.status != "holds":
            tracer.add("geometry.failed_identities")


HOOKS = {
    "reps.is_semistable": _hook_is_semistable,
    "vertex.gw_partition_function": _hook_gw,
    "geometry.verify_transition": _hook_verify,
    "geometry.verify_contraction": _hook_verify,
    "geometry.verify_equivariance": _hook_verify,
}


def _is_function(obj, modname: str) -> bool:
    if inspect.isclass(obj) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == modname and \
        (inspect.isfunction(obj) or hasattr(obj, "cache_info"))


def instrument(tracer: Tracer):
    """Wrap every layer's public functions wherever they are bound by name.

    Returns a function that puts the original functions back."""
    modules = {layer: importlib.import_module("crepant." + layer)
               for layer in LAYERS}
    tracer.cache_source = modules["vertex"].vertex_raw
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "crepant"
                                        or name.startswith("crepant."))]
    replacements = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            span = EXTRA_SPANS.get((layer, attr))
            if span is None and (attr.startswith("_") or (layer, attr) in UNTRACED
                                 or not _is_function(obj, mod.__name__)):
                continue
            name = span or f"{layer}.{attr}"
            replacements[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, obj))

    for layer, name in CLASS_SPANS:
        cls = getattr(modules[layer], name)
        for attr, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and (not attr.startswith("_")
                                           or attr in CLASS_DUNDERS):
                setattr(cls, attr, tracer.wrap(f"{layer}.{name}.{attr}", fn))
                undo.append((cls, attr, fn))

    series_cls = modules["vertex"].TSeries
    mul = series_cls.__mul__

    def counted_mul(self, other):
        tracer.add("vertex.tseries_mul_calls")
        return mul(self, other)
    series_cls.__mul__ = counted_mul
    undo.append((series_cls, "__mul__", mul))

    def restore():
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)
    return restore


def finish(tracer: Tracer) -> None:
    """Fold end-of-op state (the vertex cache statistics) into counters."""
    if tracer.cache_source is not None:
        info = tracer.cache_source.cache_info()
        tracer.add("vertex.cache_hits", info.hits)
        tracer.add("vertex.cache_misses", info.misses)


# ---------------------------------------------------------------------------
# aggregation: per-layer self times and work counters over traced ops

def self_times(spans) -> dict[str, float]:
    """Self time by span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the given ``Tracer.dump`` records."""
    selfs: dict[str, float] = {}
    counts: dict[str, float] = {}
    modules = []
    for dump in dumps:
        for name, value in self_times(dump["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + value
        for key, value in dump["counters"].items():
            if key == "reps.basis_max":
                counts[key] = max(counts.get(key, 0), value)
            elif key == "import.modules_loaded":
                modules.append(value)
            else:
                counts[key] = counts.get(key, 0) + value
    out = {}
    for layer in ("import",) + LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                     if k.split(".")[0] == layer)
        out[f"{layer}.calls"] = sum(v for k, v in counts.items()
                                    if k.split(".")[0] == layer
                                    and k.endswith(".calls"))
    out["import.modules_loaded"] = max(modules, default=0)
    out["crystal.ideals"] = counts.get("crystal.configurations.items", 0)
    out["crystal.ideals_per_s"] = _ratio(out["crystal.ideals"],
                                         out["crystal.self_s"])
    out["reps.modules"] = counts.get("reps.modules", 0)
    out["reps.modules_per_s"] = _ratio(out["reps.modules"], out["reps.self_s"])
    out["reps.basis_max"] = counts.get("reps.basis_max", 0)
    out["reps.unstable_share"] = _ratio(counts.get("reps.unstable", 0),
                                        out["reps.modules"])
    out["vertex.glue.self_s"] = selfs.get("vertex.glue", 0.0)
    out["vertex.glue.calls"] = counts.get("vertex.glue.calls", 0)
    out["vertex.gv.self_s"] = selfs.get("vertex.gv_extract", 0.0)
    out["vertex.tseries_mul_calls"] = counts.get("vertex.tseries_mul_calls", 0)
    out["vertex.vertex_calls"] = counts.get("vertex.vertex.calls", 0)
    lookups = counts.get("vertex.cache_hits", 0) + counts.get("vertex.cache_misses", 0)
    out["vertex.cache_lookups"] = lookups
    out["vertex.cache_hit_ratio"] = _ratio(counts.get("vertex.cache_hits", 0),
                                           lookups)
    out["vertex.t_overshoot"] = counts.get("vertex.t_overshoot", 0)
    out["geometry.points"] = counts.get("geometry.points", 0)
    out["geometry.points_per_s"] = _ratio(out["geometry.points"],
                                          out["geometry.self_s"])
    out["geometry.failed_identities"] = counts.get("geometry.failed_identities", 0)
    return out
