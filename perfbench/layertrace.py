"""Per-layer counters and self-time spans, installed only for a traced run.

install() replaces the public functions of each layer module, the methods of
the classes they define, and a few internals named below, with wrappers.
A call from one layer into another opens a span; calls within the layer the
innermost span belongs to are only counted.  A layer's busy time is the
length of its outermost spans, its self time is span length minus the child
spans of other layers, and its errors are exceptions that leave a span.
Names that one module imported from another (hilbert's xvar, for one) are
pointed at the wrappers too.  Cache statistics are read from cache_info()
and hilbert._K_CACHE when the report is made, so install() expects empty
caches.  Nothing in src/ is edited.

Not counted: dunder methods outside WORK_DUNDERS (hashing, repr, ordering),
and functions a module binds under another name or keeps in a container.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from time import perf_counter

import schubert
from schubert import bruhatlab, hilbert, poly

LAYERS = ("perm", "poly", "pipedream", "ideal", "grobner", "hilbert", "subword", "bruhatlab")

# dunder methods that do a layer's work (other dunders are bookkeeping)
WORK_DUNDERS = {
    "__init__", "__eq__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__post_init__"
}

# metric -> wrapped functions whose calls it counts
CALLS = {
    "grobner.spairs": ("grobner.mono_coprime",),
    "grobner.reductions": ("grobner.top_reduce",),
    "grobner.initial_term_calls": ("grobner.initial_term",),
    "poly.mul_calls": ("poly.LaurentPoly.__mul__", "poly.LaurentPoly.__rmul__"),
    "poly.dd_calls": ("poly.divided_difference",),
    "hilbert.k_nodes": ("hilbert._k_of_gens",),
    "pipedream.mitosis_calls": ("pipedream.mitosis",),
    "bruhatlab.arrays_built": ("bruhatlab.ExponentArray.__post_init__",),
    "bruhatlab.intron_mutations": ("bruhatlab.intron_mutation_at",),
    "bruhatlab.standard_tests": ("bruhatlab.standard_test",),
}


def _terms_multiplied(args, result) -> int:
    a, b = args
    return len(a.terms) * (len(b.terms) if isinstance(b, poly.LaurentPoly) else 1)


def _size(args, result) -> int:
    return len(result)


# (metric, wrapped function, amount its result adds); a metric may repeat
SIZES = (
    ("grobner.spairs_coprime", "grobner.mono_coprime", lambda args, r: int(r)),
    ("poly.terms_multiplied", "poly.LaurentPoly.__mul__", _terms_multiplied),
    ("poly.terms_multiplied", "poly.LaurentPoly.__rmul__", _terms_multiplied),
    *(
        ("poly.top_terms", f"poly.{top}_top", lambda args, r: len(r.terms))
        for top in ("schubert", "double_schubert", "grothendieck", "double_grothendieck")
    ),
    ("ideal.minors", "ideal.schubert_generators", _size),
    ("ideal.jw_generators", "ideal.antidiagonal_ideal", lambda args, r: len(r.generators)),
    ("ideal.facets", "ideal.stanley_reisner_facets", _size),
    ("pipedream.dreams", "pipedream.rp_mitosis", _size),
    ("subword.facets", "subword.subword_complex", lambda args, r: len(r.facets)),
)

# metric -> (wrapped function counted, function that must be running)
SCOPED = {
    "grobner.reduction_steps": ("grobner.poly_term_mul", "grobner.top_reduce"),
    "subword.search_steps": ("perm.apply_right_transposition", "subword.subword_complex"),
}


def _cache_stats(module) -> tuple[int, int, int]:
    hits = misses = entries = 0
    for value in vars(module).values():
        if hasattr(value, "cache_info"):
            info = value.cache_info()
            hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    return hits, misses, entries


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.errors: Counter = Counter()
        self.depth: Counter = Counter()
        self.running: Counter = Counter()
        self.stack: list = []  # open spans as [layer, child seconds]

    # -- wrapping -------------------------------------------------------------

    def _hooks(self, qualname: str) -> list:
        hooks = [(metric, amount) for metric, target, amount in SIZES if target == qualname]
        for metric, (counted, within) in SCOPED.items():
            if counted == qualname:
                hooks.append((metric, lambda args, r, within=within: int(self.running[within] > 0)))
        return hooks

    def _scope(self, qualname: str, fn):
        running = self.running

        def scoped(*args, **kwargs):
            running[qualname] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                running[qualname] -= 1

        return scoped

    def wrap(self, layer: str, qualname: str, fn):
        calls, stack, span, sizes = self.calls, self.stack, self._span, self.sizes
        hooks = self._hooks(qualname)
        call = self._scope(qualname, fn) if any(w == qualname for _, w in SCOPED.values()) else fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if stack and stack[-1][0] == layer:
                result = call(*args, **kwargs)
            else:
                result = span(layer, call, args, kwargs)
            for metric, amount in hooks:
                sizes[metric] += amount(args, result)
            return result

        return traced

    def _span(self, layer: str, fn, args, kwargs):
        frame = [layer, 0.0]
        self.stack.append(frame)
        self.depth[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self.depth[layer] -= 1
            self.self_time[layer] += dur - frame[1]
            if not self.depth[layer]:
                self.busy[layer] += dur
            if self.stack:
                self.stack[-1][1] += dur

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name not in WORK_DUNDERS:
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(value, types.FunctionType):
                setattr(cls, name, self.wrap(layer, qualname, value))
            elif isinstance(value, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, qualname, value.__func__)))

    def install(self) -> None:
        wrapped = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = getattr(schubert, layer)
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value)
                elif callable(value) and (not name.startswith("_") or name == "_k_of_gens"):
                    wrapped[id(value)] = self.wrap(layer, f"{layer}.{name}", value)
                    setattr(module, name, wrapped[id(value)])
        for module in [getattr(schubert, layer) for layer in LAYERS] + [schubert.checks]:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, name, wrapped[id(value)])
        # the cached families bind their top and step functions in a closure
        for value in vars(poly).values():
            inner = getattr(value, "__wrapped__", None)
            if inner is not None and inner.__closure__:
                for cell in inner.__closure__:
                    fn = cell.cell_contents
                    if isinstance(fn, types.FunctionType) and fn.__module__ == poly.__name__:
                        cell.cell_contents = getattr(poly, fn.__name__)

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(c for q, c in self.calls.items() if q.split(".")[0] == layer)
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for metric, names in CALLS.items():
            out[metric] = sum(self.calls[q] for q in names)
        for metric in [m for m, _, _ in SIZES] + list(SCOPED):
            out[metric] = self.sizes[metric]
        # each K-cache miss adds one entry
        out["hilbert.k_cache_entries"] = len(hilbert._K_CACHE)
        out["hilbert.k_cache_hits"] = out["hilbert.k_nodes"] - len(hilbert._K_CACHE)
        hits, misses, entries = _cache_stats(poly)
        out["poly.family_cache_hits"] = hits
        out["poly.family_cache_misses"] = misses
        out["poly.family_cache_entries"] = entries
        hits, misses, _ = _cache_stats(bruhatlab)
        out["bruhatlab.support_cache_hits"] = hits
        out["bruhatlab.support_cache_misses"] = misses
        return out
