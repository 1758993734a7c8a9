"""Per-layer spans recorded from outside the crossfam package.

``Tracer.install`` wraps each public function named in ``LAYERS`` and
rebinds the wrapper in its defining module and in every loaded crossfam
module that from-imported it; ``Tracer.uninstall`` puts every original
binding back. Spans are kept in memory as (layer, start, end, parent,
instance, value) records and summarised or written out after the run.
Wrappers record only while ``Tracer.instance`` is set, so correctness
checks made between instances stay out of the trace.

The segment relations named in ``COUNTED`` are wrapped without spans: each
call adds one to the value of the innermost open span whose layer counts
``RELATION_CALLS``, so the soundness checks report the pairs they checked.
"""

from __future__ import annotations

import functools
import json
import sys
from math import comb
from time import perf_counter


def _pairs_of_sides(args, kwargs, result, exc):
    return comb(len(args[0]), 2) + comb(len(args[1]), 2)


# Value of a layer whose calls count the segment relation calls made
# inside them, instead of computing a value from arguments and result.
RELATION_CALLS = "relation calls"
COUNTED = (("geom", "segments_cross"), ("geom", "segments_avoiding"))

# (module, function, layer, value of one call or None). ``REPORTED`` below
# names what each layer's values add up to.
LAYERS = (
    ("formats", "parse_graph_file", "formats.parse_graph_file", None),
    ("geom", "general_position_check", "geom.general_position_check", None),
    ("crossing", "find_crossing_family", "crossing.find_family", None),
    ("crossing", "find_avoiding_family", "crossing.find_family", None),
    ("clusters", "find_avoiding_dense_pair", "clusters.find_avoiding_dense_pair",
     lambda a, kw, r, e: r is not None),
    ("zones", "build_zone_lines", "zones.build_zone_lines",
     lambda a, kw, r, e: len(r.lines) if e is None else 0),
    ("clusters", "build_clusters", "clusters.build_clusters",
     lambda a, kw, r, e: len(r.clusters) if e is None else 0),
    ("poset", "iota_sum_capped", "poset.iota_sum_capped",
     lambda a, kw, r, e: e is None and r is not None),
    ("geom", "convex_hull", "geom.convex_hull", None),
    ("poset", "build_pair_poset", "poset.build_pair_poset", _pairs_of_sides),
    ("crossing", "match_avoiding_pair", "crossing.match_avoiding_pair", None),
    ("crossing", "crossing_family_from_pair", "crossing.crossing_family_from_pair",
     lambda a, kw, r, e: len(r) if e is None and r is not None else 0),
    ("crossing", "split_pair", "crossing.split_pair", lambda a, kw, r, e: e is None),
    ("poset", "interval_chains", "poset.interval_chains", lambda a, kw, r, e: e is not None),
    ("poset", "longest_chain", "poset.longest_chain", None),
    ("crossing", "make_family", "crossing.make_family", RELATION_CALLS),
    ("oracle", "verify_family", "oracle.verify_family", RELATION_CALLS),
    ("formats", "render_result_file", "formats.render_result_file", None),
)

INSTANCE = "bench.instance"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._counting: list | None = None  # span that relation calls add to
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> list:
        rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def run_instance(self, instance: int, fn, *args):
        """Call ``fn(*args)`` under a root span for one instance."""
        self.instance = instance
        rec = self._open(INSTANCE)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.instance = None

    def _wrap(self, fn, layer: str, value):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            rec = self._open(layer)
            outer = self._counting
            if value is RELATION_CALLS:
                self._counting = rec
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(rec)
                self._counting = outer
                if callable(value):
                    rec[5] = int(value(args, kwargs, result, exc))

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._counting is not None:
                self._counting[5] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every layer function wherever a crossfam module holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "crossfam" or name.startswith("crossfam."))]
        wrappers = [(mod_name, func_name, lambda f, a=layer, v=value: self._wrap(f, a, v))
                    for mod_name, func_name, layer, value in LAYERS]
        wrappers += [(mod_name, func_name, self._count) for mod_name, func_name in COUNTED]
        for mod_name, func_name, wrap in wrappers:
            original = getattr(sys.modules[f"crossfam.{mod_name}"], func_name)
            wrapper = wrap(original)
            for mod in modules:
                for attr, bound in list(vars(mod).items()):
                    if bound is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, instance, value in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end,
                                     "parent": parent, "instance": instance,
                                     "value": value}) + "\n")


def _layer_totals(spans) -> dict[str, dict[str, float]]:
    """Inclusive seconds, self seconds, calls and value sums per layer.

    Inclusive time counts only the outermost span of a layer, so a layer
    nested in itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (layer, start, end, parent, _, value) in enumerate(spans):
        t = out.setdefault(layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "value": 0})
        dur = end - start
        t["self_s"] += dur - child_time[idx]
        t["calls"] += 1
        t["value"] += value
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            t["s"] += dur
    return out


# Metrics printed per layer. Besides s, self_s and calls, a suffix names the
# sum of the layer's values; a ``_ratio`` suffix is that sum over ``calls``.
REPORTED = {
    "formats.parse_graph_file": ("s",),
    "geom.general_position_check": ("s", "calls"),
    "crossing.find_family": ("s", "self_s", "calls"),
    "clusters.find_avoiding_dense_pair": ("s", "self_s", "calls", "hit_ratio"),
    "zones.build_zone_lines": ("s", "calls", "lines"),
    "clusters.build_clusters": ("s", "calls", "clusters"),
    "poset.iota_sum_capped": ("s", "self_s", "calls", "accept_ratio"),
    "geom.convex_hull": ("s", "calls"),
    "poset.build_pair_poset": ("s", "self_s", "calls", "pairs"),
    "crossing.match_avoiding_pair": ("s", "self_s", "calls"),
    "crossing.crossing_family_from_pair": ("s", "self_s", "calls", "segments"),
    "crossing.split_pair": ("s", "self_s", "calls", "ok_ratio"),
    "poset.interval_chains": ("s", "calls", "fail_ratio"),
    "poset.longest_chain": ("s", "calls"),
    "crossing.make_family": ("s", "calls", "pairs"),
    "oracle.verify_family": ("s", "pairs"),
}


def metric_names() -> list[str]:
    return [f"{layer}.{suffix}" for layer, suffixes in REPORTED.items() for suffix in suffixes]


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics for one pass over the batch: totals over ``passes``
    traced passes, divided by ``passes``. Ratios are taken over all calls.

    ``trace.layers_self_s`` sums the layers' self times and
    ``trace.unattributed_s`` is the rest of the traced run time."""
    totals = _layer_totals(spans)
    out: dict[str, float] = {}
    for layer, suffixes in REPORTED.items():
        t = totals.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "value": 0})
        for suffix in suffixes:
            if suffix.endswith("_ratio"):
                out[f"{layer}.{suffix}"] = t["value"] / t["calls"] if t["calls"] else 0.0
            elif suffix in ("s", "self_s", "calls"):
                out[f"{layer}.{suffix}"] = t[suffix] / passes
            else:
                out[f"{layer}.{suffix}"] = t["value"] / passes
    # The root span's own time is what no traced layer covers.
    root = totals.get(INSTANCE, {"self_s": 0.0})
    out["trace.unattributed_s"] = root["self_s"] / passes
    out["trace.layers_self_s"] = sum(t["self_s"] for layer, t in totals.items()
                                     if layer != INSTANCE) / passes
    return out
