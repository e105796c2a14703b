"""Spans around emax's public functions, and the per-layer metrics made
from them.

`Tracer.install` runs inside a job process, after `import emax` and
before the job's call.  It wraps every public function of the layer
modules, plus `emax.cli.main`, and puts each wrapper in place of the
original under every name any `emax` module binds it to, since modules
import layer functions by name (`from .embedding import trace_faces`).
`PseudoEmbedding.__init__` is wrapped on its class; `Interval.__init__`
is only counted, because the analytic layer builds Interval objects by
the hundred thousand.  A generator function gets one span per `__next__`
call, so its span time is the time spent inside the generator.

A span is (id, parent id, name, start ns, end ns, info); `info` carries
a per-call quantity read from the arguments or the result (see INFO).
`layer_metrics` turns the spans of a workload round into the per-layer
metrics: `_s` metrics are self times, a span's time minus the time of
its child spans.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "embedding", "constructions", "surgery", "bounds", "intervals")
BUILD = "embedding.PseudoEmbedding.__init__"
INTERVALS = "intervals.Interval.__init__"


def _tail_widenings(bounds):
    start = getattr(bounds, "TAIL_BITS_START", 48)

    def info(a, k, ctx):
        return (ctx.tail_bits - min(ctx.precision_bits, start)) // 8

    return info


INFO = {
    # recurrence steps s = 3 .. s_max
    "bounds.optimal_schedule": lambda a, k, r: (
        a[1] if len(a) > 1 else k["s_max"]
    ) - 2,
    # the step map acts on 4m states
    "embedding.trace_faces": lambda a, k, r: 4 * (a[0] if a else k["E"]).m,
    # edges the completion added
    "surgery.complete_to_triangulation": lambda a, k, r: r[1],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.counts = Counter()

    def install(self) -> None:
        import emax.bounds
        import emax.cli
        import emax.embedding
        import emax.intervals

        info = dict(INFO)
        info["bounds.analytic_context"] = _tail_widenings(emax.bounds)
        targets = [(emax.cli.main, "cli.main")]
        for layer in LAYERS:
            mod = sys.modules["emax." + layer]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    targets.append((obj, f"{layer}.{attr}"))
        replace = {}
        for obj, name in targets:
            if inspect.isgeneratorfunction(obj):
                replace[id(obj)] = (obj, self._generator(name, obj))
            else:
                replace[id(obj)] = (obj, self._span(name, obj, info.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "emax" and not modname.startswith("emax."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        cls = emax.embedding.PseudoEmbedding
        cls.__init__ = self._span(BUILD, cls.__init__)
        cls = emax.intervals.Interval
        cls.__init__ = self._count(INTERVALS, cls.__init__)

    def _span(self, name, fn, info=None):
        spans, stack, ids = self.spans, self.stack, self.ids
        clock = time.perf_counter_ns

        def wrapper(*a, **k):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            r = None
            t0 = clock()
            try:
                r = fn(*a, **k)
                return r
            finally:
                t1 = clock()
                stack.pop()
                extra = info(a, k, r) if info is not None and r is not None else 0
                spans.append((sid, parent, name, t0, t1, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name, fn):
        def wrapper(*a, **k):
            return self._steps(name, fn(*a, **k))

        wrapper.__wrapped__ = fn
        return wrapper

    def _steps(self, name, it):
        spans, stack, ids = self.spans, self.stack, self.ids
        clock = time.perf_counter_ns
        while True:
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, 0))
            yield item

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*a, **k):
            counts[name] += 1
            return fn(*a, **k)

        return wrapper

    def dump(self, path: str, job: int) -> None:
        """Append this job's spans to the run's trace file, one JSON array
        [job, id, parent, name, start_ns, end_ns, info] per line."""
        with open(path, "a", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps((job,) + sp) + "\n")


# Per-layer metrics: name -> (kind, span names).  "self" sums the self
# time of the named spans, "calls" counts them, "info" sums their info
# field, "count" reads a counter, "derived" is computed in layer_metrics.
METRICS = {
    "bounds.optimal_schedule_s": ("self", ["bounds.optimal_schedule"]),
    "bounds.optimal_schedule_calls": ("calls", ["bounds.optimal_schedule"]),
    "bounds.recurrence_steps": ("info", ["bounds.optimal_schedule"]),
    "bounds.analytic_upper_bound_s": ("self", ["bounds.analytic_upper_bound"]),
    "bounds.analytic_context_s": ("self", ["bounds.analytic_context"]),
    "bounds.analytic_context_calls": ("calls", ["bounds.analytic_context"]),
    "bounds.tail_widenings": ("info", ["bounds.analytic_context"]),
    "bounds.claim1_consistency_s": ("self", ["bounds.claim1_consistency"]),
    "intervals.alpha7_interval_s": ("self", ["intervals.alpha7_interval"]),
    "intervals.ln2_interval_s": ("self", ["intervals.ln2_interval"]),
    "intervals.interval_objects": ("count", [INTERVALS]),
    "embedding.trace_faces_s": ("self", ["embedding.trace_faces"]),
    "embedding.trace_faces_calls": ("calls", ["embedding.trace_faces"]),
    "embedding.states_traced": ("info", ["embedding.trace_faces"]),
    "embedding.scheme_builds": ("calls", [BUILD]),
    "embedding.scheme_build_s": ("self", [BUILD]),
    "embedding.orientability_s": ("self", ["embedding.orientability"]),
    "embedding.json_s": ("self", [
        "embedding.scheme_from_json",
        "embedding.scheme_from_dict",
        "embedding.scheme_to_dict",
        "embedding.scheme_to_json",
    ]),
    "constructions.paste_block_s": ("self", ["constructions.paste_block"]),
    "constructions.paste_block_calls": ("calls", ["constructions.paste_block"]),
    "constructions.paste_candidates": ("derived", ["constructions.paste_block"]),
    "constructions.paste_yield": ("derived", ["constructions.paste_block"]),
    "constructions.enumerate_s": ("self", ["constructions.enumerate_small_schemes"]),
    "constructions.regenerate_k8_c5_fixture_s": (
        "self", ["constructions.regenerate_k8_c5_fixture"]),
    "surgery.chord_faces_s": ("self", ["surgery.chord_faces"]),
    "surgery.insert_apexes_s": ("self", ["surgery.insert_apexes"]),
    "surgery.bipartite_extract_s": ("self", ["surgery.bipartite_extract"]),
    "surgery.complete_to_triangulation_s": (
        "self", ["surgery.complete_to_triangulation"]),
    "surgery.traces_per_added_edge": (
        "derived", ["surgery.complete_to_triangulation"]),
    "surgery.find_ordered_sequence_s": ("self", ["surgery.find_ordered_sequence"]),
    "graphs.parse_edge_list_s": ("self", ["graphs.parse_edge_list"]),
    "cli.main_self_s": ("self", ["cli.main"]),
}


def unit_of(metric: str) -> str:
    kind = METRICS[metric][0]
    if kind == "self":
        return "s"
    if metric in ("constructions.paste_yield", "surgery.traces_per_added_edge"):
        return "ratio"
    return "count"


def layer_metrics(spans, counts) -> tuple:
    """(metric values, call count per span name) for one round.

    spans: (job, id, parent, name, start_ns, end_ns, info) tuples;
    counts: summed counters of the round's jobs.
    """
    child_ns = defaultdict(int)
    name_of = {}
    parent_of = {}
    for job, sid, parent, name, t0, t1, _ in spans:
        name_of[job, sid] = name
        parent_of[job, sid] = parent
        if parent:
            child_ns[job, parent] += t1 - t0
    self_ns = Counter()
    calls = Counter()
    info = Counter()
    candidates = 0
    traces_in_completion = 0
    for job, sid, parent, name, t0, t1, extra in spans:
        self_ns[name] += t1 - t0 - child_ns[job, sid]
        calls[name] += 1
        info[name] += extra
        if name == BUILD and name_of.get((job, parent)) == "constructions.paste_block":
            candidates += 1
        elif name == "embedding.trace_faces":
            up = parent
            while up:
                if name_of[job, up] == "surgery.complete_to_triangulation":
                    traces_in_completion += 1
                    break
                up = parent_of[job, up]
    for name, n in counts.items():
        calls[name] += n
    out = {}
    for metric, (kind, names) in METRICS.items():
        if kind == "self":
            out[metric] = sum(self_ns[n] for n in names) / 1e9
        elif kind in ("calls", "count"):
            out[metric] = sum(calls[n] for n in names)
        elif kind == "info":
            out[metric] = sum(info[n] for n in names)
    out["constructions.paste_candidates"] = candidates
    pastes = calls["constructions.paste_block"]
    out["constructions.paste_yield"] = pastes / candidates if candidates else 0.0
    added = info["surgery.complete_to_triangulation"]
    out["surgery.traces_per_added_edge"] = (
        traces_in_completion / added if added else 0.0
    )
    return out, calls
