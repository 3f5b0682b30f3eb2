"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install()`` replaces, in every loaded ``cactus_partition`` module,
each reference to a traced function with a wrapper that records a span,
and wraps the ``combine`` / ``union_configs`` methods of every algebra to
count work.  ``uninstall()`` puts the originals back.  No file of the
package changes.

A span is ``[request, id, parent, name, start, end, counts]``.  State
sizes are counted after the request finishes (``end_request``), outside
every span, so the counting does not inflate any layer's time.  Nothing
queues or runs concurrently, so no layer has a wait time to record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from workloads import KINDS

ALGEBRAS = {
    "MaskAlgebra": "mask",
    "TupleAlgebra": "tuple",
    "IntervalAlgebra": "interval",
    "CostAlgebra": "cost",
    "SizeWeightAlgebra": "sizeweight",
    "CapacityAlgebra": "capacity",
}

# (module, function, span name); reconstruct is named by its engine
FUNCTIONS = (
    ("graph_model", "validate_cactus", "graph_model.validate"),
    ("graph_model", "canonicalize_partition", "graph_model.canonicalize"),
    ("tree_rep", "build_tree", "tree_rep.build_tree"),
    ("dp_core", "decide_p_partition", "dp_core.decide"),
    ("interval_dp", "decide_p_partition_poly", "interval_dp.decide"),
    ("backtrack", "annotate", "backtrack.annotate"),
    ("backtrack", "reconstruct", "backtrack.reconstruct"),
    ("backtrack", "collect_cuts", "backtrack.collect_cuts"),
    ("variants", "min_partition", "variants.min"),
    ("variants", "max_partition", "variants.max"),
    ("variants", "min_cost_partition", "variants.min_cost"),
    ("variants", "minmax_partition", "variants.minmax"),
    ("variants", "maxmin_partition", "variants.maxmin"),
    ("variants", "capacity_partition", "variants.capacity"),
)
ALGEBRA_HOMES = {
    "MaskAlgebra": "dp_core",
    "TupleAlgebra": "dp_core",
    "IntervalAlgebra": "interval_dp",
    "CostAlgebra": "variants",
    "SizeWeightAlgebra": "variants",
    "CapacityAlgebra": "variants",
}

REQ, SID, PARENT, NAME, START, END, COUNTS = range(7)


def cells(state, alg: str) -> int:
    """Size of one state: set bits of masks, interval entries, dict keys."""
    if alg == "mask":
        return sum(mask.bit_count() for mask in state.values())
    if alg == "interval":
        return sum(len(entries) for entries in state.values())
    return len(state)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._pending: list[tuple] = []
        self._saved: list[tuple] = []
        self.request = None
        self.requests = 0

    # -- spans --------------------------------------------------------------

    def begin(self, name, counts=None):
        parent = self._stack[-1][SID] if self._stack else None
        span = [self.request, len(self.spans), parent, name, time.perf_counter(), None, counts]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def start_request(self, kind):
        self.request = self.requests
        self.requests += 1
        return self.begin("request", {"kind": kind})

    def end_request(self, span):
        self.end(span)
        self.count_states()
        self.request = None

    def count_states(self):
        """Fill in the state sizes of the runs recorded since the last call."""
        for counts, alg, payload in self._pending:
            if isinstance(payload, dict):  # every partial state of one run
                sizes = [cells(s, alg) for s in payload.values()]
                counts["cells"] = sum(sizes)
                counts["max_cells"] = max(sizes, default=0)
            else:  # one union_configs call: (input states, output state)
                inputs, output = payload
                counts["cfg_in"] = counts.get("cfg_in", 0) + sum(cells(s, alg) for s in inputs)
                counts["cfg_out"] = counts.get("cfg_out", 0) + cells(output, alg)
        self._pending.clear()

    # -- wrappers -----------------------------------------------------------

    def _function(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "backtrack.reconstruct":
                span_name = f"{name}.{args[0].algorithm}"
            span = self.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def _run_tree_dp(self, fn):
        @functools.wraps(fn)
        def wrapper(tree, alg, *args, **kwargs):
            counts = {"combines": 0, "cycle_combines": 0}
            bound = getattr(alg, "bound", None)
            if bound is not None:
                counts["bound"] = bound
            name = ALGEBRAS[type(alg).__name__]
            span = self.begin("dp_core." + name, counts)
            try:
                states = fn(tree, alg, *args, **kwargs)
            finally:
                self.end(span)
            self._pending.append((counts, name, states))
            return states

        return wrapper

    def _combine(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(alg, a, b, edge, step):
            counts = stack[-1][COUNTS]
            counts["combines"] += 1
            if step is not None:
                counts["cycle_combines"] += 1
            return fn(alg, a, b, edge, step)

        return wrapper

    def _union_configs(self, fn):
        @functools.wraps(fn)
        def wrapper(alg, configs, cycle):
            out = fn(alg, configs, cycle)
            inputs = [state for _j, _step, state in configs]
            counts = self._stack[-1][COUNTS]
            self._pending.append((counts, ALGEBRAS[type(alg).__name__], (inputs, out)))
            return out

        return wrapper

    def install(self):
        """Wrap every traced function and algebra method of the package."""
        home = {m: importlib.import_module(f"cactus_partition.{m}") for m in
                {"graph_model", "tree_rep", "dp_core", "interval_dp", "backtrack", "variants"}}
        replace = {}
        for module, attr, name in FUNCTIONS:
            fn = getattr(home[module], attr)
            replace[id(fn)] = (fn, self._function(fn, name))
        fn = home["dp_core"].run_tree_dp
        replace[id(fn)] = (fn, self._run_tree_dp(fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cactus_partition" and not mod_name.startswith("cactus_partition."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls_name, mod_name in ALGEBRA_HOMES.items():
            cls = getattr(home[mod_name], cls_name)
            for method, make in (("combine", self._combine), ("union_configs", self._union_configs)):
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, make(original))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans):
    """Span duration minus the time its child spans cover, per span id."""
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


LAYER_SPANS = {
    "graph_model.validate", "graph_model.canonicalize", "tree_rep.build_tree",
    "dp_core.decide", "interval_dp.decide", "backtrack.annotate",
    "backtrack.reconstruct.tupleset", "backtrack.reconstruct.interval",
    "backtrack.collect_cuts", "cli.main",
}


def layer_of(name: str):
    """The ``.ms`` metric that reports a span's self time, or None."""
    if name.startswith("variants."):
        return "variants.ms"
    if name in LAYER_SPANS or name.startswith("dp_core."):
        return f"{name}.ms"
    return None


def layer_metrics(spans, requests: int) -> tuple[dict, set]:
    """Per-layer numbers from the spans of ``requests`` traced requests.

    Returns the metrics and the names of those that do not apply to these
    requests: layers no request ran, and ratios with nothing to divide.
    Their value is 0.  Times and counts are per request of the whole
    workload; ``api.K.ms`` is the mean traced latency of requests of kind
    K; ``max_cells`` is the largest single state seen.
    """
    own = self_times(spans)
    by_id = {s[SID]: s for s in spans}
    ms = {}  # .ms metric -> seconds of self time; absent if no span reported to it
    calls = defaultdict(int)
    dp = defaultdict(lambda: defaultdict(int))
    api = defaultdict(list)
    variant_runs = defaultdict(int)
    variant_bounds = defaultdict(set)
    request_time = covered = 0.0
    for s in spans:
        name = s[NAME]
        if name == "request":
            dur = s[END] - s[START]
            api[s[COUNTS]["kind"]].append(dur)
            request_time += dur
            continue
        layer = layer_of(name)
        if layer is not None:
            ms[layer] = ms.get(layer, 0.0) + own[s[SID]]
            covered += own[s[SID]]
        calls[name] += 1
        if name.startswith("dp_core.") and s[COUNTS] is not None:
            agg = dp[name]
            agg["runs"] += 1
            for key in ("combines", "cycle_combines", "cells", "cfg_in", "cfg_out"):
                agg[key] += s[COUNTS].get(key, 0)
            agg["max_cells"] = max(agg["max_cells"], s[COUNTS].get("max_cells", 0))
            up = by_id.get(s[PARENT])
            while up is not None and up[NAME] not in ("variants.minmax", "variants.maxmin"):
                up = by_id.get(up[PARENT])
            if up is not None:
                variant_runs[up[NAME]] += 1
                variant_bounds[(up[REQ], up[SID])].add(s[COUNTS].get("bound"))

    per = 1.0 / max(requests, 1)
    out, na = {}, set()

    def put(metric, value, applies):
        out[metric] = value if applies else 0.0
        if not applies:
            na.add(metric)

    for name in sorted(LAYER_SPANS - {"cli.main"}) + ["variants"]:
        put(f"{name}.ms", ms.get(f"{name}.ms", 0.0) * 1e3 * per, f"{name}.ms" in ms)
    for name in ("graph_model.canonicalize", "tree_rep.build_tree"):
        put(f"{name}.calls", calls[name] * per, calls[name] > 0)
    for alg in ALGEBRAS.values():
        name = f"dp_core.{alg}"
        agg = dp[name]
        ran, cycles = agg["runs"] > 0, agg["cfg_in"] > 0
        put(f"{name}.ms", ms.get(f"{name}.ms", 0.0) * 1e3 * per, ran)
        for key in ("runs", "combines", "cells"):
            put(f"{name}.{key}", agg[key] * per, ran)
        put(f"{name}.max_cells", agg["max_cells"], ran)
        # without a cycle the cycle branch and union_configs never run
        put(f"{name}.cycle_combines", agg["cycle_combines"] * per, cycles)
        put(f"{name}.config_yield", agg["cfg_out"] / agg["cfg_in"] if cycles else 0.0, cycles)
    for v in ("minmax", "maxmin"):
        n = calls[f"variants.{v}"]
        put(f"variants.{v}.dp_runs", variant_runs[f"variants.{v}"] / n if n else 0.0, n > 0)
    runs = sum(variant_runs.values())
    probes = sum(len(b) for b in variant_bounds.values())
    put("variants.probe_yield", probes / runs if runs else 0.0, runs > 0)
    for kind in KINDS:
        durs = api.get(kind, [])
        put(f"api.{kind}.ms", sum(durs) / len(durs) * 1e3 if durs else 0.0, bool(durs))
    put("cli.main.ms", ms.get("cli.main.ms", 0.0) * 1e3 * per, "cli.main.ms" in ms)
    # time inside spans of reported layers; glue outside every wrapped call lowers it
    out["trace.coverage"] = covered / request_time if request_time else 0.0
    return out, na
