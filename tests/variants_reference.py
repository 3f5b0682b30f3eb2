"""The optimisation variants' dict algebras as they were before their
combines stopped building a record for every candidate.

Kept verbatim as the reference for ``cactus_partition.variants``:
``CostAlgebra``, ``SizeWeightAlgebra`` and ``CapacityAlgebra`` here build
the ``("step", ...)`` record of every candidate pair and let ``_put``
decide whether to keep it, and ``CapacityAlgebra`` marks a cycle tuple
with no phase yet by ``None``, which ``_key_order`` sorts as -1.  The
tests run both versions over the same trees and require the same states,
in the same key order, and the same witnesses.
"""

from __future__ import annotations


def _key_order(key):
    return tuple(-1 if part is None else part for part in key)


def _sorted_items(state):
    return sorted(state.items(), key=lambda kv: _key_order(kv[0]))


class CostAlgebra:
    """Tuples ``(cluster weight, count) -> (cost, record)``.

    Inside cycles the key grows a flag telling whether the cycle has been
    cut; with ``reduce_sets`` off every distinct cost survives as its own
    key (used by tests to confirm the reduction never changes optima).
    """

    def __init__(self, graph, lower, upper, count_cap, reduce_sets=True):
        self.graph = graph
        self.lower = lower
        self.upper = upper
        self.count_cap = count_cap
        self.reduce_sets = reduce_sets
        self.arc_limit = (graph.weight, lower, upper)

    def _put(self, out, key, cost, rec):
        if not self.reduce_sets:
            out.setdefault(key + (cost,), (cost, rec))
            return
        cur = out.get(key)
        if cur is None or cost < cur[0]:
            out[key] = (cost, rec)

    def base(self, v):
        key = (self.graph.weight[v], 1) if self.reduce_sets else (self.graph.weight[v], 1, 0)
        return {key: (0, ("leaf", v))}

    def combine(self, a, b, edge, step):
        edge_cost = self.graph.cost[edge]
        in_cycle = step is not None
        out: dict = {}
        a_items = _sorted_items(a)
        for bkey, (c2, _recb) in _sorted_items(b):
            x2, k2 = bkey[0], bkey[1]
            b2 = bkey[2] if in_cycle else 0
            cut_ok = x2 >= self.lower
            for akey, (c1, _reca) in a_items:
                x1, k1 = akey[0], akey[1]
                b1 = akey[2] if in_cycle else 0
                if cut_ok and k1 + k2 <= self.count_cap:
                    key = (x1, k1 + k2, 1) if in_cycle else (x1, k1 + k2)
                    rec = ("step", "cut", a, akey, b, bkey, edge)
                    self._put(out, key, c1 + c2 + edge_cost, rec)
                if x1 + x2 <= self.upper and k1 + k2 - 1 <= self.count_cap:
                    key = (
                        (x1 + x2, k1 + k2 - 1, b1 | b2)
                        if in_cycle
                        else (x1 + x2, k1 + k2 - 1)
                    )
                    rec = ("step", "merge", a, akey, b, bkey, edge)
                    self._put(out, key, c1 + c2, rec)
        return out

    def lift(self, state, step, charged):
        out: dict = {}
        for key, (cost, _rec) in _sorted_items(state):
            self._put(out, (key[0], key[1], 0), cost, ("lift", state, key))
        return out

    def strip(self, state, step):
        absent_cost = self.graph.cost[step.absent_edge]
        out: dict = {}
        for key, (cost, _rec) in _sorted_items(state):
            x, k, flag = key[0], key[1], key[2]
            self._put(
                out,
                (x, k),
                cost + (absent_cost if flag else 0),
                ("strip", state, key),
            )
        return out

    def union_configs(self, configs, cycle):
        out: dict = {}
        for j, step, state in configs:
            for key, (cost, _rec) in _sorted_items(state):
                self._put(
                    out,
                    (key[0], key[1]) if not self.reduce_sets else key,
                    cost,
                    ("cfg", j, step.absent_edge, state, key),
                )
        return out


class SizeWeightAlgebra:
    """Tuples ``(cluster size, count) -> (cluster weight, record)``.

    Sizes play the bounded role; the weight of the cluster around the
    subtree root rides along.  For the min-max problem merged weights may
    not exceed the probed bound and the smallest weight per key is kept;
    for the max-min problem completed clusters must reach the probed
    bound and the largest weight per key is kept.
    """

    def __init__(self, graph, lower, upper, count, bound, maximize):
        self.graph = graph
        self.lower = lower
        self.upper = upper
        self.count = count
        self.bound = bound
        self.maximize = maximize
        self.arc_limit = (graph.size, lower, upper)

    def _put(self, out, key, weight, rec):
        cur = out.get(key)
        if cur is None or (weight > cur[0] if self.maximize else weight < cur[0]):
            out[key] = (weight, rec)

    def base(self, v):
        return {(self.graph.size[v], 1): (self.graph.weight[v], ("leaf", v))}

    def combine(self, a, b, edge, step):
        out: dict = {}
        a_items = _sorted_items(a)
        for (x2, k2), (y2, _recb) in _sorted_items(b):
            cut_ok = x2 >= self.lower and (not self.maximize or y2 >= self.bound)
            for (x1, k1), (y1, _reca) in a_items:
                if cut_ok and k1 + k2 <= self.count:
                    rec = ("step", "cut", a, (x1, k1), b, (x2, k2), edge)
                    self._put(out, (x1, k1 + k2), y1, rec)
                if x1 + x2 <= self.upper and k1 + k2 - 1 <= self.count:
                    y = y1 + y2
                    if self.maximize or y <= self.bound:
                        rec = ("step", "merge", a, (x1, k1), b, (x2, k2), edge)
                        self._put(out, (x1 + x2, k1 + k2 - 1), y, rec)
        return out

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        out: dict = {}
        for j, step, state in configs:
            for key, (y, _rec) in _sorted_items(state):
                self._put(out, key, y, ("cfg", j, step.absent_edge, state, key))
        return out


class CapacityAlgebra:
    """Tuples ``(cluster weight, count) -> (committed capacity, record)``.

    The capacity of a cluster is the total capacity of edges leaving it;
    cutting an edge charges both sides.  Cycle keys carry a phase: 1 when
    the configuration's absent edge is treated as cut (both of its end
    clusters were charged when the chains were seeded), 0 when it is not,
    which forbids any further cut on the cycle.  Merging tuples from
    opposite phases would mix inconsistent assumptions, so it is blocked;
    a tuple with no phase yet (a plain subtree hanging off the cycle)
    adopts its partner's.
    """

    def __init__(self, graph, weight_lower, weight_upper, capacity_upper):
        self.graph = graph
        self.weight_lower = weight_lower
        self.weight_upper = weight_upper
        self.capacity_upper = capacity_upper
        self.count_cap = graph.num_vertices
        self.arc_limit = (graph.weight, weight_lower, weight_upper)

    def _put(self, out, key, cap, rec):
        cur = out.get(key)
        if cur is None or cap < cur[0]:
            out[key] = (cap, rec)

    def base(self, v):
        return {(self.graph.weight[v], 1): (0, ("leaf", v))}

    def combine(self, a, b, edge, step):
        edge_cap = self.graph.capacity[edge]
        cap_max = self.capacity_upper
        in_cycle = step is not None
        out: dict = {}
        a_items = _sorted_items(a)
        for bkey, (y2, _recb) in _sorted_items(b):
            x2, k2 = bkey[0], bkey[1]
            b2 = bkey[2] if in_cycle else None
            cut_weight_ok = x2 >= self.weight_lower and y2 + edge_cap <= cap_max
            for akey, (y1, _reca) in a_items:
                x1, k1 = akey[0], akey[1]
                b1 = akey[2] if in_cycle else None
                if (
                    cut_weight_ok
                    and k1 + k2 <= self.count_cap
                    and y1 + edge_cap <= cap_max
                    and not (in_cycle and (b1 == 0 or b2 == 0))
                ):
                    key = (x1, k1 + k2, 1) if in_cycle else (x1, k1 + k2)
                    rec = ("step", "cut", a, akey, b, bkey, edge)
                    self._put(out, key, y1 + edge_cap, rec)
                if (
                    x1 + x2 <= self.weight_upper
                    and y1 + y2 <= cap_max
                    and k1 + k2 - 1 <= self.count_cap
                ):
                    if in_cycle:
                        if b1 is not None and b2 is not None and b1 != b2:
                            continue
                        phase = b2 if b1 is None else b1 if b2 is None else b1
                        key = (x1 + x2, k1 + k2 - 1, phase)
                    else:
                        key = (x1 + x2, k1 + k2 - 1)
                    rec = ("step", "merge", a, akey, b, bkey, edge)
                    self._put(out, key, y1 + y2, rec)
        return out

    def lift(self, state, step, charged):
        absent_cap = self.graph.capacity[step.absent_edge]
        out: dict = {}
        for key, (y, _rec) in _sorted_items(state):
            x, k = key[0], key[1]
            rec = ("lift", state, key)
            if charged:
                out[(x, k, 0)] = (y, rec)
                if y + absent_cap <= self.capacity_upper:
                    out[(x, k, 1)] = (y + absent_cap, rec)
            else:
                out[(x, k, None)] = (y, rec)
        return out

    def strip(self, state, step):
        out: dict = {}
        for key, (y, _rec) in _sorted_items(state):
            x, k, phase = key
            assert phase is not None, "cycle phase never resolved"
            self._put(out, (x, k), y, ("strip", state, key))
        return out

    def union_configs(self, configs, cycle):
        out: dict = {}
        for j, step, state in configs:
            for key, (y, _rec) in _sorted_items(state):
                self._put(out, key, y, ("cfg", j, step.absent_edge, state, key))
        return out
