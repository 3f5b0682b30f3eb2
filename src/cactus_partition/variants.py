"""Optimisation variants of the partition problem.

All variants reuse the shared bottom-up traversal with their own tuple
payloads:

* minimum / maximum cluster count: plain solver with the count cap set to
  the number of vertices, then scan the root set for the extreme count
  and read the witness for that count out of the same run;
* minimum cut cost: tuples carry the accumulated cost of cut edges, with
  a flag inside cycles recording whether the cycle was cut at all (if so,
  the configuration's absent edge is also a cut edge and its cost is
  added when the cycle is closed off); only the cheapest tuple per
  remaining key is kept;
* min-max / max-min weight with vertex sizes: sizes take the role of the
  bounded quantity, tuples carry the weight of the cluster around the
  subtree root, and a binary search over the weight bound finds the
  optimum;
* capacity-bounded clusters: tuples carry the capacity already committed
  to the cluster around the subtree root.  Inside a cycle every tuple is
  forked into two phases, one assuming the configuration's absent edge is
  cut (charging its capacity to the clusters at both of its endpoints)
  and one assuming it is not, in which case no further cuts may happen on
  that cycle.  The phases of the two path chains must agree when they
  meet at the start node.
"""

from __future__ import annotations

from dataclasses import replace

from .backtrack import annotate, collect_cuts, reconstruct
from .dp_core import ProblemParams, run_tree_dp, state_cells
from .errors import InvalidParamsError
from .graph_model import CactusGraph, Partition, canonicalize_partition
from .tree_rep import build_tree


def _key_order(key):
    return tuple(-1 if part is None else part for part in key)


def _sorted_items(state):
    return sorted(state.items(), key=lambda kv: _key_order(kv[0]))


def _record_cells(stats, states, algorithm=None):
    """Add the states' size (see :func:`state_cells`) to ``stats``."""
    if stats is not None:
        stats["dp_cells"] = stats.get("dp_cells", 0) + state_cells(states, algorithm)


# ---------------------------------------------------------------------------
# minimum / maximum number of clusters


def min_partition(graph, lower, upper, root=None, algorithm="interval", stats=None):
    """Fewest clusters of any valid partition, with a witness.

    Returns ``(count, partition)`` or None when no partition fits the
    weight window.
    """
    return _extreme_partition(graph, lower, upper, root, algorithm, True, stats)


def max_partition(graph, lower, upper, root=None, algorithm="interval", stats=None):
    """Most clusters of any valid partition, with a witness."""
    return _extreme_partition(graph, lower, upper, root, algorithm, False, stats)


def _extreme_partition(graph, lower, upper, root, algorithm, minimize, stats=None):
    params = ProblemParams(lower, upper, graph.num_vertices)
    if graph.max_weight > upper:
        return None
    run = annotate(graph, params, algorithm, root)
    _record_cells(stats, run.states, algorithm)

    if algorithm == "interval":
        feasible = [
            k
            for k, entries in run.root_state.items()
            if any(e.intersects(lower, upper) for e in entries)
        ]
    else:
        feasible = [k for (x, k) in run.root_state if lower <= x <= upper]
    if not feasible:
        return None
    count = min(feasible) if minimize else max(feasible)
    # the count-cap-n states hold every smaller count's states unchanged
    return count, reconstruct(replace(run, params=ProblemParams(lower, upper, count)))


# ---------------------------------------------------------------------------
# minimum cut cost


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


def min_cost_partition(
    graph, lower, upper, num_clusters=None, root=None, reduce_sets=True, stats=None
):
    """Cheapest cut set whose clusters fit the weight window.

    The cost of a partition is the total cost of edges between clusters,
    counting the closing edge of a cut cycle exactly once.  With
    ``num_clusters`` given, only partitions of exactly that size count.
    Returns ``(cost, partition)`` or None.
    """
    count_cap = graph.num_vertices if num_clusters is None else num_clusters
    ProblemParams(lower, upper, count_cap)  # validates the bounds
    if graph.max_weight > upper or count_cap > graph.num_vertices:
        return None
    tree = build_tree(graph, root)
    alg = CostAlgebra(graph, lower, upper, count_cap, reduce_sets)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]

    best = None
    for key, (cost, _rec) in _sorted_items(root_state):
        x, k = key[0], key[1]
        if not lower <= x <= upper:
            continue
        if num_clusters is not None and k != num_clusters:
            continue
        if best is None or cost < best[0]:
            best = (cost, key)
    if best is None:
        return None
    cuts = collect_cuts(root_state, best[1])
    return best[0], canonicalize_partition(graph, cuts)


# ---------------------------------------------------------------------------
# min-max / max-min cluster weight under size bounds


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


def _size_weight_solve(graph, lower, upper, count, bound, maximize, root, stats=None):
    tree = build_tree(graph, root)
    alg = SizeWeightAlgebra(graph, lower, upper, count, bound, maximize)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]
    options = [
        (x, k)
        for (x, k), (y, _rec) in _sorted_items(root_state)
        if k == count
        and lower <= x <= upper
        and (y >= bound if maximize else True)
    ]
    if not options:
        return None
    cuts = collect_cuts(root_state, options[0])
    return canonicalize_partition(graph, cuts)


def minmax_partition(graph, lower, upper, num_clusters, root=None, stats=None):
    """Partition into the requested number of clusters with sizes in
    ``[lower, upper]`` minimising the weight of the heaviest cluster.

    Returns ``(weight, partition)`` or None.  The optimal weight is found
    by binary search: allowing a heavier heaviest cluster only ever helps,
    so feasibility is monotone in the probed bound.  The search ends on a
    bound already probed feasible, whose partition is returned.
    """
    ProblemParams(lower, upper, num_clusters)
    if num_clusters > graph.num_vertices or max(graph.size.values()) > upper:
        return None
    lo = max(graph.weight.values())
    hi = graph.total_weight
    best = _size_weight_solve(graph, lower, upper, num_clusters, hi, False, root, stats)
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _size_weight_solve(graph, lower, upper, num_clusters, mid, False, root, stats)
        if found is not None:
            hi, best = mid, found
        else:
            lo = mid + 1
    return lo, best


def maxmin_partition(graph, lower, upper, num_clusters, root=None, stats=None):
    """Same setting as :func:`minmax_partition` but maximising the weight
    of the lightest cluster."""
    ProblemParams(lower, upper, num_clusters)
    if num_clusters > graph.num_vertices or max(graph.size.values()) > upper:
        return None
    lo = 0
    hi = graph.total_weight
    best = _size_weight_solve(graph, lower, upper, num_clusters, lo, True, root, stats)
    if best is None:
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = _size_weight_solve(graph, lower, upper, num_clusters, mid, True, root, stats)
        if found is not None:
            lo, best = mid, found
        else:
            hi = mid - 1
    return lo, best


# ---------------------------------------------------------------------------
# capacity-bounded clusters


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


def capacity_partition(
    graph, weight_lower, weight_upper, capacity_upper, objective="min", root=None, stats=None
):
    """Extreme cluster count under weight and capacity bounds.

    Every cluster must weigh within ``[weight_lower, weight_upper]`` and
    the capacities of its outgoing edges must total at most
    ``capacity_upper``.  ``objective`` picks the minimum or maximum
    cluster count.  Returns ``(count, partition)`` or None.
    """
    if objective not in ("min", "max"):
        raise InvalidParamsError(f"objective must be 'min' or 'max', got {objective!r}")
    ProblemParams(weight_lower, weight_upper, 1)
    if not isinstance(capacity_upper, int) or capacity_upper < 0:
        raise InvalidParamsError("capacity bound must be a non-negative integer")
    if graph.max_weight > weight_upper:
        return None
    tree = build_tree(graph, root)
    alg = CapacityAlgebra(graph, weight_lower, weight_upper, capacity_upper)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]

    feasible = [
        (x, k)
        for (x, k), (_y, _rec) in _sorted_items(root_state)
        if weight_lower <= x <= weight_upper
    ]
    if not feasible:
        return None
    counts = {k for _x, k in feasible}
    count = min(counts) if objective == "min" else max(counts)
    target = sorted((x, k) for (x, k) in feasible if k == count)[0]
    cuts = collect_cuts(root_state, target)
    return count, canonicalize_partition(graph, cuts)
