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
  optimum, moving the bound after every feasible probe to the weight the
  probe's partition really reaches;
* capacity-bounded clusters: tuples carry the capacity already committed
  to the cluster around the subtree root.  Inside a cycle every tuple is
  forked into two phases, one assuming the configuration's absent edge is
  cut (charging its capacity to the clusters at both of its endpoints)
  and one assuming it is not, in which case no further cuts may happen on
  that cycle.  The phases of the two path chains must agree when they
  meet at the start node.

The cost, size-weight and capacity algebras share ``_BestPerKey``: one
entry per key, and a candidate replaces the stored entry only when its
aux is strictly better, so the first best candidate in sorted order keeps
its record.  ``combine`` and ``union_configs`` are named in each class
body, because perfbench's tracer wraps them per class.

Every entry point takes a graph or a ``CactusTree`` built from one (its
``root`` argument is then ignored), so one tree can serve several solves.
"""

from __future__ import annotations

import operator
from dataclasses import replace

from .backtrack import annotate, collect_cuts, reconstruct
from .dp_core import ProblemParams, run_tree_dp, state_cells, trivially_infeasible
from .errors import InvalidParamsError
from .graph_model import canonicalize_partition
from .tree_rep import as_tree


def _record_cells(stats, states, algorithm=None):
    """Add the states' size (see :func:`state_cells`) to ``stats``."""
    if stats is not None:
        stats["dp_cells"] = stats.get("dp_cells", 0) + state_cells(states, algorithm)


class _BestPerKey:
    """States ``{key: (aux, record)}`` keeping the first best aux per key.

    :meth:`_put` replaces an entry only with a strictly ``better`` aux, so
    on ties the candidate met first in sorted order keeps its record.
    Subclasses bind ``combine`` and ``union_configs`` in their own bodies,
    where perfbench's tracer wraps them per class.
    """

    better = operator.lt

    def _put(self, out, key, aux, rec):
        cur = out.get(key)
        if cur is None or self.better(aux, cur[0]):
            out[key] = (aux, rec)

    def base(self, v):
        return {(self.graph.weight[v], 1): (0, ("leaf", v))}

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        out: dict = {}
        for j, step, state in configs:
            for key, (aux, _rec) in sorted(state.items()):
                self._put(out, key, aux, ("cfg", j, step.absent_edge, state, key))
        return out


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
    tree = as_tree(graph, root)
    params = ProblemParams(lower, upper, tree.graph.num_vertices)
    if trivially_infeasible(tree.graph, params):
        return None
    run = annotate(tree, params, algorithm)
    _record_cells(stats, run.states, algorithm)
    feasible = run.feasible_counts()
    if not feasible:
        return None
    count = min(feasible) if minimize else max(feasible)
    # the count-cap-n states hold every smaller count's states unchanged
    return count, reconstruct(replace(run, params=ProblemParams(lower, upper, count)))


# ---------------------------------------------------------------------------
# minimum cut cost


class CostAlgebra(_BestPerKey):
    """Tuples ``(cluster weight, count) -> (cost, record)``.

    Inside cycles the key grows a flag telling whether the cycle has been
    cut.
    """

    def __init__(self, graph, lower, upper, count_cap):
        self.graph = graph
        self.lower = lower
        self.upper = upper
        self.count_cap = count_cap

    def combine(self, a, b, edge, step):
        # _put inlined: a candidate's record is built only when it is stored
        edge_cost = self.graph.cost[edge]
        lower, upper, count_cap = self.lower, self.upper, self.count_cap
        in_cycle = step is not None
        out: dict = {}
        a_items = sorted(a.items())
        for bkey, (c2, _recb) in sorted(b.items()):
            x2, k2 = bkey[0], bkey[1]
            b2 = bkey[2] if in_cycle else 0
            cut_ok = x2 >= lower
            for akey, (c1, _reca) in a_items:
                x1, k1 = akey[0], akey[1]
                if cut_ok and k1 + k2 <= count_cap:
                    cost = c1 + c2 + edge_cost
                    key = (x1, k1 + k2, 1) if in_cycle else (x1, k1 + k2)
                    cur = out.get(key)
                    if cur is None or cost < cur[0]:
                        out[key] = (cost, ("step", "cut", a, akey, b, bkey, edge))
                if x1 + x2 <= upper and k1 + k2 - 1 <= count_cap:
                    cost = c1 + c2
                    key = (
                        (x1 + x2, k1 + k2 - 1, akey[2] | b2)
                        if in_cycle
                        else (x1 + x2, k1 + k2 - 1)
                    )
                    cur = out.get(key)
                    if cur is None or cost < cur[0]:
                        out[key] = (cost, ("step", "merge", a, akey, b, bkey, edge))
        return out

    union_configs = _BestPerKey.union_configs

    def lift(self, state, step, charged):
        out: dict = {}
        for key, (cost, _rec) in sorted(state.items()):
            self._put(out, (key[0], key[1], 0), cost, ("lift", state, key))
        return out

    def strip(self, state, step):
        absent_cost = self.graph.cost[step.absent_edge]
        out: dict = {}
        for key, (cost, _rec) in sorted(state.items()):
            x, k, flag = key[0], key[1], key[2]
            self._put(
                out,
                (x, k),
                cost + (absent_cost if flag else 0),
                ("strip", state, key),
            )
        return out


def min_cost_partition(graph, lower, upper, num_clusters=None, root=None, stats=None):
    """Cheapest cut set whose clusters fit the weight window.

    The cost of a partition is the total cost of edges between clusters,
    counting the closing edge of a cut cycle exactly once.  With
    ``num_clusters`` given, only partitions of exactly that size count.
    Returns ``(cost, partition)`` or None.
    """
    tree = as_tree(graph, root)
    graph = tree.graph
    count_cap = graph.num_vertices if num_clusters is None else num_clusters
    if trivially_infeasible(graph, ProblemParams(lower, upper, count_cap)):
        return None
    alg = CostAlgebra(graph, lower, upper, count_cap)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]

    best = None
    for key, (cost, _rec) in sorted(root_state.items()):
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


class SizeWeightAlgebra(_BestPerKey):
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
        self.better = operator.gt if maximize else operator.lt

    def base(self, v):
        return {(self.graph.size[v], 1): (self.graph.weight[v], ("leaf", v))}

    def combine(self, a, b, edge, step):
        # _put inlined: a candidate's record is built only when it is stored
        lower, upper, count, bound = self.lower, self.upper, self.count, self.bound
        maximize, better = self.maximize, self.better
        out: dict = {}
        a_items = sorted(a.items())
        for bkey, (y2, _recb) in sorted(b.items()):
            x2, k2 = bkey
            cut_ok = x2 >= lower and (not maximize or y2 >= bound)
            for akey, (y1, _reca) in a_items:
                x1, k1 = akey
                if cut_ok and k1 + k2 <= count:
                    key = (x1, k1 + k2)
                    cur = out.get(key)
                    if cur is None or better(y1, cur[0]):
                        out[key] = (y1, ("step", "cut", a, akey, b, bkey, edge))
                if x1 + x2 <= upper and k1 + k2 - 1 <= count:
                    y = y1 + y2
                    if maximize or y <= bound:
                        key = (x1 + x2, k1 + k2 - 1)
                        cur = out.get(key)
                        if cur is None or better(y, cur[0]):
                            out[key] = (y, ("step", "merge", a, akey, b, bkey, edge))
        return out

    union_configs = _BestPerKey.union_configs


def _size_weight_solve(graph, lower, upper, count, bound, maximize, root=None, stats=None):
    tree = as_tree(graph, root)
    graph = tree.graph
    alg = SizeWeightAlgebra(graph, lower, upper, count, bound, maximize)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]
    options = [
        (x, k)
        for (x, k), (y, _rec) in sorted(root_state.items())
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
    so feasibility is monotone in the probed bound.  The bracket starts at
    ``[max(max weight, ceil(W / p)), W]``: some cluster holds the heaviest
    vertex, and one of ``p`` clusters weighing ``W`` in total weighs at
    least ``W / p``.  The first probe, at ``W``, tells whether any
    partition exists.  After every feasible probe the upper end jumps to
    the heaviest cluster of the partition that probe returned, a weight
    that is reached, often well below the probed bound.  The search ends
    with the bracket on one value, the weight of the partition returned.
    Every probe runs on the same tree.
    """
    ProblemParams(lower, upper, num_clusters)
    tree = as_tree(graph, root)
    graph = tree.graph
    if num_clusters > graph.num_vertices or max(graph.size.values()) > upper:
        return None
    total = graph.total_weight
    lo = max(graph.max_weight, -(-total // num_clusters))
    best = _size_weight_solve(tree, lower, upper, num_clusters, total, False, stats=stats)
    if best is None:
        return None
    hi = best.max_weight()
    while lo < hi:
        mid = (lo + hi) // 2
        found = _size_weight_solve(tree, lower, upper, num_clusters, mid, False, stats=stats)
        if found is not None:
            hi, best = found.max_weight(), found
        else:
            lo = mid + 1
    return lo, best


def maxmin_partition(graph, lower, upper, num_clusters, root=None, stats=None):
    """Same setting as :func:`minmax_partition` but maximising the weight
    of the lightest cluster.

    The bracket is ``[0, floor(W / p)]``, since the lightest of ``p``
    clusters weighs at most their mean.  The first probe, at bound 0,
    tells whether any partition exists; it and every feasible probe after
    it move the lower end up to the lightest cluster of the partition
    they returned.
    """
    ProblemParams(lower, upper, num_clusters)
    tree = as_tree(graph, root)
    graph = tree.graph
    if num_clusters > graph.num_vertices or max(graph.size.values()) > upper:
        return None
    hi = graph.total_weight // num_clusters
    best = _size_weight_solve(tree, lower, upper, num_clusters, 0, True, stats=stats)
    if best is None:
        return None
    lo = best.min_weight()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = _size_weight_solve(tree, lower, upper, num_clusters, mid, True, stats=stats)
        if found is not None:
            lo, best = found.min_weight(), found
        else:
            hi = mid - 1
    return lo, best


# ---------------------------------------------------------------------------
# capacity-bounded clusters


class CapacityAlgebra(_BestPerKey):
    """Tuples ``(cluster weight, count) -> (committed capacity, record)``.

    The capacity of a cluster is the total capacity of edges leaving it;
    cutting an edge charges both sides.  Cycle keys carry a phase: 1 when
    the configuration's absent edge is treated as cut (both of its end
    clusters were charged when the chains were seeded), 0 when it is not,
    which forbids any further cut on the cycle, and -1 for a tuple with no
    phase yet (a plain subtree hanging off the cycle), which adopts its
    partner's.  Merging tuples from opposite phases would mix inconsistent
    assumptions, so it is blocked.
    """

    def __init__(self, graph, weight_lower, weight_upper, capacity_upper):
        self.graph = graph
        self.weight_lower = weight_lower
        self.weight_upper = weight_upper
        self.capacity_upper = capacity_upper
        self.count_cap = graph.num_vertices

    def combine(self, a, b, edge, step):
        # _put inlined: a candidate's record is built only when it is stored
        edge_cap = self.graph.capacity[edge]
        cap_max = self.capacity_upper
        lower, upper, count_cap = self.weight_lower, self.weight_upper, self.count_cap
        in_cycle = step is not None
        out: dict = {}
        a_items = sorted(a.items())
        for bkey, (y2, _recb) in sorted(b.items()):
            x2, k2 = bkey[0], bkey[1]
            b2 = bkey[2] if in_cycle else -1
            # phase 0 forbids cuts on the cycle
            cut_ok = x2 >= lower and y2 + edge_cap <= cap_max and b2 != 0
            for akey, (y1, _reca) in a_items:
                x1, k1 = akey[0], akey[1]
                b1 = akey[2] if in_cycle else -1
                if cut_ok and k1 + k2 <= count_cap and y1 + edge_cap <= cap_max and b1 != 0:
                    y = y1 + edge_cap
                    key = (x1, k1 + k2, 1) if in_cycle else (x1, k1 + k2)
                    cur = out.get(key)
                    if cur is None or y < cur[0]:
                        out[key] = (y, ("step", "cut", a, akey, b, bkey, edge))
                if x1 + x2 <= upper and y1 + y2 <= cap_max and k1 + k2 - 1 <= count_cap:
                    if in_cycle:
                        if b1 >= 0 and b2 >= 0 and b1 != b2:
                            continue
                        key = (x1 + x2, k1 + k2 - 1, b2 if b1 < 0 else b1)
                    else:
                        key = (x1 + x2, k1 + k2 - 1)
                    y = y1 + y2
                    cur = out.get(key)
                    if cur is None or y < cur[0]:
                        out[key] = (y, ("step", "merge", a, akey, b, bkey, edge))
        return out

    union_configs = _BestPerKey.union_configs

    def lift(self, state, step, charged):
        absent_cap = self.graph.capacity[step.absent_edge]
        out: dict = {}
        for key, (y, _rec) in sorted(state.items()):
            x, k = key[0], key[1]
            rec = ("lift", state, key)
            if charged:
                out[(x, k, 0)] = (y, rec)
                if y + absent_cap <= self.capacity_upper:
                    out[(x, k, 1)] = (y + absent_cap, rec)
            else:
                out[(x, k, -1)] = (y, rec)
        return out

    def strip(self, state, step):
        out: dict = {}
        for key, (y, _rec) in sorted(state.items()):
            x, k, phase = key
            assert phase >= 0, "cycle phase never resolved"
            self._put(out, (x, k), y, ("strip", state, key))
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
    params = ProblemParams(weight_lower, weight_upper, 1)
    if not isinstance(capacity_upper, int) or isinstance(capacity_upper, bool) or capacity_upper < 0:
        raise InvalidParamsError("capacity bound must be a non-negative integer")
    tree = as_tree(graph, root)
    graph = tree.graph
    if trivially_infeasible(graph, params):
        return None
    alg = CapacityAlgebra(graph, weight_lower, weight_upper, capacity_upper)
    states = run_tree_dp(tree, alg)
    _record_cells(stats, states)
    root_state = states[(tree.root, tree.full_index(tree.root))]

    feasible = [
        (x, k)
        for (x, k), (_y, _rec) in sorted(root_state.items())
        if weight_lower <= x <= weight_upper
    ]
    if not feasible:
        return None
    counts = {k for _x, k in feasible}
    count = min(counts) if objective == "min" else max(counts)
    target = next(key for key in feasible if key[1] == count)
    cuts = collect_cuts(root_state, target)
    return count, canonicalize_partition(graph, cuts)
