"""Interval-compressed dynamic program (polynomial-time decision).

The tuple sets of the pseudo-polynomial solver hold up to ``upper`` many
weights per cluster count.  With ``gap = upper - lower``, weights that
are at most ``gap`` apart are interchangeable for feasibility purposes:
whenever an interval of gap-consecutive achievable weights meets the
window ``[lower, upper]``, one of its members does too.  Each per-count
weight set is therefore stored as gap-consecutive runs, at most k of them
for count k, under this endpoint contract against the maximal runs of the
true weight set (the achievable weights up to ``upper``):

* the stored and true runs are equal in number and pair up in order;
* paired lower endpoints are equal;
* a stored upper endpoint at most ``upper`` equals the true one;
* a stored upper endpoint above ``upper`` pairs with a run whose true
  maximum lies in ``(lower, upper]``.

Exact equality with the maximal runs is out of reach: once a merge's
summed upper endpoint passes ``upper``, the largest achievable weight up
to ``upper`` is not a function of the endpoints.  The last clause holds
because sums and joins of gap-consecutive runs stay gap-consecutive, so a
run that passes ``upper`` has its last weight up to ``upper`` within
``gap`` of ``upper``, which is above ``lower``.

Combination works directly on intervals: keeping the child cluster
separate requires the child interval to meet the window, merging adds
interval endpoints (guarded by the low sum fitting under the upper
bound).  Freshly combined intervals may interfere (come within ``gap`` of
each other), so every combination is followed by the order-independent
merge that repeatedly joins interfering intervals.

States are plain ``{k: ((lo, hi), ...)}`` tuples, count-ascending and
each count's runs in ascending order; no interval remembers how it was
produced.  Reconstruction recomputes, at each context it passes through,
the raw combinations that land on the interval it needs (see
``backtrack``).
"""

from __future__ import annotations

from typing import NamedTuple

from .dp_core import (
    ProblemParams,
    _check_leaf_weights,
    run_tree_dp,
    trivially_infeasible,
)
from .errors import IntervalCountError
from .graph_model import CactusGraph
from .tree_rep import CactusTree, build_tree

Interval = tuple[int, int]


def intervals_of(values, gap: int) -> list[Interval]:
    """Intervals of the maximal gap-consecutive runs of an integer set."""
    if gap < 0:
        raise ValueError("gap must be non-negative")
    xs = sorted(set(values))
    if not xs:
        return []
    runs = []
    lo = hi = xs[0]
    for x in xs[1:]:
        if x - hi <= gap:
            hi = x
        else:
            runs.append((lo, hi))
            lo = hi = x
    runs.append((lo, hi))
    return runs


def merge(intervals, gap: int) -> list[Interval]:
    """Join interfering intervals until none remain.

    Two intervals interfere when the later one starts at most ``gap``
    after the earlier one ends.  The result is independent of the input
    order: sorting by low end first makes the left-to-right sweep find
    exactly the maximal interfering groups.
    """
    ivs = sorted(intervals)
    if not ivs:
        return []
    out: list[Interval] = []
    cur_lo, cur_hi = ivs[0]
    for lo, hi in ivs:
        if lo - cur_hi <= gap:
            if hi > cur_hi:
                cur_hi = hi
        else:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    out.append((cur_lo, cur_hi))
    return out


def interval_oplus(a, b, params: ProblemParams):
    """Combine two interval sets across an edge (pre-merge form).

    ``a`` and ``b`` map cluster counts to interval lists.  The result is
    the raw combination before interfering intervals are merged; callers
    apply :func:`merge` per count to normalise it.
    """
    lower, upper, p = params.lower, params.upper, params.num_clusters
    out: dict[int, list[Interval]] = {}
    for k2, ivs_b in sorted(b.items()):
        for (b_lo, b_hi) in sorted(ivs_b):
            feasible = b_lo <= upper and b_hi >= lower
            for k1, ivs_a in sorted(a.items()):
                for (a_lo, a_hi) in sorted(ivs_a):
                    if feasible and k1 + k2 <= p:
                        out.setdefault(k1 + k2, []).append((a_lo, a_hi))
                    if a_lo + b_lo <= upper and k1 + k2 - 1 <= p:
                        out.setdefault(k1 + k2 - 1, []).append(
                            (a_lo + b_lo, a_hi + b_hi)
                        )
    return {k: sorted(set(ivs)) for k, ivs in out.items()}


class IEntry(NamedTuple):
    """One stored root interval, as ``annotate`` hands it out.

    ``lo`` is the smallest achievable weight of its run.  ``hi`` is the
    largest when it is at most ``upper``; above ``upper`` it is the
    untruncated sum, and the run's largest achievable weight up to
    ``upper`` lies in ``(lower, upper]`` (see the module docstring).
    """

    lo: int
    hi: int

    def intersects(self, lo: int, hi: int) -> bool:
        return self.lo <= hi and self.hi >= lo


class IntervalAlgebra:
    """Interval states for the shared tree traversal: ``{k: ((lo, hi), ...)}``."""

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.lower, self.upper = params.lower, params.upper
        self.p, self.gap = params.num_clusters, params.gap

    def base(self, v):
        w = self.graph.weight[v]
        return {1: ((w, w),)}

    def combine(self, a, b, edge, step):
        lower, upper, p = self.lower, self.upper, self.p
        raw: dict[int, list[Interval]] = {}
        a_items = list(a.items())
        for k2, ivs_b in b.items():
            for b_lo, b_hi in ivs_b:
                feasible = b_lo <= upper and b_hi >= lower
                for k1, ivs_a in a_items:
                    k = k1 + k2
                    if k - 1 > p:
                        break  # states are count-ascending
                    if feasible and k <= p:
                        raw.setdefault(k, []).extend(ivs_a)
                    if len(ivs_a) == 1:  # the common case, without a list
                        a_lo, a_hi = ivs_a[0]
                        if a_lo + b_lo <= upper:
                            raw.setdefault(k - 1, []).append((a_lo + b_lo, a_hi + b_hi))
                        continue
                    sums = [
                        (a_lo + b_lo, a_hi + b_hi) for a_lo, a_hi in ivs_a if a_lo + b_lo <= upper
                    ]
                    if sums:
                        raw.setdefault(k - 1, []).extend(sums)
        return self._merged(raw)

    # The same function under a second name, for the witness walk, which
    # combines outside any DP run: wrappers installed on ``combine`` (the
    # per-run combine counters of perfbench's tracer) do not see its calls.
    join_states = combine

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        raw: dict[int, list[Interval]] = {}
        for _j, _step, state in configs:
            for k, ivs in state.items():
                raw.setdefault(k, []).extend(ivs)
        return self._merged(raw)

    def _merged(self, raw):
        gap = self.gap
        out = {}
        for k in sorted(raw):
            ivs = merge(raw[k], gap)
            if len(ivs) > k:
                raise IntervalCountError(
                    f"{len(ivs)} intervals stored for cluster count {k}: {ivs}"
                )
            out[k] = tuple(ivs)
        return out


def interval_subtree_sets(tree: CactusTree, params: ProblemParams):
    """All compressed interval sets, keyed by ``(node, children_included)``."""
    _check_leaf_weights(tree.graph, params)
    return run_tree_dp(tree, IntervalAlgebra(tree.graph, params))


def decide_p_partition_poly(
    graph: CactusGraph, params: ProblemParams, root: str | None = None
) -> bool:
    """Interval-compressed equivalent of ``decide_p_partition``."""
    if trivially_infeasible(graph, params):
        return False
    tree = build_tree(graph, root)
    state = interval_subtree_sets(tree, params)[(tree.root, tree.full_index(tree.root))]
    lower, upper = params.lower, params.upper
    return any(lo <= upper and hi >= lower for lo, hi in state.get(params.num_clusters, ()))
