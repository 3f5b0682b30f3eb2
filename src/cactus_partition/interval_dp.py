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
merge that repeatedly joins interfering intervals.  A bare-vertex parent
(one count, one interval) skips the sort and takes one pass over the
child's counts.  A child count holding one run, nearly every count in
practice, gives one merge, joined to or kept beside the parent's cut
without a list; a child count with two or more runs has its shifted runs
swept as they come, since they arrive in order.

States are plain ``{k: ((lo, hi), ...)}`` tuples, count-ascending and
each count's runs in ascending order; no interval remembers how it was
produced.  Reconstruction recomputes, at each context it passes through,
the raw combinations that land on the interval it needs (see
``backtrack``).
"""

from __future__ import annotations

from collections import namedtuple

from .dp_core import IdentityLift, ProblemParams, _check_leaf_weights, _prepare, run_tree_dp
from .errors import IntervalCountError
from .graph_model import CactusGraph
from .tree_rep import CactusTree, as_tree

Interval = tuple[int, int]


def merge(intervals, gap: int) -> list[Interval]:
    """Join interfering intervals until none remain.

    Two intervals interfere when the later one starts at most ``gap``
    after the earlier one ends.  The result is independent of the input
    order: sorting by low end first makes the left-to-right sweep find
    exactly the maximal interfering groups.  ``IntervalAlgebra`` runs the
    same sweep inline on a bare-vertex parent's shifted child runs at a
    child count with two or more runs, whose order is known without a sort.
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


class IEntry(namedtuple("IEntry", "lo hi")):
    """One stored root interval, as ``annotate`` hands it out.

    ``lo`` is the smallest achievable weight of its run.  ``hi`` is the
    largest when it is at most ``upper``; above ``upper`` it is the
    untruncated sum, and the run's largest achievable weight up to
    ``upper`` lies in ``(lower, upper]`` (see the module docstring).
    """

    __slots__ = ()

    def intersects(self, lo: int, hi: int) -> bool:
        return self.lo <= hi and self.hi >= lo


class IntervalAlgebra(IdentityLift):
    """Interval states for the shared tree traversal: ``{k: ((lo, hi), ...)}``.

    ``combine`` with a bare-vertex parent ``{k1: ((lo, hi),)}`` takes one
    pass over the child's counts (:meth:`_bare_parent`), straight-line for
    a child count of one run and a sweep for one of several; any other
    parent collects raw intervals per count and merges them.  All give
    the same state, count-ascending.
    """

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.lower, self.upper = params.lower, params.upper
        self.p, self.gap = params.num_clusters, params.gap
        self.arc_limit = (graph.weight, params.upper)

    def base(self, v):
        w = self.graph.weight[v]
        return {1: ((w, w),)}

    def combine(self, a, b, edge, step):
        if len(a) == 1:
            ((k1, ivs_a),) = a.items()
            if len(ivs_a) == 1:  # a bare vertex: one pass over b's counts
                return self._bare_parent(k1, ivs_a[0], b)
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

    def union_configs(self, configs, cycle):
        raw: dict[int, list[Interval]] = {}
        for _j, _step, state in configs:
            for k, ivs in state.items():
                raw.setdefault(k, []).extend(ivs)
        return self._merged(raw)

    def _bare_parent(self, k1, a_iv, b):
        """``combine`` of ``{k1: (a_iv,)}`` and ``b``, in one pass.

        Count k holds the cut, ``a_iv`` itself, when a run of ``b[k - k1]``
        meets the window, then the runs of ``b[k - k1 + 1]`` shifted by
        ``a_iv``.  Those start no lower than ``a_iv`` and in ascending
        order.  A child count of one run ``(b_lo, b_hi)`` gives one merge
        ``(a_lo + b_lo, a_hi + b_hi)``: dropped when it starts above
        ``upper``, joined to a pending cut that it starts within ``gap``
        of, kept beside it otherwise (a cut is pending only at a count
        k >= 2, so two runs never over-fill it).  A child count of two or
        more runs goes through :func:`merge`'s sweep as the runs come, with
        no sort.  ``b`` is count-ascending, and so is the result.
        """
        lower, upper, p, gap = self.lower, self.upper, self.p, self.gap
        a_lo, a_hi = a_iv
        out = {}
        cut_at = 0  # the count waiting for the cut from the previous child count
        for k2, ivs_b in b.items():
            k = k1 + k2 - 1  # the count a merge lands on
            if k > p:
                break
            if 0 < cut_at < k:  # no merge lands on the pending cut's count
                out[cut_at] = (a_iv,)
            if len(ivs_b) == 1:  # one run: one merge, no sweep
                ((b_lo, b_hi),) = ivs_b
                lo = a_lo + b_lo
                if cut_at != k:
                    if lo <= upper:
                        out[k] = ((lo, a_hi + b_hi),)
                elif lo > upper:
                    out[k] = (a_iv,)
                elif lo - a_hi <= gap:  # weights are >= 0: the merge ends last
                    out[k] = ((a_lo, a_hi + b_hi),)
                else:  # two runs at a count k >= 2
                    out[k] = (a_iv, (lo, a_hi + b_hi))
                cut_at = k + 1 if k < p and b_lo <= upper and b_hi >= lower else 0
                continue
            runs = [a_iv] if cut_at == k else []
            for b_lo, b_hi in ivs_b:
                lo = a_lo + b_lo
                if lo > upper:
                    break
                hi = a_hi + b_hi
                if runs and lo - runs[-1][1] <= gap:
                    if hi > runs[-1][1]:
                        runs[-1] = (runs[-1][0], hi)
                else:
                    runs.append((lo, hi))
            if runs:
                if len(runs) > k:
                    raise _over_full(runs, k)
                out[k] = tuple(runs)
            cut_at = 0
            if k < p:
                for b_lo, b_hi in ivs_b:
                    if b_lo <= upper and b_hi >= lower:
                        cut_at = k + 1
                        break
        if cut_at:
            out[cut_at] = (a_iv,)
        return out

    def _merged(self, raw):
        gap = self.gap
        out = {}
        for k in sorted(raw):
            ivs = raw[k]
            if len(ivs) > 1:  # a lone interval is merged already
                ivs = merge(ivs, gap)
            if len(ivs) > k:
                raise _over_full(ivs, k)
            out[k] = tuple(ivs)
        return out


def _over_full(ivs, k) -> IntervalCountError:
    """The error for count ``k`` holding more runs than clusters."""
    return IntervalCountError(f"{len(ivs)} intervals stored for cluster count {k}: {ivs}")


def interval_subtree_sets(graph: CactusGraph | CactusTree, params: ProblemParams):
    """All compressed interval sets, keyed by ``(node, children_included)``,
    of ``graph`` or of a :class:`CactusTree` built from it."""
    tree = as_tree(graph)
    _check_leaf_weights(tree.graph, params)
    return run_tree_dp(tree, IntervalAlgebra(tree.graph, params))


def decide_p_partition_poly(
    graph: CactusGraph | CactusTree, params: ProblemParams, root: str | None = None
) -> bool:
    """Interval-compressed equivalent of ``decide_p_partition``; its run
    keeps only its frontier, too."""
    tree, params, reason = _prepare(graph, root, *params)
    if reason:
        return False
    (state,) = run_tree_dp(tree, IntervalAlgebra(tree.graph, params), frontier=True).values()
    lower, upper = params.lower, params.upper
    return any(lo <= upper and hi >= lower for lo, hi in state.get(params.num_clusters, ()))
