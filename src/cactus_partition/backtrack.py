"""Rebuild actual partitions from annotated solver runs.

Reconstruction walks a solver run from the root downwards and collects
the edges cut along the way; deleting the collected edges from the graph
yields the clusters.

The tuple-set engine keeps no records.  Its bitmask states are exact, so
any split of a stored tuple into achievable parts extends to a valid
partition, and the witness is read straight out of the states: at every
combination the walk splits the tuple into a parent tuple, a child tuple
and a branch (cut or merge) with bit tests over the set bits of the
child state, and at a cycle it takes the lowest configuration holding
the tuple and recomputes only that configuration's two chains.  The
split follows the order of ``TupleAlgebra``'s records (smallest child
tuple, then smallest parent tuple), so witnesses are the same as a
recorded run would give.  The walk keeps an explicit stack, so the
interpreter's recursion limit does not bound the depth of the tree.

The interval solver remembers, for every stored interval, which
combinations produced it, and reconstruction is trickier.  A stored
interval only guarantees that some member weight is achievable, so the
walk keeps a window of weights that would still complete a valid
partition and searches the recorded alternatives (merge constituents,
producing pairs, cycle configurations) depth-first.  Descending into a
cluster merge with child interval ``[b, b']`` widens the child side: the
parent side is searched within ``[lo - b', hi - b]`` and, once its exact
weight x is fixed, the child side must land in ``[lo - x, hi - x]``.
Completed clusters are searched against the original weight window.  The
first solution in deterministic record order is returned, so
reconstruction is reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .dp_core import (
    CycleStep,
    MaskAlgebra,
    ProblemParams,
    _mask_state_to_set,
    cycle_node_states,
    fold_configuration,
    run_tree_dp,
)
from .errors import WeightExceedsUpperError, WitnessNotFoundError
from .graph_model import CactusGraph, Partition, canonicalize_partition, edge_key
from .interval_dp import IntervalAlgebra
from .tree_rep import CactusTree, absent_cycle_edge, build_tree


@dataclass
class AnnotatedRun:
    """A solver run kept for backtracking.

    For the tuple-set engine ``states`` are the bitmask states of every
    partial subtree, ``configs`` the per-configuration states of every
    cycle keyed by ``(cycle, j)``, and ``root_state`` the root's tuple set
    as ``(x, k)`` pairs.  The states may have been computed under a count
    cap above ``params.num_clusters`` (the min / max variants do); the
    entries up to the cap are the same either way.  For the interval
    engine ``states`` hold recorded entries and ``root_state`` maps each
    count to the root's entries.
    """

    tree: CactusTree
    params: ProblemParams
    algorithm: str
    states: dict
    root_state: dict | frozenset
    configs: dict | None = None

    @property
    def graph(self) -> CactusGraph:
        return self.tree.graph


def annotate(
    graph: CactusGraph | CactusTree,
    params: ProblemParams,
    algorithm: str = "tupleset",
    root: str | None = None,
) -> AnnotatedRun:
    """Run a solver and keep what :func:`reconstruct` needs.

    ``algorithm`` selects the tuple-set solver (bitmask states plus the
    per-configuration states of every cycle) or the interval-compressed
    one (states every stored element of which carries a record).
    """
    tree = graph if isinstance(graph, CactusTree) else build_tree(graph, root)
    if tree.graph.max_weight > params.upper:
        raise WeightExceedsUpperError(
            f"vertex weight {tree.graph.max_weight} exceeds upper bound {params.upper}"
        )
    root_ctx = (tree.root, tree.full_index(tree.root))
    if algorithm == "tupleset":
        configs: dict = {}
        states = run_tree_dp(tree, MaskAlgebra(tree.graph, params), config_sink=configs)
        return AnnotatedRun(
            tree, params, algorithm, states, _mask_state_to_set(states[root_ctx]), configs
        )
    if algorithm == "interval":
        states = run_tree_dp(tree, IntervalAlgebra(tree.graph, params))
        return AnnotatedRun(tree, params, algorithm, states, states[root_ctx])
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _split(a: dict, b: dict, x: int, k: int, window: int):
    """Split tuple ``(x, k)`` of ``combine(a, b)`` into its witness parts.

    Returns ``(a_key, b_key, cut)``.  The witness is the one
    ``TupleAlgebra`` records: the smallest child tuple ``(x2, k2)``, then
    the smallest parent tuple, so for one child tuple the cut (parent
    ``(x, k - k2)``) comes before the merge (parent ``(x - x2, k - k2 +
    1)``) only when ``x2 == 0``.
    """
    best = None
    for k2, mb in b.items():
        if k2 > k:
            continue
        cut_x2 = merge_x2 = None
        if a.get(k - k2, 0) >> x & 1 and mb & window:
            low = mb & window
            cut_x2 = (low & -low).bit_length() - 1
        ma = a.get(k - k2 + 1, 0)
        bits = mb & ((2 << x) - 1)
        while bits:
            low = bits & -bits
            x2 = low.bit_length() - 1
            if ma >> (x - x2) & 1:
                merge_x2 = x2
                break
            bits ^= low
        if cut_x2 is not None and (merge_x2 is None or cut_x2 < merge_x2 or cut_x2 == 0):
            cand = (cut_x2, k2, True)
        elif merge_x2 is not None:
            cand = (merge_x2, k2, False)
        else:
            continue
        if best is None or cand < best:
            best = cand
    if best is None:  # pragma: no cover - the tuple came from these states
        raise WitnessNotFoundError(f"tuple {(x, k)!r} has no witness")
    x2, k2, cut = best
    if cut:
        return (x, k - k2), (x2, k2), True
    return (x - x2, k - k2 + 1), (x2, k2), False


def _mask_witness_cuts(run: AnnotatedRun, key) -> set:
    """Cut edges of the witness of root tuple ``key`` in a tuple-set run."""
    tree, states = run.tree, run.states
    # Entries with counts up to key[1] do not depend on the count cap, and
    # no tuple below the root has a larger count, so chains are recomputed
    # under that cap.
    alg = MaskAlgebra(tree.graph, ProblemParams(run.params.lower, run.params.upper, key[1]))

    def full(node):
        return (node, tree.full_index(node))

    cuts: set = set()

    def split(a, b, tup, edge):
        a_key, b_key, cut = _split(a, b, *tup, alg.window_mask)
        if cut:
            cuts.add(edge)
        return a_key, b_key

    stack = [(full(tree.root), key)]
    while stack:
        (v, i), key = stack.pop()
        if i == 0:
            continue
        cyc = tree.cycle_at.get((v, i))
        if cyc is None:
            child = full(tree.children[v][i - 1])
            a_key, b_key = split(states[(v, i - 1)], states[child], key, edge_key(v, child[0]))
            stack += [((v, i - 1), a_key), (child, b_key)]
            continue
        x, k = key
        j = next(j for j in range(1, cyc.length) if run.configs[(cyc, j)].get(k, 0) >> x & 1)
        step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
        cuts.add(step.absent_edge)
        owns = cycle_node_states(tree, states, cyc)
        joined, chains = fold_configuration(
            alg, step, owns, states[(v, i - 1)], alg.join_states
        )
        for n in range(len(chains) - 1, -1, -1):
            join_edge, positions, chain = chains[n]
            key, chain_key = split(joined[n], chain[-1], key, join_edge)
            for t in range(len(chain) - 1, 0, -1):
                node, below = cyc.path[positions[t]], cyc.path[positions[t - 1]]
                own_key, chain_key = split(
                    owns[positions[t]], chain[t - 1], chain_key, edge_key(node, below)
                )
                stack.append((full(node), own_key))
            stack.append((full(cyc.path[positions[0]]), chain_key))
        stack.append(((v, i - 1), key))
    return cuts


def collect_cuts(state: dict, key) -> set:
    """Walk tuple records from ``state[key]`` and gather the cut edges.

    Shared by the recorded algebras (the optimisation variants' and
    ``TupleAlgebra``), whose records all have the same shape.  The absent
    edge of a cycle configuration is always included; when the whole
    cycle ends up in one cluster it is harmless and disappears during
    canonicalisation.
    """
    cuts: set = set()
    stack = [(state, key)]
    while stack:
        st, k = stack.pop()
        _aux, rec = st[k]
        tag = rec[0]
        if tag == "leaf":
            continue
        if tag == "step":
            _, branch, a_st, a_key, b_st, b_key, edge = rec
            if branch == "cut":
                cuts.add(edge)
            stack.append((a_st, a_key))
            stack.append((b_st, b_key))
        elif tag == "cfg":
            _, _j, absent, inner_st, inner_key = rec
            cuts.add(absent)
            stack.append((inner_st, inner_key))
        elif tag in ("lift", "strip"):
            _, inner_st, inner_key = rec
            stack.append((inner_st, inner_key))
        else:  # pragma: no cover - record shapes are fixed at build time
            raise WitnessNotFoundError(f"unknown record {tag!r}")
    return cuts


def _first(gen):
    for item in gen:
        return item
    return None


class _IntervalSearch:
    """Depth-first search over interval records with feasibility windows."""

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.params = params
        self._cluster_memo: dict[int, tuple | None] = {}

    def candidates(self, entry, lo: int, hi: int):
        """Yield ``(weight, cut_edges)`` realisations of ``entry`` in [lo, hi]."""
        if lo > hi or not entry.intersects(lo, hi):
            return
        for src in entry.sources:
            tag = src[0]
            if tag == "leaf":
                x = self.graph.weight[src[1]]
                if lo <= x <= hi:
                    yield (x, frozenset())
            elif tag == "sub":
                yield from self.candidates(src[1], lo, hi)
            elif tag == "cfg":
                _, _j, absent, inner = src
                for x, cuts in self.candidates(inner, lo, hi):
                    yield (x, cuts | {absent})
            else:  # ("step", branch, a_entry, b_entry, edge)
                _, branch, ea, eb, edge = src
                if branch == "cut":
                    done = self._completed_cluster(eb)
                    if done is None:
                        continue
                    _bx, bcuts = done
                    for x, cuts in self.candidates(ea, lo, hi):
                        yield (x, cuts | bcuts | {edge})
                else:
                    a_lo = max(0, lo - eb.hi)
                    a_hi = hi - eb.lo
                    for ax, acuts in self.candidates(ea, a_lo, a_hi):
                        for bx, bcuts in self.candidates(
                            eb, max(0, lo - ax), hi - ax
                        ):
                            yield (ax + bx, acuts | bcuts)

    def _completed_cluster(self, entry):
        # a cut branch finishes the child cluster: any realisation inside
        # the weight window works, independent of the caller's window
        key = id(entry)
        if key not in self._cluster_memo:
            self._cluster_memo[key] = _first(
                self.candidates(entry, self.params.lower, self.params.upper)
            )
        return self._cluster_memo[key]


def reconstruct(run: AnnotatedRun, target=None) -> Partition:
    """Rebuild a partition from an annotated run.

    For the tuple solver ``target`` is a ``(weight, count)`` pair from the
    root set (defaulting to the feasible tuple with the smallest weight).
    For the interval solver it is an ``(low, high, count)`` triple of a
    stored root interval meeting the weight window (same default rule).
    Raises :class:`WitnessNotFoundError` when no target qualifies; for a
    feasible instance that indicates a solver bug.
    """
    params = run.params
    if run.algorithm == "tupleset":
        key = target
        if key is None:
            options = sorted(
                (x, k)
                for (x, k) in run.root_state
                if k == params.num_clusters and params.lower <= x <= params.upper
            )
            key = options[0] if options else None
        if key is None or key not in run.root_state:
            raise WitnessNotFoundError("no feasible root tuple to reconstruct")
        return canonicalize_partition(run.graph, _mask_witness_cuts(run, key))

    # the interval search is recursive, about eight frames per tree level
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 8 * run.graph.num_vertices + 1000))
    entries = run.root_state.get(params.num_clusters, ())
    if target is not None:
        lo, hi, _k = target
        entries = [e for e in entries if (e.lo, e.hi) == (lo, hi)]
    search = _IntervalSearch(run.graph, params)
    for entry in sorted(entries, key=lambda e: (e.lo, e.hi)):
        if not entry.intersects(params.lower, params.upper):
            continue
        found = _first(search.candidates(entry, params.lower, params.upper))
        if found is not None:
            return canonicalize_partition(run.graph, found[1])
    raise WitnessNotFoundError("no feasible root interval to reconstruct")
