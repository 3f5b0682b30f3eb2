"""Definitions the tests hold the solvers to, which no solver runs.

Each states one step of the dynamic programs the plain way, for the tests
to compare the package with:
- ``oplus`` and ``interval_oplus`` combine two tuple or interval sets
  across an edge, ``leaf_set`` is a bare vertex's tuple set and
  ``intervals_of`` the maximal gap-consecutive runs of a weight set;
- ``subtree_sets``, ``root_set``, ``cycle_config_sets`` and
  ``cycle_config_set`` read ``cactus_partition.dp_core``'s bitmask states
  as tuple sets, the last two over every configuration 1..m-1 of a
  cycle, past its cutoff too; ``configuration_state`` and
  ``fold_configuration`` fold one configuration through the package's
  fold loop, ``keep_every_fold`` keeps every configuration's fold of a
  run for a ``ContextMap``, and ``run_with_configs`` runs ``run_tree_dp``
  and hands out the state of each configuration it folded;
- ``configuration_edges`` names the tree edge a configuration removes
  and the cycle edge it adds;
- ``connected_partitions_grown`` enumerates partitions a second way, to
  cross-check ``cactus_partition.oracle.enumerate_all``, and
  ``oracle_root_tuples`` lists the root tuples of a catalog's
  extendable partitions.
"""

from __future__ import annotations

from cactus_partition.backtrack import _keeper
from cactus_partition.dp_core import (
    MaskAlgebra,
    ProblemParams,
    _check_leaf_weights,
    _fold_configurations,
    _mask_state_to_set,
    run_tree_dp,
)
from cactus_partition.errors import WeightExceedsUpperError
from cactus_partition.graph_model import CactusGraph, Edge, edge_key
from cactus_partition.interval_dp import Interval
from cactus_partition.oracle import PartitionCatalog
from cactus_partition.tree_rep import CactusTree, CycleRecord


def cycle_node_states(tree, sets, cyc):
    """Full subtree states of the cycle's path nodes by path position, as
    ``run_tree_dp`` folds them; position 0, the start node, is None."""
    return [None] + [sets[(node, tree.full_index(node))] for node in cyc.path[1:]]


def configuration_state(alg, cyc, j, owns, start_state):
    """``(step, state)`` of configuration ``j`` (:func:`_fold_configurations`)."""
    return _fold_configurations(alg, cyc, (j,), owns, start_state)[0][1:]


def fold_configuration(alg, step, owns, start_state):
    """``(joined, chains)`` of configuration ``step.j``, before its last
    join: ``joined[c]`` is the start side that chain ``c``, ``(edge,
    positions, states)``, joins (see :func:`_fold_configurations`)."""
    folds = []
    _fold_configurations(alg, step.cycle, (step.j,), owns, start_state,
                         lambda _state, chains: folds.append(chains))
    return [chain[3] for chain in folds[0]], [chain[:3] for chain in folds[0]]


def keep_every_fold(folds: dict):
    """A ``run_tree_dp`` ``fold_sink`` putting every configuration's state
    and fold in ``folds``, keyed by the cycle's start context."""
    return _keeper(lambda: lambda _state: True, folds)


def run_with_configs(tree, alg, **options):
    """``run_tree_dp(tree, alg, **options)`` and the state of each
    configuration the run folds, keyed ``(cycle, j)``, as
    ``alg.union_configs`` receives them, ``(j, step, state)`` per
    configuration.  ``alg`` gets its own ``union_configs`` back after."""
    configs: dict = {}
    union = alg.union_configs

    def recording(folded, cycle):
        configs.update(((cycle, j), state) for j, _step, state in folded)
        return union(folded, cycle)

    alg.union_configs = recording
    try:
        return run_tree_dp(tree, alg, **options), configs
    finally:
        del alg.union_configs


def oplus(a, b, params: ProblemParams):
    """Combine two tuple sets across an edge (reference implementation).

    Returns exactly the pairs produced by keeping the child cluster
    separate (its weight must reach the lower bound) or merging the two
    root clusters (the sum must respect the upper bound), with cluster
    counts capped at the requested number.
    """
    lower, upper, p = params.lower, params.upper, params.num_clusters
    out = set()
    for (x1, k1) in a:
        for (x2, k2) in b:
            if x2 >= lower and k1 + k2 <= p:
                out.add((x1, k1 + k2))
            if x1 + x2 <= upper and k1 + k2 - 1 <= p:
                out.add((x1 + x2, k1 + k2 - 1))
    return out


def leaf_set(weight: int, params: ProblemParams):
    """Base set of a bare subtree root: one cluster holding just the vertex."""
    if weight > params.upper:
        raise WeightExceedsUpperError(
            f"vertex weight {weight} exceeds upper bound {params.upper}"
        )
    return {(weight, 1)}


def subtree_sets(tree: CactusTree, params: ProblemParams):
    """All tuple sets of the tree, keyed by ``(node, children_included)``."""
    _check_leaf_weights(tree.graph, params)
    states = run_tree_dp(tree, MaskAlgebra(tree.graph, params))
    return {ctx: _mask_state_to_set(state) for ctx, state in states.items()}


def cycle_config_sets(tree: CactusTree, params: ProblemParams, cycle: CycleRecord):
    """Per-configuration tuple sets of one cycle, keyed by configuration index.

    Every configuration 1..m-1 is folded, including those past the
    cycle's :func:`cycle_cutoff` that a run skips.
    """
    _check_leaf_weights(tree.graph, params)
    alg = MaskAlgebra(tree.graph, params)
    states = run_tree_dp(tree, alg)
    owns = cycle_node_states(tree, states, cycle)
    start_state = states[(cycle.start, cycle.start_child_index - 1)]
    return {
        j: _mask_state_to_set(configuration_state(alg, cycle, j, owns, start_state)[1])
        for j in range(1, cycle.length)
    }


def cycle_config_set(tree: CactusTree, params: ProblemParams, cycle: CycleRecord, j: int):
    """Tuple set contributed by configuration ``j`` of ``cycle``."""
    if not 1 <= j <= cycle.length - 1:
        raise IndexError(f"configuration index {j} out of range 1..{cycle.length - 1}")
    return cycle_config_sets(tree, params, cycle)[j]


def root_set(tree: CactusTree, params: ProblemParams):
    """Tuple set of the whole tree."""
    _check_leaf_weights(tree.graph, params)
    states = run_tree_dp(tree, MaskAlgebra(tree.graph, params))
    return _mask_state_to_set(states[(tree.root, tree.full_index(tree.root))])


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


def configuration_edges(cycle: CycleRecord, j: int) -> tuple[Edge | None, Edge | None]:
    """Edges (removed from the tree, re-added) that define configuration ``j``.

    Configuration 1 is the tree as built.  In configuration j >= 2 the
    node m-j+1 positions along the path stops being a child of its path
    predecessor and hangs off the path successor instead (indices wrap at
    the start node), so one tree edge is removed and one cycle edge comes
    back.  Only configurations 1..m-1 exist; the m-th would re-root the
    whole path and is never needed.
    """
    m = cycle.length
    if not 1 <= j <= m - 1:
        raise IndexError(f"configuration index {j} out of range 1..{m - 1}")
    if j == 1:
        return None, None
    ws = cycle.path
    removed = edge_key(ws[m - j], ws[m - j + 1])
    added = edge_key(ws[(m - j + 2) % m], ws[m - j + 1])
    return removed, added


def connected_partitions_grown(graph: CactusGraph):
    """Second enumerator: recursively grow a connected cluster around the
    smallest unassigned vertex.  Yields partitions as frozensets of
    frozensets; used to cross-check :func:`enumerate_all`."""
    adjacency = graph.adjacency

    def connected_sets(allowed: frozenset, start: str):
        def rec(cur: frozenset, frontier: frozenset, banned: frozenset):
            yield cur
            blocked = set(banned)
            for w in sorted(frontier):
                grown = cur | {w}
                new_frontier = (
                    frontier | {x for x in adjacency[w] if x in allowed}
                ) - grown - blocked
                yield from rec(grown, frozenset(new_frontier), frozenset(blocked))
                blocked.add(w)

        first = frozenset({start})
        frontier = frozenset(x for x in adjacency[start] if x in allowed)
        yield from rec(first, frontier, frozenset())

    def rec_partitions(remaining: frozenset):
        if not remaining:
            yield frozenset()
            return
        pivot = min(remaining)
        for cluster in connected_sets(remaining, pivot):
            for rest in rec_partitions(remaining - cluster):
                yield rest | {cluster}

    yield from rec_partitions(frozenset(graph.vertices))


def oracle_root_tuples(catalog: PartitionCatalog, upper: int, lower: int, root: str):
    """All (root cluster weight, count) pairs of extendable partitions.

    Extendable: every cluster except the one holding ``root`` lies in the
    weight window, while the root cluster only respects the upper bound.
    Mirrors what the solvers store for the whole tree.
    """
    tuples = set()
    for p in catalog.partitions:
        root_idx = next(i for i, c in enumerate(p.clusters) if root in c)
        if p.weights[root_idx] > upper:
            continue
        if all(
            lower <= w <= upper for i, w in enumerate(p.weights) if i != root_idx
        ):
            tuples.add((p.weights[root_idx], p.num_clusters))
    return tuples
