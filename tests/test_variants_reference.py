"""The optimisation variants' dict algebras against their recorded reference.

``variants_reference`` keeps the algebras as they were when every
candidate pair built its record before ``_put`` decided whether to keep
it, and when ``CapacityAlgebra`` marked "no phase yet" with ``None``.  The
package's algebras build a record only for an entry they store and mark
that phase with -1.  Run over the same trees, both must give the same
states, key for key in the same order with the same aux values and
records naming the same keys, and the same cut set for every root key.  The lifted and chain states inside
cycle configurations, where the phase marks live, are compared too.  The
package stores each entry flat, ``(aux, tag, ...)``, and the reference as
``(aux, (tag, ...))``.  The package's combines also skip the candidates
that could not be stored, which the hand-built combines at the end pin.
"""

import random

import pytest
import variants_reference as ref

from cactus_partition import build_tree, variants
from cactus_partition.backtrack import collect_cuts
from cactus_partition.dp_core import CycleStep
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import cycle_node_states, fold_configuration, run_with_configs
from util import graph_from, random_graph

INSTANCES = 1000


def _plain(key):
    """The reference's key in the package's encoding (no phase: -1)."""
    return tuple(-1 if part is None else part for part in key)


def _instance(seed):
    """A seeded small cactus with sizes, costs and capacities, its tree and
    window parameters."""
    rng = random.Random(seed)
    g = random_graph(
        seed,
        n=rng.randint(1, 13),
        cycle_density=rng.choice((0.3, 0.6, 0.9)),
        weight_range=(0, 5),
        size_range=(0, 4),
        cost_range=(0, 5),
        capacity_range=(0, 4),
    )
    lower = rng.randint(0, 4)
    upper = max(lower + rng.randint(0, 9), 1)
    return rng, g, build_tree(g), lower, upper


def _algebra_pairs(seed):
    """(label, package algebra, reference algebra) pairs of one instance.

    Every instance runs both search directions, so each is covered on
    every instance.
    """
    rng, g, tree, lower, upper = _instance(seed)
    n = g.num_vertices
    count_cap = rng.choice((n, rng.randint(1, n)))
    count = rng.randint(1, n)
    bound = rng.randint(0, g.total_weight)
    cap = rng.randint(0, 12)
    pairs = [(
        "cost",
        variants.CostAlgebra(g, lower, upper, count_cap),
        ref.CostAlgebra(g, lower, upper, count_cap),
    )]
    for maximize in (True, False):
        pairs.append((
            f"sizeweight maximize={maximize}",
            variants.SizeWeightAlgebra(g, lower, upper, count, bound, maximize),
            ref.SizeWeightAlgebra(g, lower, upper, count, bound, maximize),
        ))
    pairs.append((
        "capacity",
        variants.CapacityAlgebra(g, lower, upper, cap),
        ref.CapacityAlgebra(g, lower, upper, cap),
    ))
    return tree, pairs


def _cycle_folds(tree, alg, states):
    """Every lifted and chain state of every cycle configuration, in order."""
    for cyc in tree.cycles:
        owns = cycle_node_states(tree, states, cyc)
        start_state = states[(cyc.start, cyc.start_child_index - 1)]
        for j in range(1, cyc.length):
            step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
            joined, chains = fold_configuration(alg, step, owns, start_state)
            yield from joined
            for _edge, _positions, chain in chains:
                yield from chain


def _choice(rec):
    """A record without its state references: which keys it came from."""
    tag = rec[0]
    if tag == "step":
        _, branch, _a, akey, _b, bkey, edge = rec
        return tag, branch, _plain(akey), _plain(bkey), edge
    if tag == "cfg":
        _, j, absent, _state, key = rec
        return tag, j, absent, _plain(key)
    if tag in ("lift", "strip"):
        return tag, _plain(rec[2])
    return rec


def _same_state(got, want, where):
    """The package's flat entries ``(aux, tag, ...)`` against the
    reference's ``(aux, (tag, ...))``."""
    assert list(got) == [_plain(key) for key in want], where
    assert [entry[0] for entry in got.values()] == [aux for aux, _rec in want.values()], where
    assert [_choice(entry[1:]) for entry in got.values()] == [
        _choice(rec) for _aux, rec in want.values()
    ], where


def _reference_cuts(state, key):
    """``collect_cuts`` over the reference's ``(aux, record)`` entries."""
    cuts = set()
    stack = [(state, key)]
    while stack:
        st, k = stack.pop()
        rec = st[k][1]
        if rec[0] == "step":
            _, branch, a_st, a_key, b_st, b_key, edge = rec
            if branch == "cut":
                cuts.add(edge)
            stack += [(a_st, a_key), (b_st, b_key)]
        elif rec[0] == "cfg":
            cuts.add(rec[2])
            stack.append((rec[3], rec[4]))
        elif rec[0] in ("lift", "strip"):
            stack.append((rec[1], rec[2]))
    return cuts


def test_dict_algebras_match_recorded_reference():
    seen = {"root_keys": 0, "cycle_configs": 0, "no_phase_keys": 0, "cut_sets": set()}
    for seed in range(INSTANCES):
        tree, pairs = _algebra_pairs(seed)
        root = (tree.root, tree.full_index(tree.root))
        for label, alg, ref_alg in pairs:
            where = f"seed {seed}, {label}"
            states, configs = run_with_configs(tree, alg)
            ref_states, ref_configs = run_with_configs(tree, ref_alg)
            assert list(states) == list(ref_states), where
            for node, want in ref_states.items():
                _same_state(states[node], want, f"{where}, state {node}")
            assert list(configs) == list(ref_configs), where
            for cfg, want in ref_configs.items():
                _same_state(configs[cfg], want, f"{where}, configuration {cfg[1]}")
            seen["cycle_configs"] += len(configs)
            folds = list(_cycle_folds(tree, alg, states))
            ref_folds = list(_cycle_folds(tree, ref_alg, ref_states))
            assert len(folds) == len(ref_folds), where
            for got, want in zip(folds, ref_folds):
                _same_state(got, want, f"{where}, cycle fold")
                seen["no_phase_keys"] += sum(key[2:3] == (-1,) for key in got)
            for key in ref_states[root]:
                cuts = collect_cuts(states[root], _plain(key))
                assert cuts == _reference_cuts(ref_states[root], key), f"{where}, root key {key}"
                seen["root_keys"] += 1
                seen["cut_sets"].add(frozenset(cuts))
    # the corpus reaches cycles, the no-phase mark and many distinct witnesses
    assert seen["cycle_configs"] > 1000
    assert seen["no_phase_keys"] > 100
    assert seen["root_keys"] > 10000
    assert len(seen["cut_sets"]) > 1000


# Hand-built operands for one combine over edge (n0, n1), cost 3 and
# capacity 2, window [2, 6].  The child's entries (2, 1) and (3, 1) share a
# count: the later one offers the same cut keys, at an aux no better (for
# cost, at the same child cost), so the combine skips them.  For cost the
# child (4, 1) then offers those keys strictly cheaper.  Against child
# (2, 1) the parent (5, 1) is too heavy to merge, but (6, 1) after it still
# takes a cut.  Pinned: (key, aux, branch, parent key, child key) in order.
KERNEL_CASES = {
    "cost": (
        lambda g: (variants.CostAlgebra(g, 2, 6, 3), ref.CostAlgebra(g, 2, 6, 3)),
        {(1, 1): 0, (5, 1): 4, (6, 1): 1},
        {(2, 1): 5, (3, 1): 5, (4, 1): 2},
        [
            ((1, 2), 5, "cut", (1, 1), (4, 1)),
            ((3, 1), 5, "merge", (1, 1), (2, 1)),
            ((5, 2), 9, "cut", (5, 1), (4, 1)),
            ((6, 2), 6, "cut", (6, 1), (4, 1)),
            ((4, 1), 5, "merge", (1, 1), (3, 1)),
            ((5, 1), 2, "merge", (1, 1), (4, 1)),
        ],
    ),
    "sizeweight": (
        lambda g: (
            variants.SizeWeightAlgebra(g, 2, 6, 3, 100, False),
            ref.SizeWeightAlgebra(g, 2, 6, 3, 100, False),
        ),
        {(1, 1): 4, (5, 1): 3, (6, 1): 1},
        {(2, 1): 7, (3, 1): 2, (4, 2): 9},
        [
            ((1, 2), 4, "cut", (1, 1), (2, 1)),
            ((3, 1), 11, "merge", (1, 1), (2, 1)),
            ((5, 2), 3, "cut", (5, 1), (2, 1)),
            ((6, 2), 1, "cut", (6, 1), (2, 1)),
            ((4, 1), 6, "merge", (1, 1), (3, 1)),
            ((1, 3), 4, "cut", (1, 1), (4, 2)),
            ((5, 3), 3, "cut", (5, 1), (4, 2)),
            ((6, 3), 1, "cut", (6, 1), (4, 2)),
        ],
    ),
    "capacity": (
        lambda g: (variants.CapacityAlgebra(g, 2, 6, 10), ref.CapacityAlgebra(g, 2, 6, 10)),
        {(1, 1): 0, (5, 1): 3, (6, 1): 1},
        {(2, 1): 7, (3, 1): 2, (4, 2): 1},
        [
            ((1, 2), 2, "cut", (1, 1), (2, 1)),
            ((3, 1), 7, "merge", (1, 1), (2, 1)),
            ((5, 2), 1, "merge", (1, 1), (4, 2)),
            ((6, 2), 3, "cut", (6, 1), (2, 1)),
            ((4, 1), 2, "merge", (1, 1), (3, 1)),
            ((1, 3), 2, "cut", (1, 1), (4, 2)),
            ((5, 3), 5, "cut", (5, 1), (4, 2)),
            ((6, 3), 3, "cut", (6, 1), (4, 2)),
        ],
    ),
}


@pytest.mark.parametrize("label", sorted(KERNEL_CASES))
def test_combine_skips_only_cuts_that_cannot_win(label):
    """One combine of hand-built operands, pinned, and equal to the
    reference's, which offers every candidate."""
    names = [f"n{i}" for i in range(6)]
    edges = [(names[i], names[i + 1]) for i in range(5)]
    g = graph_from(dict.fromkeys(names, 1), edges, costs={edges[0]: 3}, capacities={edges[0]: 2})
    make, a, b, want = KERNEL_CASES[label]
    alg, ref_alg = make(g)
    got = alg.combine(
        {key: (aux, "leaf", "n0") for key, aux in a.items()},
        {key: (aux, "leaf", "n1") for key, aux in b.items()},
        edges[0],
        None,
    )
    assert [(key, entry[0], entry[2], entry[4], entry[6]) for key, entry in got.items()] == want
    assert {entry[7] for entry in got.values()} == {edges[0]}
    ref_got = ref_alg.combine(
        {key: (aux, ("leaf", "n0")) for key, aux in a.items()},
        {key: (aux, ("leaf", "n1")) for key, aux in b.items()},
        edges[0],
        None,
    )
    assert [(key, aux, rec[1], rec[3], rec[5]) for key, (aux, rec) in ref_got.items()] == want
