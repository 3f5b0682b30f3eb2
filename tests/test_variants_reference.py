"""The optimisation variants' dict algebras against their recorded reference.

``variants_reference`` keeps the algebras as they were when every
candidate pair built its record before ``_put`` decided whether to keep
it, and when ``CapacityAlgebra`` marked "no phase yet" with ``None``.  The
package's algebras build a record only for an entry they store and mark
that phase with -1.  Run over the same trees, both must give the same
states, key for key in the same order with the same aux values and
records naming the same keys, and the same cut set for every root key.  The lifted and chain states inside
cycle configurations, where the phase marks live, are compared too.
"""

import random

import variants_reference as ref

from cactus_partition import build_tree, variants
from cactus_partition.backtrack import collect_cuts
from cactus_partition.dp_core import (
    CycleStep,
    cycle_node_states,
    fold_configuration,
    run_tree_dp,
)
from cactus_partition.tree_rep import absent_cycle_edge

from util import random_graph

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
            joined, chains = fold_configuration(alg, step, owns, start_state, alg.combine)
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
    assert list(got) == [_plain(key) for key in want], where
    assert [aux for aux, _rec in got.values()] == [aux for aux, _rec in want.values()], where
    assert [_choice(rec) for _aux, rec in got.values()] == [
        _choice(rec) for _aux, rec in want.values()
    ], where


def test_dict_algebras_match_recorded_reference():
    seen = {"root_keys": 0, "cycle_configs": 0, "no_phase_keys": 0, "cut_sets": set()}
    for seed in range(INSTANCES):
        tree, pairs = _algebra_pairs(seed)
        root = (tree.root, tree.full_index(tree.root))
        for label, alg, ref_alg in pairs:
            where = f"seed {seed}, {label}"
            configs, ref_configs = {}, {}
            states = run_tree_dp(tree, alg, config_sink=configs)
            ref_states = run_tree_dp(tree, ref_alg, config_sink=ref_configs)
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
                assert cuts == collect_cuts(ref_states[root], key), f"{where}, root key {key}"
                seen["root_keys"] += 1
                seen["cut_sets"].add(frozenset(cuts))
    # the corpus reaches cycles, the no-phase mark and many distinct witnesses
    assert seen["cycle_configs"] > 1000
    assert seen["no_phase_keys"] > 100
    assert seen["root_keys"] > 10000
    assert len(seen["cut_sets"]) > 1000
