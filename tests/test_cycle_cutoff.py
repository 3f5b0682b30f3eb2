"""The cycle cutoff: a run folds configurations 1..J of a cycle, J the
first index whose arc (the start node, then path nodes m-1, ..., m-J)
outweighs the upper bound, and configurations J+1..m add nothing.

Each test recomputes J from its definition (``util.arc_cutoff``), checks
that the run folded exactly configurations 1..J, and folds the skipped
ones next to the run's union.
"""

import random

import variants_reference

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    variants,
)
from cactus_partition.dp_core import (
    CycleStep,
    MaskAlgebra,
    TupleAlgebra,
    run_tree_dp,
)
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import (
    configuration_state,
    cycle_config_set,
    cycle_config_sets,
    cycle_node_states,
    fold_configuration,
    root_set,
    run_with_configs,
)
from util import arc_cutoff, random_graph, ring, rings_and_necklaces


def _around(tree, states, cyc):
    """The cycle's node states, the start state before it and the union."""
    owns = cycle_node_states(tree, states, cyc)
    before = states[(cyc.start, cyc.start_child_index - 1)]
    return owns, before, states[(cyc.start, cyc.start_child_index)]


def _folded(sink, cyc):
    return sorted(j for c, j in sink if c == cyc)


def _mask_corpus():
    """Rings, necklaces and dense random cacti, each under three small
    windows, so that most cycles are cut off and some arcs weigh exactly
    ``u``."""
    rng = random.Random(0xC07)
    graphs = list(rings_and_necklaces())
    graphs += [random_graph(seed, n=rng.randint(6, 16), cycle_density=0.9) for seed in range(200)]
    for g in graphs:
        for _ in range(3):
            upper = rng.randint(g.max_weight, g.max_weight + 8)
            yield g, ProblemParams(rng.randint(0, upper), upper, g.num_vertices)


def test_configurations_past_the_cutoff_add_no_tuple():
    """Generalises acceptance criterion 6 (configuration m adds nothing)
    to every configuration past the cutoff, J+1..m.  The interval engine
    finds the same feasible counts on the same runs."""
    cycles = cut_off = 0
    for g, params in _mask_corpus():
        tree = build_tree(g)
        alg = MaskAlgebra(g, params)
        states, sink = run_with_configs(tree, alg)
        for cyc in tree.cycles:
            folded = _folded(sink, cyc)
            assert folded == list(range(1, arc_cutoff(cyc, g.weight, params.upper) + 1))
            owns, before, union = _around(tree, states, cyc)
            for j in range(len(folded) + 1, cyc.length + 1):
                _step, extra = configuration_state(alg, cyc, j, owns, before)
                assert not any(mask & ~union.get(k, 0) for k, mask in extra.items()), (cyc, j)
            cycles += 1
            cut_off += len(folded) < cyc.length - 1
        assert (
            annotate(tree, params, "interval").feasible_counts()
            == annotate(tree, params, "tupleset").feasible_counts()
        )
    assert cycles > 1500 and cut_off > 500


def _dict_algebras(seed):
    """The dict algebras of the package and of the recorded reference on
    one seeded dense cactus with a small window."""
    rng = random.Random(seed)
    g = random_graph(
        seed,
        n=rng.randint(4, 13),
        cycle_density=0.9,
        size_range=(0, 4),
        cost_range=(0, 5),
        capacity_range=(0, 4),
    )
    lower = rng.randint(0, 3)
    upper = lower + rng.randint(2, 8)
    n = g.num_vertices
    count, bound, cap = rng.randint(1, n), rng.randint(0, g.total_weight), rng.randint(0, 12)
    algebras = []
    for module in (variants, variants_reference):
        algebras += [
            module.CostAlgebra(g, lower, upper, n),
            module.SizeWeightAlgebra(g, lower, upper, count, bound, False),
            module.SizeWeightAlgebra(g, lower, upper, count, bound, True),
            module.CapacityAlgebra(g, lower, upper, cap),
        ]
    return g, build_tree(g), algebras


def _entries(state):
    """Keys in order, aux values and the configuration each record names."""
    return [(key, aux, rec[1], rec[2], rec[4]) for key, (aux, rec) in state.items()]


def test_dict_unions_over_every_configuration_equal_the_cut_off_unions():
    """Keys, aux and record choice: the lowest configuration holding a
    key's best aux always lies in 1..J."""
    cut_off = 0
    for seed in range(150):
        g, tree, algebras = _dict_algebras(seed)
        for alg in algebras:
            states, sink = run_with_configs(tree, alg)
            quantity, upper = alg.arc_limit
            for cyc in tree.cycles:
                folded = _folded(sink, cyc)
                assert folded == list(range(1, arc_cutoff(cyc, quantity, upper) + 1))
                owns, before, union = _around(tree, states, cyc)
                every = [
                    (j, *configuration_state(alg, cyc, j, owns, before))
                    for j in range(1, cyc.length)
                ]
                assert _entries(alg.union_configs(every, cyc)) == _entries(union), (seed, alg)
                cut_off += len(folded) < cyc.length - 1
    assert cut_off > 1000


def test_cycle_config_sets_hold_every_configuration():
    """The reference helpers fold configurations past the cutoff too; each
    equals ``TupleAlgebra``'s fold, and together they give the root set."""
    g = ring(12, seed=3)
    params = ProblemParams(3, 12, g.num_vertices)
    tree = build_tree(g)
    (cyc,) = tree.cycles
    assert arc_cutoff(cyc, g.weight, params.upper) < cyc.length - 2
    sets = cycle_config_sets(tree, params, cyc)
    assert sorted(sets) == list(range(1, cyc.length))
    ref = TupleAlgebra(g, params)
    owns, before, _union = _around(tree, run_tree_dp(tree, ref), cyc)
    for j, tuples in sets.items():
        step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
        joined, chains = fold_configuration(ref, step, owns, before)
        edge, _positions, top = chains[-1]
        assert tuples == ref.combine(joined[-1], top[-1], edge, step).keys(), j
    assert cycle_config_set(tree, params, cyc, cyc.length - 1) == sets[cyc.length - 1]
    assert set().union(*sets.values()) == root_set(tree, params)


def test_long_ring_combines_grow_with_the_cutoff_not_the_ring(monkeypatch):
    """A 600-node ring (weights 0-5, l 3, u 12) costs at most (J + 1) * m
    mask combines; folding all m - 1 configurations costs about 358,800."""
    calls = 0
    combine = MaskAlgebra.combine

    def counting(self, a, b, edge, step):
        nonlocal calls
        calls += 1
        return combine(self, a, b, edge, step)

    monkeypatch.setattr(MaskAlgebra, "combine", counting)
    m = 600
    g = ring(m, seed=m)
    params = ProblemParams(3, 12, -(-g.total_weight // 12) + 2)
    tree = build_tree(g)
    run_tree_dp(tree, MaskAlgebra(g, params))
    cutoff = arc_cutoff(tree.cycles[0], g.weight, params.upper)
    assert 0 < calls <= (cutoff + 1) * m
