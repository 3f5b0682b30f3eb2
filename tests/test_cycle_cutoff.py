"""The cycle cutoff: a run folds configurations 1..J of a cycle, J the
first index whose arc (the start node, then path nodes m-1, ..., m-J)
outweighs the upper bound or whose rest (path nodes 1..m-J-1 and all
that hangs below them) weighs less than the lower bound, and
configurations J+1..m add nothing.

Each test recomputes J from its definition (``util.arc_cutoff``), checks
that the run folded exactly configurations 1..J, and folds the skipped
ones next to the run's union, or runs again folding every configuration.
A hand-built ring pins J for either bound.
"""

import random

import pytest
import variants_reference

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    dp_core,
    variants,
)
from cactus_partition.dp_core import (
    CycleStep,
    MaskAlgebra,
    TupleAlgebra,
    run_tree_dp,
)
from cactus_partition.interval_dp import IntervalAlgebra
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
from util import arc_cutoff, graph_from, random_graph, ring, rings_and_necklaces


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
            assert folded == list(range(1, arc_cutoff(g, cyc, g.weight, params.lower, params.upper) + 1))
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
            for cyc in tree.cycles:
                folded = _folded(sink, cyc)
                assert folded == list(range(1, arc_cutoff(g, cyc, *alg.arc_limit) + 1))
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
    assert arc_cutoff(g, cyc, g.weight, params.lower, params.upper) < cyc.length - 2
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
    cutoff = arc_cutoff(g, tree.cycles[0], g.weight, params.lower, params.upper)
    assert 0 < calls <= (cutoff + 1) * m


def _hand_built(lower, upper):
    """A 6-ring r0..r5 rooted at r0 with unit weights and sizes.  Path node
    r2 starts a 4-ring of three weight-3 vertices, and r3 holds a pendant
    path of two weight-2 vertices.  What hangs below path nodes 1..5,
    each node included, weighs 1, 10, 5, 1, 1 and has sizes 1, 4, 3, 1, 1."""
    weights = {f"r{i}": 1 for i in range(6)} | {"s1": 3, "s2": 3, "s3": 3, "t1": 2, "t2": 2}
    edges = [(f"r{i}", f"r{(i + 1) % 6}") for i in range(6)]
    edges += [("r2", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "r2"), ("r3", "t1"), ("t1", "t2")]
    g = graph_from(weights, edges, sizes=dict.fromkeys(weights, 1))
    return g, ProblemParams(lower, upper, g.num_vertices)


# (lower, upper) -> J.  Path nodes 1..t weigh 0, 1, 11, 16, 17 for t = 0..4,
# so the lower bound stops the ring at J = m - 1 - t for the largest t
# they stay below it at; the arc r0, r5, r4, ... weighs 1 + j.
HAND_CUTOFFS = {
    (0, 19): 5,  # neither bound: m - 1
    (1, 19): 5,  # t = 0
    (2, 19): 4,  # t = 1
    (11, 19): 4,
    (12, 19): 3,  # t = 2: r2's own 4-ring counts
    (16, 19): 3,
    (17, 19): 2,  # t = 3: r3's pendant path counts
    (18, 19): 1,  # t = 4
    (2, 3): 3,  # the arc passes 3 at j = 3, before the lower bound's 4
    (0, 4): 4,
}


@pytest.mark.parametrize(("lower", "upper"), sorted(HAND_CUTOFFS))
def test_hand_built_ring_stops_where_either_bound_says(lower, upper):
    """J pinned by hand for the outer ring, in full and frontier runs, on
    the mask and interval engines and the dict algebras.  A run that left
    r2's own ring or r3's pendant out of what hangs below them would stop
    early: at lower 12 it would fold one configuration, not three."""
    g, params = _hand_built(lower, upper)
    tree = build_tree(g)
    outer = tree.cycle_at[("r0", 1)]
    assert outer.path == ("r0", "r1", "r2", "r3", "r4", "r5")
    want = list(range(1, HAND_CUTOFFS[(lower, upper)] + 1))
    assert arc_cutoff(g, outer, g.weight, lower, upper) == want[-1]
    algebras = [
        MaskAlgebra(g, params),
        IntervalAlgebra(g, params),
        TupleAlgebra(g, params),
        variants.CostAlgebra(g, lower, upper, g.num_vertices),
        variants.CapacityAlgebra(g, lower, upper, 6),
    ]
    for alg in algebras:
        for frontier in (False, True):
            _states, sink = run_with_configs(tree, alg, frontier=frontier)
            assert _folded(sink, outer) == want, (alg, frontier)


def test_size_weight_cutoff_reads_sizes():
    """Size-weight algebras bound sizes, so both cutoffs read sizes: path
    nodes 1..t have sizes 0, 1, 5, 8, 9 for t = 0..4, and lower 6 stops the
    ring at J = 3, where weights would stop it at 4."""
    g, params = _hand_built(6, 11)
    tree = build_tree(g)
    outer = tree.cycle_at[("r0", 1)]
    _states, sink = run_with_configs(tree, MaskAlgebra(g, params))
    assert _folded(sink, outer) == [1, 2, 3, 4]
    for maximize in (False, True):
        alg = variants.SizeWeightAlgebra(g, 6, 11, 3, 10, maximize)
        _states, sink = run_with_configs(tree, alg)
        assert _folded(sink, outer) == [1, 2, 3]
        assert arc_cutoff(g, outer, g.size, 6, 11) == 3


def _plain(state):
    """A dict algebra's state with the states its records name left out."""
    return [(key, aux, [x for x in rec if not isinstance(x, dict)])
            for key, (aux, rec) in state.items()]


def test_states_equal_a_run_that_folds_every_configuration(monkeypatch):
    """Every context of the mask, tuple, cost, size-weight and capacity
    runs holds the state a run folding all m - 1 configurations of every
    cycle gives, records and key order included.  Interval states have the
    same counts, runs and lower endpoints.  Their stored upper endpoints
    may differ only where one of them lies above ``upper``: the endpoint
    contract ties each run to the true one, not to the other."""
    pairs = []
    for seed in range(60):
        g, tree, algebras = _dict_algebras(seed)
        lower, upper = algebras[0].lower, algebras[0].upper
        params = ProblemParams(lower, upper, g.num_vertices)
        algebras += [MaskAlgebra(g, params), TupleAlgebra(g, params), IntervalAlgebra(g, params)]
        pairs += [(tree, alg, run_tree_dp(tree, alg)) for alg in algebras]
    monkeypatch.setattr(dp_core, "cycle_cutoff", lambda alg, cyc, hang: cyc.length - 1)
    by_lower = 0
    for tree, alg, states in pairs:
        every = run_tree_dp(tree, alg)
        assert every.keys() == states.keys()
        for ctx, state in states.items():
            if isinstance(alg, IntervalAlgebra):
                assert state.keys() == every[ctx].keys(), ctx
                for k, runs in state.items():
                    assert len(runs) == len(every[ctx][k]), (ctx, k)
                    for (lo, hi), (lo_all, hi_all) in zip(runs, every[ctx][k]):
                        assert lo == lo_all and (hi == hi_all or max(hi, hi_all) > alg.upper)
            elif isinstance(alg, MaskAlgebra):
                assert state == every[ctx], ctx
            else:
                assert _plain(state) == _plain(every[ctx]), (alg, ctx)
        quantity, lower, upper = alg.arc_limit
        by_lower += sum(
            arc_cutoff(tree.graph, cyc, quantity, lower, upper)
            < arc_cutoff(tree.graph, cyc, quantity, 0, upper)
            for cyc in tree.cycles
        )
    assert by_lower > 100
