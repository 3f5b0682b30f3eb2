"""The deciders' runs keep only the DP frontier.

``run_tree_dp(..., frontier=True)`` drops each state once it is combined
into its parent or folded into its cycle.  Its root state must equal the
full run's, key order included, and a decide's memory must follow the
frontier, not the tree.  The deciders also take a ``CactusTree``, as the
other entry points do.
"""

import random
import tracemalloc

import pytest

from cactus_partition import (
    ProblemParams,
    build_tree,
    decide_p_partition,
    decide_p_partition_poly,
)
from cactus_partition.dp_core import MaskAlgebra, run_tree_dp
from cactus_partition.interval_dp import IntervalAlgebra

from util import path, random_graph, rings_and_necklaces


def _graphs():
    """Rings, necklaces with pendants and random cacti, seeded."""
    yield from rings_and_necklaces()
    for seed in range(8):
        yield random_graph(100 + seed, n=40, cycle_density=0.5)


def _windows(g):
    """Windows that every vertex fits, with counts from 1 to past n."""
    n, top = g.num_vertices, max(g.max_weight, 1)
    for lower, upper in ((0, top), (1, 2 * top), (top, 3 * top), (0, g.total_weight)):
        for p in (1, 2, n // 3 + 1, n, n + 1):
            yield ProblemParams(lower, upper, p)


@pytest.mark.parametrize("algebra", [MaskAlgebra, IntervalAlgebra])
def test_frontier_root_state_equals_the_full_runs(algebra):
    runs = 0
    for g in _graphs():
        for root in (None, max(g.vertices)):
            tree = build_tree(g, root)
            root_ctx = (tree.root, tree.full_index(tree.root))
            for params in _windows(g):
                alg = algebra(g, params)
                full = run_tree_dp(tree, alg)[root_ctx]
                kept = run_tree_dp(tree, alg, frontier=True)
                assert list(kept) == [root_ctx]
                assert list(kept[root_ctx].items()) == list(full.items())
                runs += bool(full)
    assert runs >= 400


@pytest.mark.parametrize("decide", [decide_p_partition, decide_p_partition_poly])
def test_deciders_answer_a_tree_as_its_graph(decide):
    answers = []
    for g in _graphs():
        for root in (None, max(g.vertices)):
            tree = build_tree(g, root)
            for params in _windows(g):
                answer = decide(tree, params)
                assert answer == decide(g, params, root)
                answers.append(answer)
    assert answers.count(True) >= 100 and answers.count(False) >= 100


def _peak(fn, *args, **kwargs):
    """Peak bytes allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("decide, algebra", [
    (decide_p_partition, MaskAlgebra),
    (decide_p_partition_poly, IntervalAlgebra),
])
def test_a_decide_holds_its_frontier_not_the_tree(decide, algebra):
    rng = random.Random(2000)
    g = path([rng.randint(0, 5) for _ in range(2000)])
    params = ProblemParams(10, 30, g.total_weight // 20)
    tree = build_tree(g)
    full = _peak(run_tree_dp, tree, algebra(g, params))
    frontier = _peak(decide, tree, params)
    assert decide(tree, params)
    assert frontier * 20 < full, (frontier, full)
