import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import (
    build_tree,
    capacity_partition,
    enumerate_all,
    max_partition,
    maxmin_partition,
    min_cost_partition,
    min_partition,
    minmax_partition,
    oracle_capacity,
    oracle_max,
    oracle_maxmin,
    oracle_min,
    oracle_min_cost,
    oracle_minmax,
)
from cactus_partition import tree_rep
from cactus_partition.dp_core import run_tree_dp
from cactus_partition.errors import InvalidParamsError
from cactus_partition.variants import _size_weight_solve

import variants_reference
from util import graph_from, path, random_graph, triangle


def star(caps):
    edges = [("c", "x"), ("c", "y"), ("c", "z")]
    return graph_from(
        {"c": 1, "x": 1, "y": 1, "z": 1},
        edges,
        capacities=dict(zip(edges, caps)),
    )


def test_min_max_on_unit_path():
    g = path([1, 1, 1])
    count, part = min_partition(g, 1, 3)
    assert count == 1 and part.num_clusters == 1
    count, part = max_partition(g, 1, 3)
    assert count == 3 and part.num_clusters == 3


def test_min_max_on_triangle():
    g = triangle(w=(2, 2, 2))
    # every split leaves a bare vertex of weight 2, so [3, 4] fits nothing
    assert min_partition(g, 3, 4) is None
    assert max_partition(g, 3, 4) is None
    count, part = min_partition(g, 2, 4)
    assert count == 2 and sorted(part.weights) == [2, 4]
    count, part = max_partition(g, 2, 4)
    assert count == 3


def test_min_infeasible_when_total_below_lower():
    g = path([1, 1])
    assert min_partition(g, 10, 20) is None


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_min_max_algorithms_agree(algorithm):
    g = random_graph(3, n=8, cycle_density=0.6)
    reference = min_partition(g, 1, g.total_weight)
    got = min_partition(g, 1, g.total_weight, algorithm=algorithm)
    assert got[0] == reference[0]


def test_min_cost_zero_when_single_cluster_fits():
    g = triangle(costs=(4, 5, 6))
    cost, part = min_cost_partition(g, 0, 9)
    assert cost == 0 and part.num_clusters == 1


def test_min_cost_picks_cheap_edge():
    g = graph_from(
        {"a": 1, "b": 1, "c": 1},
        [("a", "b"), ("b", "c")],
        costs={("a", "b"): 5, ("b", "c"): 1},
    )
    cost, part = min_cost_partition(g, 1, 2)
    assert cost == 1
    assert part.clusters == (("a", "b"), ("c",))


def test_min_cost_counts_cycle_closing_edge():
    g = triangle(costs=(1, 1, 1))
    cost, part = min_cost_partition(g, 1, 2, num_clusters=2)
    # splitting a cycle always severs two of its edges
    assert cost == 2
    assert part.num_clusters == 2


def test_min_cost_reduction_is_safe():
    # the reference's unreduced mode keeps every distinct cost as its own key
    for seed in range(25):
        g = random_graph(seed, n=seed % 7 + 1, cycle_density=0.5, cost_range=(0, 4))
        upper = max(g.total_weight // 2, g.max_weight)
        fast = min_cost_partition(g, 0, upper)
        tree = build_tree(g)
        alg = variants_reference.CostAlgebra(g, 0, upper, g.num_vertices, reduce_sets=False)
        root_state = run_tree_dp(tree, alg)[(tree.root, tree.full_index(tree.root))]
        slow = min((cost for (x, *_), (cost, _rec) in root_state.items() if x <= upper), default=None)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast[0] == slow


def test_min_cost_without_a_count_keys_on_weight_alone():
    """Without ``p`` every key keeps count 1: on a 200-vertex unit path
    over [1, 200] the states hold one entry per weight, not one per
    weight and count (1,333,699 cells when counts were kept)."""
    stats = {}
    cost, part = min_cost_partition(path([1] * 200), 1, 200, stats=stats)
    assert cost == 0 and all(1 <= w <= 200 for w in part.weights)
    assert stats["dp_cells"] <= 100_000


def test_min_cost_without_a_count_matches_oracle_on_ties():
    """Dense cycles and costs 0-2 give many optimal partitions.  The
    optimum equals the oracle's and the reference's, which keys on the
    count too, and the witness is a valid partition of that cost."""
    ties = 0
    for seed in range(120):
        rng = random.Random(seed)
        g = random_graph(seed, n=rng.randint(4, 10), cycle_density=0.9, cost_range=(0, 2))
        lower = rng.randint(0, 4)
        upper = lower + rng.randint(2, 9)
        catalog = enumerate_all(g)
        expected = oracle_min_cost(catalog, lower, upper)
        got = min_cost_partition(g, lower, upper)
        assert (got is None) == (expected is None), seed
        if got is None:
            continue
        tree = build_tree(g)
        alg = variants_reference.CostAlgebra(g, lower, upper, g.num_vertices)
        root_state = run_tree_dp(tree, alg)[(tree.root, tree.full_index(tree.root))]
        reference = min(cost for (x, _k), (cost, _rec) in root_state.items() if lower <= x <= upper)
        cost, part = got
        assert cost == expected[0] == reference == part.cost, seed
        assert all(lower <= w <= upper for w in part.weights), seed
        assert part in catalog.partitions, seed
        ties += sum(p.cost == cost and all(lower <= w <= upper for w in p.weights)
                    for p in catalog.partitions) > 1
    assert ties > 30  # 44 of these instances have two or more optimal partitions


def test_minmax_balanced_split():
    g = path([1, 1, 1, 1])
    weight, part = minmax_partition(g, 0, 4, 2)
    assert weight == 2
    assert part.num_clusters == 2


def test_maxmin_balanced_split():
    g = path([1, 1, 1, 1])
    weight, part = maxmin_partition(g, 0, 4, 2)
    assert weight == 2


def test_minmax_single_cluster_is_total_weight():
    g = path([1, 2, 3])
    assert minmax_partition(g, 0, 6, 1)[0] == 6
    assert maxmin_partition(g, 0, 6, 1)[0] == 6


def test_minmax_uses_sizes_not_weights():
    g = graph_from(
        {"a": 9, "b": 1, "c": 1},
        [("a", "b"), ("b", "c")],
        sizes={"a": 1, "b": 1, "c": 1},
    )
    # sizes allow any split; the weight objective decides
    weight, part = minmax_partition(g, 0, 3, 2)
    assert weight == 9
    assert sorted(part.weights) == [2, 9]


def test_minmax_decision_monotone_in_bound():
    for seed in range(10):
        g = random_graph(seed + 60, n=7, cycle_density=0.5, size_range=(0, 5))
        total = g.total_weight
        answers = [
            _size_weight_solve(build_tree(g), 0, sum(g.size.values()), 2, bound, False) is not None
            for bound in range(max(g.weight.values()), total + 1)
        ]
        assert answers == sorted(answers)  # False... then True...


def test_capacity_star_example():
    g = star(caps=(1, 1, 1))
    count, part = capacity_partition(g, 1, 1, 3)
    assert count == 4
    assert max(part.capacities) == 3


def test_capacity_star_infeasible_when_hub_overflows():
    assert capacity_partition(star(caps=(1, 1, 1)), 1, 1, 2) is None


@pytest.mark.parametrize("bound", [True, False, -1, 1.5, "3"])
def test_capacity_bound_must_be_a_non_negative_integer(bound):
    with pytest.raises(InvalidParamsError, match="capacity bound"):
        capacity_partition(star((1, 1, 1)), 1, 5, bound)


def test_capacity_reduces_to_plain_counts_when_loose():
    for seed in range(15):
        g = random_graph(seed, n=seed % 7 + 1, cycle_density=0.5, capacity_range=(0, 4))
        upper = max(g.total_weight // 2, g.max_weight, 1)
        loose = sum(g.capacity.values()) + 1
        plain_min = min_partition(g, 1, upper)
        capped = capacity_partition(g, 1, upper, loose)
        assert (plain_min is None) == (capped is None)
        if plain_min is not None:
            assert capped[0] == plain_min[0]
            assert capacity_partition(g, 1, upper, loose, objective="max")[0] == \
                max_partition(g, 1, upper)[0]


def test_min_count_never_exceeds_max_count():
    for seed in range(20):
        g = random_graph(seed + 500, n=seed % 8 + 1, cycle_density=0.5)
        upper = max(g.total_weight // 2, g.max_weight, 1)
        low = min_partition(g, 1, upper)
        high = max_partition(g, 1, upper)
        assert (low is None) == (high is None)
        if low is not None:
            assert 1 <= low[0] <= high[0] <= g.num_vertices


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), lower=st.integers(0, 6), span=st.integers(0, 8))
def test_extreme_counts_match_oracle(seed, lower, span):
    g = random_graph(seed, n=seed % 8 + 1, cycle_density=0.5)
    catalog = enumerate_all(g)
    upper = lower + span
    for solver, oracle_fn in ((min_partition, oracle_min), (max_partition, oracle_max)):
        got = solver(g, lower, upper)
        expected = oracle_fn(catalog, lower, upper)
        assert (got is None) == (expected is None)
        if got is not None:
            count, part = got
            assert count == expected[0]
            assert part.num_clusters == count
            assert all(lower <= w <= upper for w in part.weights)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), lower=st.integers(0, 5), span=st.integers(0, 8), p=st.integers(1, 8))
def test_weighted_variants_match_oracle(seed, lower, span, p):
    g = random_graph(
        seed, n=seed % 8 + 1, cycle_density=0.5,
        size_range=(0, 5), cost_range=(0, 5), capacity_range=(0, 5),
    )
    catalog = enumerate_all(g)
    upper = lower + span

    got = min_cost_partition(g, lower, upper, num_clusters=p)
    expected = oracle_min_cost(catalog, lower, upper, p)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got[0] == expected[0] == got[1].cost

    for solver, oracle_fn in ((minmax_partition, oracle_minmax), (maxmin_partition, oracle_maxmin)):
        got = solver(g, lower, upper, p)
        expected = oracle_fn(catalog, lower, upper, p)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[0] == expected[0]
            assert all(lower <= s <= upper for s in got[1].sizes)

    cap = seed % 12
    got = capacity_partition(g, lower, upper, cap)
    expected = oracle_capacity(catalog, lower, upper, cap)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got[0] == expected[0]
        assert all(c <= cap for c in got[1].capacities)


def _count_tree_builds(monkeypatch):
    """Count ``build_tree`` calls made through ``tree_rep.as_tree``."""
    calls = []
    build = tree_rep.build_tree

    def counted(graph, root=None):
        calls.append(root)
        return build(graph, root)

    monkeypatch.setattr(tree_rep, "build_tree", counted)
    return calls


@pytest.mark.parametrize("fn", [minmax_partition, maxmin_partition])
def test_size_weight_search_builds_one_tree(fn, monkeypatch):
    calls = _count_tree_builds(monkeypatch)
    g = random_graph(3, n=12, cycle_density=0.6, size_range=(1, 3))
    result = fn(g, 0, sum(g.size.values()), 3)
    assert result is not None
    assert len(calls) == 1


@pytest.mark.parametrize("fn", [minmax_partition, maxmin_partition])
def test_size_weight_search_needs_a_cluster_count(fn, monkeypatch):
    """No count is an error raised before any tree is built, from a graph
    (a ``TypeError`` from ``W // None`` before)."""
    calls = _count_tree_builds(monkeypatch)
    g = random_graph(3, n=12, cycle_density=0.6, size_range=(1, 3))
    with pytest.raises(InvalidParamsError, match=f"{fn.__name__} needs a cluster count, got None"):
        fn(g, 0, sum(g.size.values()), None)
    assert calls == []


def test_entry_points_accept_a_tree(monkeypatch):
    solves = [
        lambda g: min_partition(g, 1, 6),
        lambda g: max_partition(g, 1, 6, algorithm="tupleset"),
        lambda g: min_cost_partition(g, 1, 6),
        lambda g: minmax_partition(g, 0, 12, 2),
        lambda g: maxmin_partition(g, 0, 12, 2),
        lambda g: capacity_partition(g, 1, 8, 9, objective="max"),
    ]
    calls = _count_tree_builds(monkeypatch)
    answered = 0
    for seed in range(6):
        g = random_graph(seed, n=9, cycle_density=0.6, size_range=(1, 3),
                         cost_range=(0, 5), capacity_range=(0, 3))
        tree = build_tree(g)
        for solve in solves:
            del calls[:]
            got = solve(tree)
            assert calls == []
            assert got == solve(g)
            assert len(calls) == 1
            answered += got is not None
    assert answered >= 20
