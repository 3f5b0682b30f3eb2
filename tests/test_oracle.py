import pytest

from cactus_partition import (
    enumerate_all,
    oracle_capacity,
    oracle_decide,
    oracle_min,
    oracle_min_cost,
)
from cactus_partition.errors import TooLargeError

from dp_reference import connected_partitions_grown
from util import graph_from, path, random_graph, triangle


def test_single_vertex_has_one_partition():
    assert len(enumerate_all(graph_from({"a": 1}, []))) == 1


def test_triangle_has_five_partitions():
    catalog = enumerate_all(triangle())
    assert len(catalog) == 5
    counts = sorted(p.num_clusters for p in catalog.partitions)
    assert counts == [1, 2, 2, 2, 3]


def test_path_of_three_has_four_partitions():
    assert len(enumerate_all(path([1, 1, 1]))) == 4


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_tree_catalog_size_is_two_to_the_edges(n):
    g = random_graph(n, n=n, cycle_density=0.0)
    assert len(enumerate_all(g)) == 2 ** (n - 1)


def test_too_large_rejected():
    g = random_graph(0, n=30, cycle_density=0.0)
    with pytest.raises(TooLargeError):
        enumerate_all(g, max_edges=16)


def test_cross_check_with_grown_enumerator():
    for seed in range(30):
        g = random_graph(seed, n=seed % 8 + 1, cycle_density=0.6)
        catalog = enumerate_all(g)
        subset_based = {p.cluster_sets() for p in catalog.partitions}
        grown = set(connected_partitions_grown(g))
        assert subset_based == grown
        assert len(subset_based) == len(catalog)


def test_decide_filters():
    catalog = enumerate_all(triangle())
    assert oracle_decide(catalog, 1, 1, 3) is True
    assert oracle_decide(catalog, 2, 2, 1) is False
    assert oracle_decide(catalog, 2, 2, 2) is False
    assert oracle_decide(catalog, 2, 2, 3) is False


def test_min_cost_filter():
    g = graph_from(
        {"a": 2, "b": 2, "c": 2},
        [("a", "b"), ("b", "c")],
        costs={("a", "b"): 5, ("b", "c"): 1},
    )
    # the whole path weighs 6 > 4, so some edge must be cut; b-c is cheapest
    value, witnesses = oracle_min_cost(enumerate_all(g), 1, 4)
    assert value == 1
    assert witnesses[0].clusters == (("a", "b"), ("c",))


def test_min_and_capacity_filters():
    edges = [("c", "x"), ("c", "y"), ("c", "z")]
    g = graph_from(
        {"c": 1, "x": 1, "y": 1, "z": 1},
        edges,
        capacities={e: 1 for e in edges},
    )
    catalog = enumerate_all(g)
    assert oracle_min(catalog, 1, 4)[0] == 1
    assert oracle_capacity(catalog, 1, 1, 3)[0] == 4
    assert oracle_capacity(catalog, 1, 1, 2) is None
