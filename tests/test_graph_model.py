import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import canonicalize_partition, gen_random_cactus, validate_cactus
from cactus_partition.errors import (
    InvalidParamsError,
    NegativeAttributeError,
    NotCactusError,
    NotConnectedError,
    NotSimpleError,
)

from util import graph_from, path, random_graph, triangle


def test_triangle_is_valid():
    g = triangle()
    assert set(g.vertices) == {"a", "b", "c"}
    assert g.total_weight == 3


def test_path_is_valid_cactus():
    g = path([1, 2, 3])
    assert g.num_vertices == 3


def test_k4_is_not_cactus():
    names = "abcd"
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    with pytest.raises(NotCactusError):
        graph_from({v: 1 for v in names}, edges)


def test_two_triangles_sharing_an_edge_rejected():
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("b", "d"), ("c", "d")]
    with pytest.raises(NotCactusError):
        graph_from({v: 1 for v in "abcd"}, edges)


def test_self_loop_rejected():
    with pytest.raises(NotSimpleError):
        graph_from({"a": 1, "b": 1}, [("a", "b"), ("a", "a")])


def test_parallel_edge_rejected():
    with pytest.raises(NotSimpleError):
        graph_from({"a": 1, "b": 1}, [("a", "b"), ("b", "a")])


_K4 = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1 :]]


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ("abc", [("a", "b")]),
        # the reachable part is not a cactus either; connectivity is checked first
        ("abcde", _K4),
    ],
    ids=["path-and-isolated-vertex", "k4-and-isolated-vertex"],
)
def test_disconnected_rejected(vertices, edges):
    with pytest.raises(NotConnectedError):
        graph_from({v: 1 for v in vertices}, edges)


def test_negative_weight_rejected():
    with pytest.raises(NegativeAttributeError):
        graph_from({"a": -1}, [])


def test_attribute_defaults():
    g = graph_from({"a": 3, "b": 2}, [("a", "b")])
    assert g.size == {"a": 3, "b": 2}
    assert g.cost[("a", "b")] == 0
    assert g.capacity[("a", "b")] == 0


def test_document_round_trip():
    g = triangle(costs=(1, 2, 3), capacities=(4, 5, 6))
    again = validate_cactus(json.loads(json.dumps(g.to_data())))
    assert again == g


def test_canonicalize_no_cut_single_cluster():
    g = path([1, 1, 1])
    part = canonicalize_partition(g, set())
    assert part.clusters == (("n0", "n1", "n2"),)
    assert part.cut_edges == ()


def test_canonicalize_strips_harmless_cycle_edge():
    g = triangle()
    part = canonicalize_partition(g, {("a", "b")})
    assert part.clusters == (("a", "b", "c"),)
    assert part.cut_edges == ()


def test_canonicalize_two_cycle_cuts_split():
    g = triangle()
    part = canonicalize_partition(g, {("a", "b"), ("b", "c")})
    assert part.clusters == (("a", "c"), ("b",))
    assert part.cut_edges == (("a", "b"), ("b", "c"))
    assert part.weights == (2, 1)


def test_aggregates():
    g = triangle(w=(1, 2, 4), costs=(10, 20, 30), capacities=(1, 1, 1))
    part = canonicalize_partition(g, {("a", "b"), ("b", "c")})
    assert part.cost == 30
    assert part.capacities == (2, 2)  # both cut edges touch each cluster


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_canonicalize_idempotent(seed, data):
    g = random_graph(seed, n=seed % 8 + 1, cycle_density=0.5)
    cut = {e for e in g.edges if data.draw(st.booleans())}
    part = canonicalize_partition(g, cut)
    again = canonicalize_partition(g, set(part.cut_edges))
    assert again.clusters == part.clusters
    assert again.cut_edges == part.cut_edges


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_clusters_partition_the_vertices(seed, data):
    g = random_graph(seed, n=seed % 9 + 1, cycle_density=0.5)
    cut = {e for e in g.edges if data.draw(st.booleans())}
    part = canonicalize_partition(g, cut)
    seen = [v for cluster in part.clusters for v in cluster]
    assert sorted(seen) == sorted(g.vertices)
    assert len(seen) == len(set(seen))


def test_shared_cycle_edge_is_named():
    # two triangles on the edge (b, c): the DFS from a puts it on both cycle paths
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("b", "d"), ("c", "d")]
    with pytest.raises(NotCactusError, match=r"edge \('b', 'c'\) lies on two cycles"):
        graph_from({v: 1 for v in "abcd"}, edges)


@pytest.mark.parametrize("ranges", [
    {"weight_range": (-1, 3)},
    {"weight_range": (4, 2)},
    {"size_range": (3, 1)},
    {"size_range": (-1, 2)},
    {"cost_range": (-2, 1)},
    {"cost_range": (2, 0)},
    {"capacity_range": (5, 2)},
    {"capacity_range": (-3, -1)},
])
def test_generator_rejects_bad_ranges(ranges):
    """Every attribute range is checked alike, before any vertex is drawn."""
    name = next(iter(ranges)).removesuffix("_range")
    with pytest.raises(InvalidParamsError, match=f"bad {name} range"):
        gen_random_cactus(8, seed=1, **ranges)
