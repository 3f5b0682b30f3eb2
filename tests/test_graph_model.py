import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import canonicalize_partition, gen_random_cactus, validate_cactus
from cactus_partition.errors import (
    AttributeOverflowError,
    GraphError,
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


def _rejected(raw, error, message):
    with pytest.raises(error) as info:
        validate_cactus(raw)
    assert type(info.value) is error and str(info.value) == message


def test_empty_vertex_list_rejected():
    _rejected({"vertices": [], "edges": []}, GraphError, "graph has no vertices")


def test_duplicate_vertex_id_rejected():
    # ids are compared as strings, so 1 and "1" are the same vertex
    _rejected({"vertices": [{"id": 1, "weight": 1}, {"id": "1", "weight": 2}]},
              GraphError, "duplicate vertex id '1'")


@pytest.mark.parametrize("name", ["cost", "capacity"])
@pytest.mark.parametrize("value", [-1, True, 1.5])
def test_bad_edge_attribute_rejected(name, value):
    raw = {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"u": "a", "v": "b", name: value}]}
    _rejected(raw, NegativeAttributeError,
              f"{name} of edge ('a', 'b') must be a non-negative integer, got {value!r}")


@pytest.mark.parametrize("key, name", [
    ("weight", "weights"), ("size", "sizes"), ("cost", "costs"), ("capacity", "capacities"),
])
def test_attribute_sum_above_64_bits_rejected(key, name):
    def doc(first):
        vertices = [{"id": v, "weight": 0} for v in "abc"]
        edges = [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}]
        for entry, value in zip(vertices if key in ("weight", "size") else edges, (first, 2**62)):
            entry[key] = value
        return {"vertices": vertices, "edges": edges}

    _rejected(doc(2**62), AttributeOverflowError, f"sum of {name} exceeds 64-bit range")
    validate_cactus(doc(2**62 - 1))  # a sum of 2**63 - 1 is in range


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


def test_canonicalize_rejects_a_non_edge():
    with pytest.raises(GraphError) as info:
        canonicalize_partition(path([1, 2, 3]), {("n2", "n0")})
    assert type(info.value) is GraphError and str(info.value) == "cut contains non-edges: [('n0', 'n2')]"


def _triangle_with_tail():
    """Triangle a-c-e with the path e-b-f-d hanging off e."""
    edges = [("a", "c"), ("c", "e"), ("a", "e"), ("e", "b"), ("b", "f"), ("f", "d")]
    return graph_from(dict.fromkeys("abcdef", 1), edges)


def test_canonicalize_orders_clusters_by_their_least_vertex():
    """Cut edges in either orientation; each cluster sorted, the clusters
    by their first vertex, though the search from a meets e, b before c."""
    part = canonicalize_partition(_triangle_with_tail(), {("c", "a"), ("e", "c"), ("f", "b")})
    assert part.clusters == (("a", "b", "e"), ("c",), ("d", "f"))
    assert part.cut_edges == (("a", "c"), ("b", "f"), ("c", "e"))
    assert part.weights == (3, 1, 2)


def test_canonicalize_names_every_non_edge_sorted():
    cut = {("b", "a"), ("e", "c"), ("x", "a"), ("a", "d")}
    with pytest.raises(GraphError) as info:
        canonicalize_partition(_triangle_with_tail(), cut)
    assert type(info.value) is GraphError
    assert str(info.value) == "cut contains non-edges: [('a', 'b'), ('a', 'd'), ('a', 'x')]"


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


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 5.0}, "vertex count must be an integer, got 5.0"),
    ({"n": True}, "vertex count must be an integer, got True"),
    ({"n": 5, "cycle_density": "0.5"}, "cycle density must be a number, got '0.5'"),
    ({"n": 5, "weight_range": (1.5, 3)}, "bad weight range (1.5, 3): need two integers"),
    ({"n": 5, "size_range": (0, 2.5)}, "bad size range (0, 2.5): need two integers"),
    ({"n": 5, "cost_range": (0, 2, 4)}, "bad cost range (0, 2, 4): need two integers"),
    ({"n": 5, "capacity_range": ("0", 2)}, "bad capacity range ('0', 2): need two integers"),
])
def test_generator_rejects_parameters_of_the_wrong_type(kwargs, message):
    """A float count, a non-integer range bound or a string density is an
    ``InvalidParamsError``, not a ``ValueError`` or ``TypeError`` out of
    ``random``."""
    with pytest.raises(InvalidParamsError) as info:
        gen_random_cactus(seed=1, **kwargs)
    assert str(info.value) == message
