import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import build_tree, gen_random_cactus, validate_cactus
from cactus_partition import graph_model, tree_rep
from cactus_partition.errors import NotCactusError, NotConnectedError
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import configuration_edges
from util import graph_from, path, random_graph


def square_cycle():
    # cycle r-x-y-z rooted at r
    return graph_from(
        {"r": 1, "x": 1, "y": 1, "z": 1},
        [("r", "x"), ("x", "y"), ("y", "z"), ("z", "r")],
    )


def test_cycle_becomes_root_to_descendant_path():
    tree = build_tree(square_cycle(), root="r")
    (cyc,) = tree.cycles
    assert cyc.start == "r"
    assert cyc.end == "z"
    assert cyc.path == ("r", "x", "y", "z")
    assert cyc.closing_edge == ("r", "z")


def test_path_has_no_cycles():
    tree = build_tree(path([1, 1, 1]), root="n0")
    assert tree.cycles == ()
    assert tree.children["n0"] == ("n1",)
    assert tree.children["n1"] == ("n2",)


def test_two_triangles_sharing_a_vertex():
    g = graph_from(
        {v: 1 for v in "sabcd"},
        [("s", "a"), ("a", "b"), ("b", "s"), ("s", "c"), ("c", "d"), ("d", "s")],
    )
    tree = build_tree(g, root="s")
    assert len(tree.cycles) == 2
    # shared vertex starts both cycles; nobody is a non-start member twice
    non_start_members = [v for c in tree.cycles for v in c.path[1:]]
    assert len(non_start_members) == len(set(non_start_members))
    assert all(c.start == "s" for c in tree.cycles)


def test_on_cycle_child_is_last():
    # hang an extra subtree off an interior cycle node: its on-cycle child
    # must come after the plain subtree regardless of adjacency order
    g = graph_from(
        {v: 1 for v in "rxyzt"},
        [("r", "x"), ("x", "t"), ("x", "y"), ("y", "z"), ("z", "r")],
    )
    tree = build_tree(g, root="r")
    assert tree.children["x"] == ("t", "y")
    assert tree.on_cycle_child["x"] == "y"
    (cyc,) = tree.cycles
    assert cyc.start_child_index == 1
    assert tree.full_index("x") == 1


def test_configuration_edges_square():
    tree = build_tree(square_cycle(), root="r")
    (cyc,) = tree.cycles
    assert configuration_edges(cyc, 1) == (None, None)
    # second configuration: y-z removed, z hangs off r again
    assert configuration_edges(cyc, 2) == (("y", "z"), ("r", "z"))
    # third: x-y removed, y becomes a child of z
    assert configuration_edges(cyc, 3) == (("x", "y"), ("y", "z"))


def test_configuration_index_bounds():
    tree = build_tree(square_cycle(), root="r")
    (cyc,) = tree.cycles
    for j in (0, 4, -1):
        with pytest.raises(IndexError):
            configuration_edges(cyc, j)


def test_absent_edges_cover_all_but_first_tree_edge():
    tree = build_tree(square_cycle(), root="r")
    (cyc,) = tree.cycles
    absent = {absent_cycle_edge(cyc, j) for j in range(1, cyc.length)}
    # every cycle edge except (w0, w1) is absent in exactly one configuration
    assert absent == {("r", "z"), ("y", "z"), ("x", "y")}
    assert absent_cycle_edge(cyc, cyc.length) == ("r", "x")


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_structure_invariants_on_random_cacti(seed):
    g = random_graph(seed, n=seed % 10 + 1, cycle_density=0.6)
    tree = build_tree(g)
    # spanning
    assert sorted(tree.parent) == sorted(g.vertices)
    # each node is a non-start member of at most one cycle
    membership = [v for c in tree.cycles for v in c.path[1:]]
    assert len(membership) == len(set(membership))
    for cyc in tree.cycles:
        assert cyc.length >= 3
        assert cyc.closing_edge in g.cost
        # interior nodes keep their on-cycle child last
        for i in range(1, cyc.length - 1):
            node = cyc.path[i]
            assert tree.children[node][-1] == cyc.path[i + 1]
        # the first path node sits at the recorded child position
        assert tree.children[cyc.start][cyc.start_child_index - 1] == cyc.path[1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_build_is_deterministic(seed):
    g = random_graph(seed, n=seed % 10 + 1, cycle_density=0.6)
    assert build_tree(g).to_data() == build_tree(g).to_data()


def _dfs_calls(monkeypatch):
    """Count ``dfs_tree`` runs by validation and by ``build_tree``."""
    calls = []
    dfs = graph_model.dfs_tree

    def counted(adjacency, root):
        calls.append(root)
        return dfs(adjacency, root)

    monkeypatch.setattr(graph_model, "dfs_tree", counted)
    monkeypatch.setattr(tree_rep, "dfs_tree", counted)
    return calls


def test_default_tree_reuses_the_validation_dfs(monkeypatch):
    calls = _dfs_calls(monkeypatch)
    doc = gen_random_cactus(40, cycle_density=0.5, seed=7)
    doc["vertices"].reverse()  # the first vertex is not the default root
    g = validate_cactus(doc)
    build_tree(g)
    build_tree(g, min(g.vertices))
    assert calls == [min(g.vertices)]
    build_tree(g, g.vertices[0])
    assert calls == [min(g.vertices), g.vertices[0]]


def test_reused_dfs_gives_the_same_trees():
    rng = random.Random(0xD75)
    for seed in range(360):
        doc = gen_random_cactus(
            rng.randint(1, 300), cycle_density=rng.choice((0.0, 0.3, 0.6, 0.9)), seed=seed
        )
        rng.shuffle(doc["vertices"])
        rng.shuffle(doc["edges"])
        g = validate_cactus(doc)
        fresh = g._replace(dfs=None)  # build_tree runs its own search
        for root in (None, g.vertices[-1]):
            assert build_tree(g, root).to_data() == build_tree(fresh, root).to_data()
        assert g.dfs[0] == build_tree(g).parent  # the kept search is left unchanged


def _bad_document(rng, seed):
    """A shuffled cactus document with extra vertices cut off from it, or
    extra chords, or both; a chord may still leave a cactus."""
    doc = gen_random_cactus(rng.randint(4, 40), cycle_density=0.5, seed=seed)
    ids = [v["id"] for v in doc["vertices"]]
    edges = {frozenset((e["u"], e["v"])) for e in doc["edges"]}
    mode = rng.choice(("apart", "chord", "both"))
    if mode != "chord":
        extra = [f"x{i}" for i in range(rng.randint(1, 3))]
        doc["vertices"] += [{"id": v, "weight": 1} for v in extra]
        if len(extra) > 1:
            doc["edges"].append({"u": extra[0], "v": extra[1]})
    if mode != "apart":
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(ids, 2)
            if frozenset((u, v)) not in edges:
                edges.add(frozenset((u, v)))
                doc["edges"].append({"u": u, "v": v})
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    return doc


def _first_vertex_error(doc):
    """Class and message of the error a search from the document's first
    vertex raises."""
    adjacency = {v["id"]: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        adjacency[e["u"]].append(e["v"])
        adjacency[e["v"]].append(e["u"])
    with pytest.raises((NotConnectedError, NotCactusError)) as info:
        graph_model.dfs_tree(adjacency, doc["vertices"][0]["id"])
    return type(info.value), str(info.value)


def test_errors_name_what_a_search_from_the_first_vertex_meets():
    rng = random.Random(0xBAD)
    kinds = []
    for seed in range(400):
        doc = _bad_document(rng, seed)
        try:
            validate_cactus(doc)
        except (NotConnectedError, NotCactusError) as exc:
            assert (type(exc), str(exc)) == _first_vertex_error(doc)
            kinds.append(type(exc))
    assert kinds.count(NotConnectedError) >= 100 and kinds.count(NotCactusError) >= 100
