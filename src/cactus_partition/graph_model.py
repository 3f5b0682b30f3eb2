"""Vertex-weighted cactus graphs and connected partitions.

A cactus graph is a connected simple graph in which every edge lies on at
most one simple cycle.  Vertices carry non-negative integer weights (and
optional sizes), edges carry optional costs and capacities.  Instances are
immutable after validation and safe to share between solver runs.

:func:`dfs_tree` is the one depth-first search of the package: validation
runs it from the default root (the smallest vertex id) to check that the
graph is connected and a cactus, and keeps the result, which
``tree_rep.build_tree`` reuses to turn every cycle into a tree path.  A
tree for any other root runs its own search.
"""

from __future__ import annotations

import reprlib
from collections import namedtuple

from .errors import (
    AttributeOverflowError,
    GraphError,
    NegativeAttributeError,
    NotCactusError,
    NotConnectedError,
    NotSimpleError,
)

INT64_MAX = 2**63 - 1

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def fields_repr(obj, names) -> str:
    """``Class(name=value, ...)`` over ``names``: a repr that leaves fields out."""
    return f"{type(obj).__name__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in names)})"


class CactusGraph(namedtuple(
    "CactusGraph", "vertices edges weight size cost capacity adjacency dfs", defaults=(None,)
)):
    """A validated cactus graph. Build instances through :func:`validate_cactus`.

    ``weight``/``size`` map vertices and ``cost``/``capacity`` edges (in
    :func:`edge_key` form) to integers.  ``dfs`` is ``dfs_tree(adjacency,
    min(vertices))``, the default root's search: equality, hashing and the
    repr leave it out, and the repr leaves out ``adjacency`` too.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:7] == other[:7]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:7])

    def __repr__(self):
        return fields_repr(self, self._fields[:6])

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def total_weight(self) -> int:
        return sum(self.weight.values())

    @property
    def max_weight(self) -> int:
        return max(self.weight.values())

    def to_data(self) -> dict:
        """Plain-dict form matching the JSON graph file format."""
        return {
            "vertices": [
                {"id": v, "weight": self.weight[v], "size": self.size[v]}
                for v in self.vertices
            ],
            "edges": [
                {"u": u, "v": v, "cost": self.cost[(u, v)], "capacity": self.capacity[(u, v)]}
                for (u, v) in self.edges
            ],
        }


def _check_attr(value, name: str, owner: str) -> None:
    """Raise unless ``value`` is a non-negative int (not a bool); the slow
    path of ``validate_cactus``, which passes plain ints inline."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise NegativeAttributeError(
            f"{name} of {owner} must be a non-negative integer, got {value!r}"
        )


def validate_cactus(raw: dict) -> CactusGraph:
    """Validate a raw graph description and return a :class:`CactusGraph`.

    ``raw`` follows the graph file format::

        {"vertices": [{"id": str, "weight": int, "size": int?}, ...],
         "edges": [{"u": str, "v": str, "cost": int?, "capacity": int?}, ...]}

    Missing sizes default to the vertex weight, missing costs and
    capacities default to zero.  Raises a :class:`GraphError` subclass
    naming the offending vertex or edge when the input is not a simple
    connected cactus with non-negative integer attributes.
    """
    try:
        raw_vertices = list(raw["vertices"])
        raw_edges = list(raw.get("edges", []))
    except (TypeError, KeyError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc

    vertices: list[str] = []
    weight: dict[str, int] = {}
    size: dict[str, int] = {}
    for entry in raw_vertices:
        if not isinstance(entry, dict) or "id" not in entry:
            raise GraphError(f"vertex entry {reprlib.repr(entry)} is not an object with an id")
        vid = str(entry["id"])
        if vid in weight:
            raise GraphError(f"duplicate vertex id {vid!r}")
        w = entry.get("weight", 0)
        s = entry.get("size", w)
        if w.__class__ is not int or s.__class__ is not int or w < 0 or s < 0:
            _check_attr(w, "weight", vid)
            _check_attr(s, "size", vid)
        vertices.append(vid)
        weight[vid] = w
        size[vid] = s
    if not vertices:
        raise GraphError("graph has no vertices")

    edges: list[Edge] = []
    cost: dict[Edge, int] = {}
    capacity: dict[Edge, int] = {}
    neighbours: dict[str, list[str]] = {v: [] for v in vertices}
    for entry in raw_edges:
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise GraphError(f"edge entry {reprlib.repr(entry)} is not an object with u and v")
        u, v = str(entry["u"]), str(entry["v"])
        if u not in weight or v not in weight:
            raise GraphError(f"edge ({u!r}, {v!r}) references an unknown vertex")
        if u == v:
            raise NotSimpleError(f"self-loop at {u!r}")
        key = edge_key(u, v)
        if key in cost:
            raise NotSimpleError(f"parallel edge {key!r}")
        c = entry.get("cost", 0)
        cap = entry.get("capacity", 0)
        if c.__class__ is not int or cap.__class__ is not int or c < 0 or cap < 0:
            _check_attr(c, "cost", f"edge {key!r}")
            _check_attr(cap, "capacity", f"edge {key!r}")
        edges.append(key)
        cost[key] = c
        capacity[key] = cap
        neighbours[u].append(v)
        neighbours[v].append(u)

    for total, name in (
        (sum(weight.values()), "weights"),
        (sum(size.values()), "sizes"),
        (sum(cost.values()), "costs"),
        (sum(capacity.values()), "capacities"),
    ):
        if total > INT64_MAX:
            raise AttributeOverflowError(f"sum of {name} exceeds 64-bit range")

    adjacency = {v: tuple(ns) for v, ns in neighbours.items()}
    try:
        dfs = dfs_tree(adjacency, min(vertices))
    except (NotConnectedError, NotCactusError):
        dfs = None
    if dfs is None:
        # the error names what a search from the first vertex meets first,
        # whichever vertex is the default root
        dfs_tree(adjacency, vertices[0])

    return CactusGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        weight=weight,
        size=size,
        cost=cost,
        capacity=capacity,
        adjacency=adjacency,
        dfs=dfs,
    )


def dfs_tree(adjacency: dict, root: str) -> tuple[dict, dict, list]:
    """Iterative depth-first search from ``root``: the package's one DFS.

    Neighbours are visited in adjacency order.  Returns ``(parent,
    children, cycle_paths)``: ``children[v]`` lists v's tree children in
    discovery order, and each back edge gives a cycle path, the tree path
    from the cycle's top (the ancestor end) down to the edge's other end,
    in back-edge order.

    Raises :class:`NotConnectedError` naming the first vertex of
    ``adjacency`` not reached, and then :class:`NotCactusError` if a
    vertex lies below the top of two cycle paths (its tree edge to its
    parent is then on two cycles).
    """
    parent: dict[str, str | None] = {root: None}
    depth = {root: 0}
    children: dict[str, list[str]] = {v: [] for v in adjacency}
    cycle_paths: list[tuple[str, ...]] = []
    below_top: set[str] = set()  # vertices below the top of a cycle path
    shared = None  # first tree edge seen on two cycles
    stack = [(root, iter(adjacency[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if w not in depth:
                parent[w] = v
                depth[w] = depth[v] + 1
                children[v].append(w)
                stack.append((w, iter(adjacency[w])))
                break
            if w != parent[v] and depth[w] < depth[v] and shared is None:
                # back edge: the tree path from w down to v is a cycle path
                # (none is built once the graph is known not to be a cactus:
                # on a dense graph that would take vertices x edges time)
                path = [v]
                while path[-1] != w:
                    node = path[-1]
                    if node in below_top:
                        shared = edge_key(node, parent[node])
                        break
                    below_top.add(node)
                    path.append(parent[node])
                path.reverse()
                cycle_paths.append(tuple(path))
        else:
            stack.pop()
    if len(parent) != len(adjacency):
        missing = next(v for v in adjacency if v not in parent)
        raise NotConnectedError(f"vertex {missing!r} is not reachable")
    if shared is not None:
        raise NotCactusError(f"edge {shared!r} lies on two cycles")
    return parent, children, cycle_paths


class Partition(namedtuple("Partition", "clusters cut_edges weights sizes capacities cost")):
    """A partition of the vertex set into connected clusters.

    ``clusters`` are the connected components left after deleting
    ``cut_edges`` from the graph; ``cut_edges`` contains exactly the edges
    whose endpoints lie in different clusters.  Per-cluster aggregates are
    precomputed so oracle filters and validity checks stay cheap.
    """

    __slots__ = ()

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def cluster_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(c) for c in self.clusters)

    def max_weight(self) -> int:
        return max(self.weights)

    def min_weight(self) -> int:
        return min(self.weights)


def canonicalize_partition(graph: CactusGraph, cut: set[Edge] | frozenset[Edge]) -> Partition:
    """Partition induced by deleting ``cut``, with the cut set normalised.

    Deleting a single cycle edge does not disconnect the cycle, so a raw
    cut set may contain edges whose endpoints end up in the same cluster;
    those are dropped here.  The result is idempotent: re-canonicalising
    the returned cut set reproduces the same clusters.
    """
    removed = {edge_key(u, v) for (u, v) in cut}
    unknown = [e for e in removed if e not in graph.cost]  # cost is keyed by the edges
    if unknown:
        raise GraphError(f"cut contains non-edges: {sorted(unknown)}")
    severed: dict[str, set[str]] = {}  # vertex -> its neighbours across a cut edge
    for u, v in removed:
        severed.setdefault(u, set()).add(v)
        severed.setdefault(v, set()).add(u)

    adjacency = graph.adjacency
    seen: set[str] = set()
    clusters: list[list[str]] = []
    for start in graph.vertices:
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for v in members:  # the list grows as the search reaches new vertices
            cut_off = severed.get(v, ())
            for w in adjacency[v]:
                if w not in seen and w not in cut_off:
                    seen.add(w)
                    members.append(w)
        clusters.append(sorted(members))

    clusters.sort(key=lambda c: c[0])
    index = {v: i for i, members in enumerate(clusters) for v in members}

    # only a cut edge can join two clusters
    cut_edges = sorted(e for e in removed if index[e[0]] != index[e[1]])
    capacities = [0] * len(clusters)
    for e in cut_edges:
        capacities[index[e[0]]] += graph.capacity[e]
        capacities[index[e[1]]] += graph.capacity[e]

    return Partition(
        clusters=tuple(tuple(c) for c in clusters),
        cut_edges=tuple(cut_edges),
        weights=tuple(sum(graph.weight[v] for v in c) for c in clusters),
        sizes=tuple(sum(graph.size[v] for v in c) for c in clusters),
        capacities=tuple(capacities),
        cost=sum(graph.cost[e] for e in cut_edges),
    )
