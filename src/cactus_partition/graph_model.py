"""Vertex-weighted cactus graphs and connected partitions.

A cactus graph is a connected simple graph in which every edge lies on at
most one simple cycle.  Vertices carry non-negative integer weights (and
optional sizes), edges carry optional costs and capacities.  Instances are
immutable after validation and safe to share between solver runs.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CactusGraph:
    """A validated cactus graph. Build instances through :func:`validate_cactus`."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    weight: dict[str, int]
    size: dict[str, int]
    cost: dict[Edge, int]
    capacity: dict[Edge, int]
    adjacency: dict[str, tuple[str, ...]] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def total_weight(self) -> int:
        return sum(self.weight.values())

    @property
    def max_weight(self) -> int:
        return max(self.weight.values())

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.cost

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


def _check_attr(value, name: str, owner: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise NegativeAttributeError(
            f"{name} of {owner} must be a non-negative integer, got {value!r}"
        )
    return value


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
        w = _check_attr(entry.get("weight", 0), "weight", vid)
        s = _check_attr(entry.get("size", w), "size", vid)
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
        edges.append(key)
        cost[key] = _check_attr(entry.get("cost", 0), "cost", f"edge {key!r}")
        capacity[key] = _check_attr(entry.get("capacity", 0), "capacity", f"edge {key!r}")
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

    _check_connected(vertices, neighbours)
    _check_cactus(vertices, neighbours)

    return CactusGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        weight=weight,
        size=size,
        cost=cost,
        capacity=capacity,
        adjacency={v: tuple(ns) for v, ns in neighbours.items()},
    )


def _check_connected(vertices: list[str], neighbours: dict[str, list[str]]) -> None:
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(vertices):
        missing = next(v for v in vertices if v not in seen)
        raise NotConnectedError(f"vertex {missing!r} is not reachable")


def _check_cactus(vertices: list[str], neighbours: dict[str, list[str]]) -> None:
    # DFS; each back edge closes one fundamental cycle.  Marking the tree
    # edges of every such cycle detects an edge shared by two cycles.
    root = vertices[0]
    parent: dict[str, str | None] = {root: None}
    depth = {root: 0}
    on_cycle: set[Edge] = set()
    order: list[str] = []
    stack: list[tuple[str, iter]] = [(root, iter(neighbours[root]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w not in depth:
                parent[w] = v
                depth[w] = depth[v] + 1
                stack.append((w, iter(neighbours[w])))
                advanced = True
                break
            if w != parent[v] and depth[w] < depth[v]:
                # back edge (v, w): walk the tree path marking cycle edges
                cur = v
                while cur != w:
                    key = edge_key(cur, parent[cur])
                    if key in on_cycle:
                        raise NotCactusError(f"edge {key!r} lies on two cycles")
                    on_cycle.add(key)
                    cur = parent[cur]
        if not advanced:
            order.append(v)
            stack.pop()


@dataclass(frozen=True)
class Partition:
    """A partition of the vertex set into connected clusters.

    ``clusters`` are the connected components left after deleting
    ``cut_edges`` from the graph; ``cut_edges`` contains exactly the edges
    whose endpoints lie in different clusters.  Per-cluster aggregates are
    precomputed so oracle filters and validity checks stay cheap.
    """

    clusters: tuple[tuple[str, ...], ...]
    cut_edges: tuple[Edge, ...]
    weights: tuple[int, ...]
    sizes: tuple[int, ...]
    capacities: tuple[int, ...]
    cost: int

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
    unknown = removed - set(graph.edges)
    if unknown:
        raise GraphError(f"cut contains non-edges: {sorted(unknown)}")

    comp: dict[str, int] = {}
    clusters: list[list[str]] = []
    for start in graph.vertices:
        if start in comp:
            continue
        idx = len(clusters)
        comp[start] = idx
        members = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.adjacency[v]:
                if w in comp or edge_key(v, w) in removed:
                    continue
                comp[w] = idx
                members.append(w)
                stack.append(w)
        clusters.append(sorted(members))

    clusters.sort(key=lambda c: c[0])
    index = {v: i for i, members in enumerate(clusters) for v in members}

    cut_edges = []
    capacities = [0] * len(clusters)
    cost = 0
    for (u, v) in graph.edges:
        iu, iv = index[u], index[v]
        if iu != iv:
            cut_edges.append((u, v))
            cost += graph.cost[(u, v)]
            capacities[iu] += graph.capacity[(u, v)]
            capacities[iv] += graph.capacity[(u, v)]

    return Partition(
        clusters=tuple(tuple(c) for c in clusters),
        cut_edges=tuple(sorted(cut_edges)),
        weights=tuple(sum(graph.weight[v] for v in c) for c in clusters),
        sizes=tuple(sum(graph.size[v] for v in c) for c in clusters),
        capacities=tuple(capacities),
        cost=cost,
    )
