"""Brute-force ground truth for small instances.

Every partition into connected clusters is reachable by deleting an edge
subset, so enumerating all 2^|E| subsets and deduplicating the resulting
component structures yields the complete catalog of partitions.  All
solver answers on small graphs are checked against filters over this
catalog.  The tests cross-check the catalog itself with a second,
structurally different enumerator (growing connected clusters around
pivot vertices).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import TooLargeError
from .graph_model import CactusGraph, Partition, canonicalize_partition


class PartitionCatalog(namedtuple("PartitionCatalog", "graph partitions")):
    """Every connected partition of ``graph``, each exactly once, in
    ``partitions``; its length is the number of partitions."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.partitions)


def enumerate_all(graph: CactusGraph, max_edges: int = 16) -> PartitionCatalog:
    """Enumerate every connected partition of ``graph``.

    Distinct edge subsets can induce the same partition (deleting one
    cycle edge changes nothing), so component signatures are deduplicated
    before the surviving cut sets are canonicalised.
    """
    edges = graph.edges
    if len(edges) > max_edges:
        raise TooLargeError(f"{len(edges)} edges exceed the oracle limit {max_edges}")
    index = {v: i for i, v in enumerate(graph.vertices)}
    pairs = [(index[u], index[v]) for (u, v) in edges]
    n = len(graph.vertices)

    seen: dict[tuple[int, ...], int] = {}
    for bits in range(1 << len(edges)):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (a, b) in enumerate(pairs):
            if not bits >> i & 1:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        labels: dict[int, int] = {}
        sig = tuple(labels.setdefault(find(x), len(labels)) for x in range(n))
        seen.setdefault(sig, bits)

    partitions = []
    for bits in seen.values():
        cut = {edges[i] for i in range(len(edges)) if bits >> i & 1}
        partitions.append(canonicalize_partition(graph, cut))
    partitions.sort(key=lambda p: p.clusters)
    return PartitionCatalog(graph, tuple(partitions))


def _window(part: Partition, lower: int, upper: int) -> bool:
    return all(lower <= w <= upper for w in part.weights)


def oracle_decide(catalog: PartitionCatalog, lower: int, upper: int, num_clusters: int) -> bool:
    return any(
        p.num_clusters == num_clusters and _window(p, lower, upper)
        for p in catalog.partitions
    )


def _best(parts, value, minimize):
    if not parts:
        return None
    best = min(value(p) for p in parts) if minimize else max(value(p) for p in parts)
    return best, [p for p in parts if value(p) == best]


def oracle_min(catalog, lower, upper):
    return _best(
        [p for p in catalog.partitions if _window(p, lower, upper)],
        lambda p: p.num_clusters,
        True,
    )


def oracle_max(catalog, lower, upper):
    return _best(
        [p for p in catalog.partitions if _window(p, lower, upper)],
        lambda p: p.num_clusters,
        False,
    )


def oracle_min_cost(catalog, lower, upper, num_clusters=None):
    parts = [
        p
        for p in catalog.partitions
        if _window(p, lower, upper)
        and (num_clusters is None or p.num_clusters == num_clusters)
    ]
    return _best(parts, lambda p: p.cost, True)


def oracle_minmax(catalog, lower, upper, num_clusters):
    parts = [
        p
        for p in catalog.partitions
        if p.num_clusters == num_clusters
        and all(lower <= s <= upper for s in p.sizes)
    ]
    return _best(parts, lambda p: max(p.weights), True)


def oracle_maxmin(catalog, lower, upper, num_clusters):
    parts = [
        p
        for p in catalog.partitions
        if p.num_clusters == num_clusters
        and all(lower <= s <= upper for s in p.sizes)
    ]
    return _best(parts, lambda p: min(p.weights), False)


def oracle_capacity(catalog, weight_lower, weight_upper, capacity_upper, objective="min"):
    parts = [
        p
        for p in catalog.partitions
        if _window(p, weight_lower, weight_upper)
        and all(c <= capacity_upper for c in p.capacities)
    ]
    return _best(parts, lambda p: p.num_clusters, objective == "min")
