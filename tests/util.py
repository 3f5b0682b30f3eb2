"""Shared builders for the test suite."""

import random

from cactus_partition import gen_random_cactus, validate_cactus


def graph_from(weights, edges, sizes=None, costs=None, capacities=None):
    """Build a validated graph from compact literals.

    ``weights`` maps vertex id to weight, ``edges`` is a list of (u, v)
    pairs; optional dicts add sizes (per vertex) and costs/capacities
    (per (u, v) pair as written in ``edges``).
    """
    vertices = []
    for v, w in weights.items():
        entry = {"id": v, "weight": w}
        if sizes and v in sizes:
            entry["size"] = sizes[v]
        vertices.append(entry)
    edge_docs = []
    for u, v in edges:
        entry = {"u": u, "v": v}
        if costs and (u, v) in costs:
            entry["cost"] = costs[(u, v)]
        if capacities and (u, v) in capacities:
            entry["capacity"] = capacities[(u, v)]
        edge_docs.append(entry)
    return validate_cactus({"vertices": vertices, "edges": edge_docs})


def triangle(w=(1, 1, 1), costs=None, capacities=None):
    names = ("a", "b", "c")
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    return graph_from(
        dict(zip(names, w)),
        edges,
        costs=dict(zip(edges, costs)) if costs else None,
        capacities=dict(zip(edges, capacities)) if capacities else None,
    )


def path(weights):
    names = [f"n{i}" for i in range(len(weights))]
    return graph_from(
        dict(zip(names, weights)),
        [(names[i], names[i + 1]) for i in range(len(weights) - 1)],
    )


def random_graph(seed, n, cycle_density=0.4, weight_range=(0, 5), **ranges):
    return validate_cactus(
        gen_random_cactus(
            n, cycle_density=cycle_density, weight_range=weight_range, seed=seed, **ranges
        )
    )


def ring(m, seed, weight_range=(0, 5)):
    """A cycle of ``m`` vertices with seeded weights."""
    rng = random.Random(seed)
    names = [f"r{i}" for i in range(m)]
    return graph_from(
        {v: rng.randint(*weight_range) for v in names},
        [(names[i], names[(i + 1) % m]) for i in range(m)],
    )


def rings_and_necklaces():
    """Seeded rings, necklaces (rings strung together at shared vertices,
    with a pendant path) and random cacti."""
    rng = random.Random(5)
    for m in (3, 4, 7, 12):
        names = [f"r{i}" for i in range(m)]
        yield graph_from({v: rng.randint(0, 4) for v in names},
                         [(names[i], names[(i + 1) % m]) for i in range(m)])
    for beads, m in ((3, 4), (4, 6)):
        edges, anchor = [], "b0_0"
        for b in range(beads):
            names = [anchor] + [f"b{b}_{i}" for i in range(1, m)]
            edges += [(names[i], names[(i + 1) % m]) for i in range(m)]
            anchor = names[m // 2]
        edges += [(anchor, "t0"), ("t0", "t1")]
        names = sorted({v for edge in edges for v in edge})
        yield graph_from({v: rng.randint(0, 4) for v in names}, edges)
    for seed in range(10):
        yield random_graph(seed, n=16, cycle_density=0.8)


def arc_cutoff(cycle, quantity, upper):
    """Configurations a run folds for ``cycle``, recomputed from the
    definition: the first J whose arc (the start node, then path nodes
    m-1, m-2, ..., m-J) outweighs ``upper`` in ``quantity``, or m-1."""
    path, m = cycle.path, cycle.length
    for j in range(1, m - 1):
        if sum(quantity[v] for v in (path[0],) + path[m - j:]) > upper:
            return j
    return m - 1
