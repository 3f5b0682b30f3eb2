"""The min-max / max-min searches: answers, witnesses and probe counts.

Each probe is one size-weight DP run (``variants._size_weight_solve``).
The search starts from the bracket ``[max(max weight, ceil(W / p)), W]``
(min-max) or ``[0, floor(W / p)]`` (max-min) and after a feasible probe
moves the bound to the weight its partition reaches, so it needs at most
``1 + ceil(log2(hi - lo + 1))`` probes.
"""

import random

import pytest

from cactus_partition import (
    enumerate_all,
    maxmin_partition,
    minmax_partition,
    oracle_maxmin,
    oracle_minmax,
    variants,
)

from util import graph_from, random_graph

ORACLES = {minmax_partition: oracle_minmax, maxmin_partition: oracle_maxmin}
SEARCHES = pytest.mark.parametrize("solver", list(ORACLES), ids=["minmax", "maxmin"])


def _bracket(solver, graph, p):
    total = graph.total_weight
    if solver is minmax_partition:
        return max(graph.max_weight, -(-total // p)), total
    return 0, total // p


def _probe_limit(solver, graph, p):
    lo, hi = _bracket(solver, graph, p)
    return 1 + (hi - lo).bit_length()  # 1 + ceil(log2(hi - lo + 1))


def _counted(monkeypatch):
    """Count the size-weight DP runs the searches make."""
    runs = []
    solve = variants._size_weight_solve

    def counted(*args, **kwargs):
        runs.append(args[4])  # the probed bound
        return solve(*args, **kwargs)

    monkeypatch.setattr(variants, "_size_weight_solve", counted)
    return runs


def _check(solver, graph, lower, upper, p, runs):
    """Check one answer; return it."""
    del runs[:]
    got = solver(graph, lower, upper, p)
    assert len(runs) <= _probe_limit(solver, graph, p), (runs, _bracket(solver, graph, p))
    if got is None:
        return None
    objective, part = got
    reached = part.max_weight() if solver is minmax_partition else part.min_weight()
    assert objective == reached
    assert part.num_clusters == p
    assert all(lower <= s <= upper for s in part.sizes)
    return got


def _corpus():
    rng = random.Random(0x5EA2C4)
    for seed in range(150):
        n = rng.randint(1, 24)
        g = random_graph(
            seed, n=n, cycle_density=rng.choice((0.2, 0.5, 0.8)),
            weight_range=(0, rng.choice((3, 9, 40))), size_range=(1, 3),
        )
        total_size = sum(g.size.values())
        p = rng.randint(1, n)
        lower = rng.randint(0, 3)
        upper = max(lower, max(g.size.values()), rng.randint(total_size // p, total_size))
        yield g, lower, upper, p


@SEARCHES
def test_search_answers_and_probe_counts(solver, monkeypatch):
    runs = _counted(monkeypatch)
    feasible = probes = 0
    for g, lower, upper, p in _corpus():
        got = _check(solver, g, lower, upper, p, runs)
        feasible += got is not None
        probes += len(runs)
    assert feasible >= 100
    assert probes < 4 * feasible  # the real-weight jumps end most searches early


@SEARCHES
def test_search_matches_oracle_on_small_graphs(solver, monkeypatch):
    runs = _counted(monkeypatch)
    feasible = 0
    for seed in range(60):
        g = random_graph(seed, n=seed % 9 + 1, cycle_density=0.5, size_range=(0, 3))
        catalog = enumerate_all(g)
        for lower, upper, p in ((0, 3, 2), (1, 4, 2), (0, 6, 3), (1, 2, seed % 4 + 1)):
            got = _check(solver, g, lower, upper, p, runs)
            expected = ORACLES[solver](catalog, lower, upper, p)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got[0] == expected[0]
                feasible += 1
    assert feasible >= 60


@SEARCHES
def test_zero_total_weight_takes_one_probe(solver, monkeypatch):
    runs = _counted(monkeypatch)
    g = graph_from({v: 0 for v in "abcd"}, [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
                   sizes={"a": 1, "b": 2, "c": 1, "d": 2})
    for p in (1, 2, 3, 4):
        got = _check(solver, g, 1, 6, p, runs)
        assert got is not None and got[0] == 0
        assert len(runs) == 1


@SEARCHES
def test_one_cluster_is_the_whole_graph(solver, monkeypatch):
    runs = _counted(monkeypatch)
    for seed in range(10):
        g = random_graph(seed, n=seed + 2, cycle_density=0.5, size_range=(1, 2))
        got = _check(solver, g, 0, sum(g.size.values()), 1, runs)
        assert got is not None and got[0] == g.total_weight
        assert len(runs) == 1  # the bracket is [W, W] or the first probe reaches W


@SEARCHES
def test_one_vertex_per_cluster(solver, monkeypatch):
    runs = _counted(monkeypatch)
    for seed in range(10):
        g = random_graph(seed, n=seed + 2, cycle_density=0.5, size_range=(1, 2))
        n = g.num_vertices
        got = _check(solver, g, 1, 2, n, runs)
        assert got is not None and got[1].num_clusters == n
        weights = g.weight.values()
        assert got[0] == (max(weights) if solver is minmax_partition else min(weights))
        if solver is minmax_partition:
            # the bracket starts at the heaviest vertex, which the first probe reaches
            assert len(runs) == 1
        assert _check(solver, g, 1, 2, n + 1, runs) is None
