import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    canonicalize_partition,
    decide_p_partition,
    max_partition,
    min_partition,
    reconstruct,
)
from cactus_partition.backtrack import collect_cuts
from cactus_partition.dp_core import MaskAlgebra, TupleAlgebra, run_tree_dp
from cactus_partition.errors import WitnessNotFoundError
from cactus_partition.interval_dp import IntervalAlgebra

from interval_reference import recorded_states, recorded_witness
from util import graph_from, path, random_graph, triangle


def test_single_vertex():
    g = graph_from({"a": 5}, [])
    part = reconstruct(annotate(g, ProblemParams(0, 9, 1)))
    assert part.clusters == (("a",),)
    assert part.cut_edges == ()


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_path_two_clusters(algorithm):
    g = path([2, 2, 2])
    part = reconstruct(annotate(g, ProblemParams(2, 4, 2), algorithm))
    assert part.num_clusters == 2
    assert all(2 <= w <= 4 for w in part.weights)
    # the cut is one of the two path edges; which one is not pinned down
    assert len(part.cut_edges) == 1


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_triangle_singletons(algorithm):
    part = reconstruct(annotate(triangle(), ProblemParams(1, 1, 3), algorithm))
    assert part.clusters == (("a",), ("b",), ("c",))


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_explicit_target(algorithm):
    g = path([2, 2, 2])
    run = annotate(g, ProblemParams(2, 4, 2), algorithm)
    # achievable root weights {2, 4} collapse into one stored interval
    target = (2, 2) if algorithm == "tupleset" else (2, 4, 2)
    part = reconstruct(run, target)
    assert sorted(part.weights) == [2, 4]


def test_missing_target_raises():
    g = path([2, 2, 2])
    run = annotate(g, ProblemParams(3, 4, 3))
    with pytest.raises(WitnessNotFoundError):
        reconstruct(run)  # the only 3-partition has clusters of weight 2


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_deterministic(algorithm):
    g = random_graph(11, n=8, cycle_density=0.7)
    params = ProblemParams(0, g.total_weight, 3)
    first = reconstruct(annotate(g, params, algorithm))
    second = reconstruct(annotate(g, params, algorithm))
    assert first.cut_edges == second.cut_edges
    assert first.clusters == second.clusters


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    lower=st.integers(0, 6),
    span=st.integers(0, 8),
    p=st.integers(1, 9),
)
def test_reconstruction_valid_whenever_feasible(seed, lower, span, p):
    g = random_graph(seed, n=seed % 9 + 1, cycle_density=0.5)
    params = ProblemParams(lower, lower + span, p)
    if not decide_p_partition(g, params):
        return
    for algorithm in ("tupleset", "interval"):
        part = reconstruct(annotate(g, params, algorithm))
        assert part.num_clusters == p
        assert all(params.lower <= w <= params.upper for w in part.weights)
        assert sorted(v for c in part.clusters for v in c) == sorted(g.vertices)


def _recorded_root(tree, params):
    states = run_tree_dp(tree, TupleAlgebra(tree.graph, params))
    return states[(tree.root, tree.full_index(tree.root))]


def _recorded_witness(graph, root_state, lower, upper, count):
    key = min((x, k) for (x, k) in root_state if k == count and lower <= x <= upper)
    return canonicalize_partition(graph, collect_cuts(root_state, key))


def _witness_instances(count):
    rng = random.Random(0x3A5C)
    for seed in range(count):
        g = random_graph(seed, n=rng.randint(1, 12), cycle_density=rng.choice((0.3, 0.6, 0.9)))
        lower = rng.randint(0, 5)
        upper = max(lower + rng.randint(0, 7), g.max_weight)
        yield g, lower, upper, rng.randint(1, g.num_vertices)


def test_witnesses_match_recorded_algebra():
    """The mask walk gives exactly the witnesses ``TupleAlgebra`` records."""
    solved = extremes = 0
    for g, lower, upper, p in _witness_instances(1000):
        tree = build_tree(g)
        params = ProblemParams(lower, upper, p)
        recorded = _recorded_root(tree, params)
        run = annotate(tree, params, "tupleset")
        assert run.root_state == frozenset(recorded)
        if any(k == p and lower <= x <= upper for (x, k) in recorded):
            assert reconstruct(run) == _recorded_witness(g, recorded, lower, upper, p)
            solved += 1
        recorded = _recorded_root(tree, ProblemParams(lower, upper, g.num_vertices))
        counts = [k for (x, k) in recorded if lower <= x <= upper]
        for fn, count in ((min_partition, min(counts, default=None)),
                          (max_partition, max(counts, default=None))):
            got = fn(g, lower, upper, algorithm="tupleset")
            if count is None:
                assert got is None
                continue
            assert got == (count, _recorded_witness(g, recorded, lower, upper, count))
            extremes += 1
    assert solved >= 300 and extremes >= 1000


def test_every_root_tuple_reconstructs():
    checked = 0
    for g, lower, upper, p in _witness_instances(600):
        run = annotate(g, ProblemParams(lower, upper, p), "tupleset")
        root = run.tree.root
        for x, k in sorted(run.root_state):
            part = reconstruct(run, (x, k))
            assert part.num_clusters == k
            for members, weight in zip(part.clusters, part.weights):
                if root in members:
                    assert weight == x
                else:
                    assert lower <= weight <= upper
            checked += 1
    assert checked >= 1000


def test_every_root_interval_reconstructs_at_its_count():
    """A target names its count: every stored root interval meeting the
    window, at any count, gives that many clusters in the window, and the
    same witness when the run's own count is lowered afterwards (as the
    min / max variants do)."""
    rng = random.Random(0x51C3)
    checked = other_counts = 0
    for seed in range(300):
        g = random_graph(seed, n=rng.randint(3, 14), cycle_density=rng.choice((0.3, 0.6, 0.9)))
        lower = rng.randint(0, 5)
        upper = max(lower + rng.randint(0, 7), g.max_weight)
        run = annotate(g, ProblemParams(lower, upper, g.num_vertices), "interval")
        lowered = annotate(g, ProblemParams(lower, upper, g.num_vertices), "interval")
        lowered.params = ProblemParams(lower, upper, 1)
        for k, entries in run.root_state.items():
            for entry in entries:
                if not entry.intersects(lower, upper):
                    continue
                part = reconstruct(run, (entry.lo, entry.hi, k))
                assert part.num_clusters == k
                assert all(lower <= w <= upper for w in part.weights)
                assert reconstruct(lowered, (entry.lo, entry.hi, k)) == part
                checked += 1
                other_counts += k != g.num_vertices
    assert checked >= 500 and other_counts >= 400


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_deep_path_reconstructs_iteratively(algorithm):
    g = path([1] * 3000)
    run = annotate(g, ProblemParams(10, 10, 300), algorithm)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        part = reconstruct(run)
        assert sys.getrecursionlimit() == 200
    finally:
        sys.setrecursionlimit(before)
    assert part.num_clusters == 300 and set(part.weights) == {10}


def _plain(states):
    return {ctx: {k: tuple((e.lo, e.hi) for e in ents) for k, ents in st.items()}
            for ctx, st in states.items()}


def test_interval_walk_matches_recorded_search():
    """States and witnesses equal the recorded algebra's and its recursive search's."""
    solved = extremes = cyclic = 0
    for g, lower, upper, p in _witness_instances(1000):
        tree = build_tree(g)
        root_ctx = (tree.root, tree.full_index(tree.root))
        params = ProblemParams(lower, upper, p)
        run = annotate(tree, params, "interval")
        configs: dict = {}
        recorded = recorded_states(tree, params, configs)
        assert run.states == _plain(recorded)
        assert run.configs == _plain(configs)
        cyclic += bool(tree.cycles)
        root = recorded[root_ctx]
        targets = [(e.lo, e.hi, p) for e in root.get(p, ()) if e.intersects(lower, upper)]
        if targets:
            assert reconstruct(run) == recorded_witness(g, root, params)
            solved += 1
        for target in targets:
            assert reconstruct(run, target) == recorded_witness(g, root, params, target)
        root = recorded_states(tree, ProblemParams(lower, upper, g.num_vertices))[root_ctx]
        counts = [k for k, ents in root.items() if any(e.intersects(lower, upper) for e in ents)]
        for fn, count in ((min_partition, min(counts, default=None)),
                          (max_partition, max(counts, default=None))):
            got = fn(g, lower, upper, algorithm="interval")
            if count is None:
                assert got is None
                continue
            assert got == (count, recorded_witness(g, root, ProblemParams(lower, upper, count)))
            extremes += 1
    assert solved >= 300 and extremes >= 1000 and cyclic >= 500


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_witness_reads_add_no_combine(algorithm, monkeypatch):
    """Witnesses come out of the annotated states: after ``annotate`` no
    algebra ``combine`` runs (the walk refolds cycles through
    ``join_states``)."""
    calls = []
    for cls in (MaskAlgebra, IntervalAlgebra):
        def counted(self, a, b, edge, step, _combine=cls.combine):
            calls.append(step)
            return _combine(self, a, b, edge, step)

        monkeypatch.setattr(cls, "combine", counted)
    walked = 0
    for seed in range(40):
        g = random_graph(seed, n=14, cycle_density=0.9)
        lower, upper = seed % 4, max(seed % 4 + 4, g.max_weight)
        del calls[:]
        annotate(g, ProblemParams(lower, upper, g.num_vertices), algorithm)
        dp_calls = len(calls)
        assert any(step is not None for step in calls)  # cycles were folded
        for fn in (min_partition, max_partition):
            del calls[:]
            got = fn(g, lower, upper, algorithm=algorithm)
            assert len(calls) == dp_calls
            if got is None:
                continue
            del calls[:]
            run = annotate(g, ProblemParams(lower, upper, got[0]), algorithm)
            dp_calls_p = len(calls)
            assert reconstruct(run).num_clusters == got[0]
            assert len(calls) == dp_calls_p
            walked += 1
    assert walked >= 60


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_witness_refold_skips_the_final_join(algorithm, monkeypatch):
    """A witness walk reads every joined state but the configuration's
    last, so refolding one configuration of an m-cycle joins m - 2 times."""
    m = 10
    g = graph_from({f"r{i}": 1 for i in range(m)}, [(f"r{i}", f"r{(i + 1) % m}") for i in range(m)])
    calls = []
    for cls in (MaskAlgebra, IntervalAlgebra):
        def counted(self, a, b, edge, step, _join=cls.join_states):
            calls.append(step.j)
            return _join(self, a, b, edge, step)

        monkeypatch.setattr(cls, "join_states", counted)
    run = annotate(g, ProblemParams(2, 2, 5), algorithm)
    assert reconstruct(run).num_clusters == 5
    assert len(calls) == m - 2 and len(set(calls)) == 1


def test_feasible_counts_agree_across_engines():
    for seed in range(60):
        g = random_graph(seed, n=10, cycle_density=0.6)
        lower, upper = seed % 4, max(seed % 4 + 3, g.max_weight)
        params = ProblemParams(lower, upper, g.num_vertices)
        counts = annotate(g, params, "tupleset").feasible_counts()
        assert annotate(g, params, "interval").feasible_counts() == counts
        assert counts == {
            k for k in range(1, g.num_vertices + 1)
            if decide_p_partition(g, ProblemParams(lower, upper, k))
        }
