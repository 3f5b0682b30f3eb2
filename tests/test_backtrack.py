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
from cactus_partition import backtrack, dp_core
from cactus_partition.backtrack import (
    AnnotatedRun,
    _interval_entered,
    _keeper,
    _mask_entered,
    collect_cuts,
)
from cactus_partition.dp_core import MaskAlgebra, TupleAlgebra, run_tree_dp
from cactus_partition.errors import WitnessNotFoundError
from cactus_partition.interval_dp import IEntry, IntervalAlgebra

import interval_reference
from dp_reference import keep_every_fold, run_with_configs
from interval_reference import recorded_states, recorded_witness
from util import graph_from, path, random_graph, rings_and_necklaces, triangle


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


@pytest.mark.parametrize("algorithm, target, error", [
    ("tupleset", (2, 2), None),
    ("tupleset", (2, 4, 2), r"^a tuple-set run's target is a \(weight, count\) pair, got \(2, 4, 2\)$"),
    ("interval", (2, 4, 2), None),
    ("interval", (2, 2), r"^an interval run's target is a \(low, high, count\) triple, got \(2, 2\)$"),
])
def test_a_target_of_the_wrong_shape_raises(algorithm, target, error):
    """Each engine names its target's form: a target of the other
    engine's shape raises ``ValueError``, not a failed unpacking or a
    missing root entry."""
    run = annotate(path([2, 2, 2]), ProblemParams(2, 4, 2), algorithm)
    if error is None:
        assert sorted(reconstruct(run, target).weights) == [2, 4]
        return
    with pytest.raises(ValueError, match=error):
        reconstruct(run, target)


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
        lowered = lowered._replace(params=ProblemParams(lower, upper, 1))
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


def _plain_state(state):
    return {k: tuple((e.lo, e.hi) for e in ents) for k, ents in state.items()}


def _plain(states):
    return {ctx: _plain_state(st) for ctx, st in states.items()}


def test_interval_walk_matches_recorded_search():
    """States and witnesses equal the recorded algebra's and its recursive search's."""
    solved = extremes = cyclic = 0
    for g, lower, upper, p in _witness_instances(1000):
        tree = build_tree(g)
        root_ctx = (tree.root, tree.full_index(tree.root))
        params = ProblemParams(lower, upper, p)
        run = annotate(tree, params, "interval")
        recorded, configs = run_with_configs(tree, interval_reference.IntervalAlgebra(g, params))
        assert run.states == _plain(recorded)
        assert run_with_configs(tree, IntervalAlgebra(g, params))[1] == _plain(configs)
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


class _Raised(interval_reference.IntervalAlgebra):
    """The recorded interval algebra, except that across every tree edge
    the last run of every count is raised by ``delta`` at its upper end.
    A raised run claims weights no raw combination makes, which breaks
    the endpoint contract, so a walk over it can meet a candidate with no
    realisation.  The raised entry wraps the true one as its only
    constituent, as a merge group would."""

    def __init__(self, graph, params, delta):
        super().__init__(graph, params)
        self.delta = delta

    def combine(self, a, b, edge, step):
        out = super().combine(a, b, edge, step)
        if step is not None:
            return out
        return {
            k: ents[:-1] + (type(ents[-1])(ents[-1].lo, ents[-1].hi + self.delta, (("sub", ents[-1]),)),)
            for k, ents in out.items()
        }


def _plain_entered():
    """``annotate``'s rule for the interval folds it keeps, over recorded states."""
    holds_new = _interval_entered()
    return lambda state: holds_new(_plain_state(state))


def test_a_state_breaking_the_contract_raises():
    """The walk never backs up: on the engine's own states each context's
    first candidate has a realisation (``backtrack``'s docstring).  States
    recorded over a raised run (:class:`_Raised`) break that, with the
    configurations kept as ``annotate`` keeps them; a walk over their plain
    intervals gives the recorded search's witness or raises
    ``WitnessNotFoundError``, also where backing up would have found one,
    and never gives another partition."""
    rng = random.Random(0x2E5)
    returned = raised = hidden = 0
    for seed in range(800):
        g = random_graph(seed, n=rng.randint(3, 12), cycle_density=rng.choice((0.0, 0.3, 0.6)))
        lower = rng.randint(0, 6)
        upper = max(lower + rng.randint(0, 6), g.max_weight)
        tree = build_tree(g)
        counts = annotate(tree, ProblemParams(lower, upper, g.num_vertices), "interval")
        params = ProblemParams(lower, upper, rng.choice(sorted(counts.feasible_counts()) or [1]))
        folds: dict = {}
        recorded = run_tree_dp(tree, _Raised(g, params, rng.randint(1, 8)),
                               fold_sink=_keeper(_plain_entered, folds))
        root = recorded[(tree.root, tree.full_index(tree.root))]
        plain_folds = {
            start: ([_plain_state(state) for state in states], [fold and tuple(
                (edge, positions, tuple(_plain_state(s) for s in chain), _plain_state(before))
                for edge, positions, chain, before in fold
            ) for fold in kept])
            for start, (states, kept) in folds.items()
        }
        run = AnnotatedRun(
            tree, params, "interval", _plain(recorded),
            {k: tuple(IEntry(e.lo, e.hi) for e in ents) for k, ents in root.items()},
            plain_folds,
        )
        try:
            want = recorded_witness(g, root, params)
        except WitnessNotFoundError:
            want = None
        try:
            got = reconstruct(run)
        except WitnessNotFoundError:
            raised += 1
            hidden += want is not None
            continue
        assert got == want, seed
        returned += 1
    assert returned >= 400 and raised >= 100 and hidden >= 15, (returned, raised, hidden)


def test_keep_rules_on_hand_built_configuration_states():
    """The rules see a cycle's configuration states in order of j.  The
    mask rule keeps one holding a tuple no lower one holds; the interval
    rule drops one only when a lower one holds each of its intervals or
    covers it with a lower start.  Both look at two or more clusters
    only: a walk ends at a one-cluster task, so it enters no configuration
    at count 1.  Runs of two or more intervals per count are rare in
    seeded runs, so they are built here."""
    holds_new = _mask_entered()
    assert [holds_new(state) for state in (
        {2: 0b101}, {2: 0b001}, {2: 0b010}, {3: 0b1}, {2: 0b111, 3: 0b1},
        {1: 0b1000},  # new at count 1 alone
        {1: 0b10000, 2: 0b1000},
    )] == [True, False, True, True, False, False, True]
    holds_new = _mask_entered()
    assert [holds_new(state) for state in ({1: 0b1}, {1: 0b10, 2: 0b1})] == [False, True]
    holds_new = _interval_entered()
    assert [holds_new(state) for state in (
        {2: ((2, 5),)},
        {2: ((2, 5),)},  # held
        {2: ((3, 4),)},  # covered by (2, 5), which comes first in its group
        {2: ((2, 6),)},  # (2, 5) comes first but stops below 6
        {2: ((2, 5), (9, 9))},  # a new run behind a held one
        {3: ((0, 0),)},  # a new count
        {2: ((9, 9),), 3: ((0, 0),)},
        {1: ((20, 20),)},  # new at count 1 alone
        {1: ((30, 30),), 3: ((7, 7),)},
    )] == [True, False, False, True, True, True, False, False, True]
    holds_new = _interval_entered()
    assert [holds_new(state) for state in ({1: ((4, 4),)}, {1: ((5, 5),), 2: ((4, 4),)})] == \
        [False, True]


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_walks_enter_only_the_configurations_annotate_keeps(algorithm):
    """``annotate`` keeps the fold of only the configurations a walk may
    enter, and a walk entering another raises.  Every root target gives
    the witness it gives with every configuration's fold kept."""
    targets = dropped = 0
    for seed in range(60):
        g = random_graph(seed, n=14, cycle_density=0.9)
        lower = seed % 4
        for upper in (max(lower + 3, g.max_weight), max(lower + 9, g.max_weight)):
            params = ProblemParams(lower, upper, g.num_vertices)
            run = annotate(g, params, algorithm)
            folds: dict = {}
            algebra = MaskAlgebra if algorithm == "tupleset" else IntervalAlgebra
            run_tree_dp(run.tree, algebra(g, params), fold_sink=keep_every_fold(folds))
            full = run._replace(folds=folds)
            dropped += sum(fold is None for _states, kept in run.folds.values() for fold in kept)
            if algorithm == "tupleset":
                keys = [(x, k) for x, k in run.root_state if lower <= x <= upper]
            else:
                keys = [(e.lo, e.hi, k) for k, ents in run.root_state.items()
                        for e in ents if e.intersects(lower, upper)]
            for key in keys:
                k = key[-1]
                assert reconstruct(run._replace(params=params._replace(num_clusters=k)), key) == \
                    reconstruct(full._replace(params=params._replace(num_clusters=k)), key)
                targets += 1
    assert targets >= 500 and dropped >= 100, (targets, dropped)


def _one_cluster_instances():
    """Rings, necklaces and random cacti of cycle density 0.9, each under
    a tight and a loose window."""
    graphs = list(rings_and_necklaces())
    graphs += [random_graph(seed, n=13, cycle_density=0.9) for seed in range(20)]
    for i, g in enumerate(graphs):
        lower = i % 4
        for upper in (max(lower + 3, g.max_weight), max(lower + 9, g.max_weight)):
            yield g, lower, upper


def test_no_walk_takes_a_step_at_one_cluster(monkeypatch):
    """A task of one cluster ends its descent: neither walk calls its
    per-context kernel (``_split``, ``_first_candidate``) at count 1, and
    solve, min and max give the recorded references' witnesses."""
    counts = []

    def recording(fn, at):  # records the count, argument ``at`` of ``fn``
        def wrapper(*args):
            counts.append(args[at])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(backtrack, "_split", recording(backtrack._split, 3))
    monkeypatch.setattr(backtrack, "_first_candidate", recording(backtrack._first_candidate, 2))
    walked = 0
    for g, lower, upper in _one_cluster_instances():
        tree = build_tree(g)
        root_ctx = (tree.root, tree.full_index(tree.root))
        capped = ProblemParams(lower, upper, g.num_vertices)
        mask_root = _recorded_root(tree, capped)
        interval_root = recorded_states(tree, capped)[root_ctx]
        feasible = sorted(annotate(tree, capped, "interval").feasible_counts())
        for count in feasible[len(feasible) // 2:][:1]:  # solve at a middle count
            params = ProblemParams(lower, upper, count)
            assert reconstruct(annotate(tree, params, "tupleset")) == \
                _recorded_witness(g, mask_root, lower, upper, count)
            assert reconstruct(annotate(tree, params, "interval")) == \
                recorded_witness(g, interval_root, params)
            walked += 2
        for fn, count in ((min_partition, min(feasible, default=None)),
                          (max_partition, max(feasible, default=None))):
            if count is None:
                continue
            assert fn(tree, lower, upper, algorithm="tupleset") == \
                (count, _recorded_witness(g, mask_root, lower, upper, count))
            assert fn(tree, lower, upper, algorithm="interval") == \
                (count, recorded_witness(g, interval_root, ProblemParams(lower, upper, count)))
            walked += 2
    assert walked >= 400 and len(counts) >= 3000, (walked, len(counts))
    assert 1 not in counts, (walked, len(counts))


@pytest.mark.parametrize("algorithm", ["tupleset", "interval"])
def test_witness_reads_add_no_combine(algorithm, monkeypatch):
    """Witnesses come out of the annotated states: after ``annotate`` no
    algebra ``combine`` runs."""
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
def test_witness_walk_calls_no_combine_and_no_fold(algorithm, monkeypatch):
    """A witness walk reads the joined and chain states ``annotate`` kept:
    after the run it calls neither an algebra's ``combine`` nor the fold,
    also inside the configurations of a cycle and at a lowered count."""
    m = 10
    g = graph_from({f"r{i}": 1 for i in range(m)}, [(f"r{i}", f"r{(i + 1) % m}") for i in range(m)])
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for cls in (MaskAlgebra, IntervalAlgebra):
        monkeypatch.setattr(cls, "combine", counted("combine", cls.combine))
    monkeypatch.setattr(dp_core, "_fold_configurations", counted("fold", dp_core._fold_configurations))
    for p in (5, m):  # the run's own count, and a cap lowered to 5
        run = annotate(g, ProblemParams(2, 2, p), algorithm)
        assert calls.count("fold") == 1 and "combine" in calls
        del calls[:]
        assert reconstruct(run._replace(params=ProblemParams(2, 2, 5))).num_clusters == 5
        assert calls == []


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
