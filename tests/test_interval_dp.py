import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    decide_p_partition,
    decide_p_partition_poly,
    enumerate_all,
    interval_subtree_sets,
    merge,
    oracle_decide,
    reconstruct,
)
from cactus_partition.errors import IntervalCountError
from cactus_partition.interval_dp import IntervalAlgebra

from dp_reference import interval_oplus, intervals_of, subtree_sets
from util import graph_from, path, random_graph, triangle


def test_intervals_of_splits_at_large_gaps():
    assert intervals_of({1, 2, 5, 9}, 2) == [(1, 2), (5, 5), (9, 9)]


def test_intervals_of_single_run():
    assert intervals_of({1, 3, 5}, 2) == [(1, 5)]


def test_intervals_of_empty():
    assert intervals_of(set(), 3) == []


def test_intervals_of_zero_gap_gives_singletons():
    assert intervals_of({2, 3, 7}, 0) == [(2, 2), (3, 3), (7, 7)]


def test_merge_joins_interfering():
    assert merge([(1, 3), (5, 6)], 2) == [(1, 6)]


def test_merge_keeps_distant():
    assert merge([(1, 2), (6, 7)], 2) == [(1, 2), (6, 7)]


def test_merge_single():
    assert merge([(4, 9)], 2) == [(4, 9)]


@settings(max_examples=150, deadline=None)
@given(
    ivs=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 10)).map(lambda t: (t[0], t[0] + t[1])),
        max_size=10,
    ),
    gap=st.integers(0, 6),
    seed=st.integers(0, 999),
)
def test_merge_is_order_independent(ivs, gap, seed):
    shuffled = list(ivs)
    random.Random(seed).shuffle(shuffled)
    assert merge(shuffled, gap) == merge(ivs, gap)


def test_interval_oplus_basic():
    params = ProblemParams(0, 10, 5)
    got = interval_oplus({1: [(2, 2)]}, {1: [(3, 3)]}, params)
    assert got == {1: [(5, 5)], 2: [(2, 2)]}


def test_interval_oplus_cut_blocked_outside_window():
    params = ProblemParams(5, 9, 3)
    got = interval_oplus({1: [(2, 4)]}, {1: [(3, 3)]}, params)
    assert got == {1: [(5, 7)]}


def test_interval_oplus_empty():
    params = ProblemParams(0, 10, 5)
    assert interval_oplus({1: [(2, 2)]}, {}, params) == {}


def _random_runs(rng, k, top, gap):
    """At most ``k`` merged runs, each starting at most ``top``."""
    raw = [(lo, lo + rng.randint(0, 6)) for lo in rng.sample(range(top + 1), rng.randint(1, min(2 * k, top + 1)))]
    return tuple(merge(raw, gap)[:k])


def _reference_combine(a, b, params):
    """``interval_oplus`` merged count by count, count-ascending."""
    raw = interval_oplus(a, b, params)
    return {k: tuple(merge(raw[k], params.gap)) for k in sorted(raw)}


def _check_combine(a, b, params):
    """``IntervalAlgebra.combine`` against the reference: the same runs,
    count-ascending, or ``IntervalCountError`` where a count would hold
    more runs than clusters.  Returns whether it raised."""
    alg = IntervalAlgebra(graph_from({"a": 1}, []), params)
    expected = _reference_combine(a, b, params)
    if any(len(ivs) > k for k, ivs in expected.items()):
        with pytest.raises(IntervalCountError):
            alg.combine(a, b, None, None)
        return True
    got = alg.combine(a, b, None, None)
    assert got == expected and list(got) == list(expected)
    return False


# name: (lower, upper, p, parent count k1, parent low ends up to, parent
# widths up to, child counts, child low ends up to).  A bare-vertex
# parent takes combine's one-pass branch.
BARE_PARENT_CASES = {
    "zero-weight-parent": (4, 12, 8, 1, 0, 0, (1, 2, 3, 4), 12),
    "wide-parent": (4, 12, 8, 1, 5, 6, (1, 2, 3, 4), 12),
    "gaps-in-child-counts": (4, 12, 9, 2, 4, 3, (1, 3, 4, 7), 12),
    "counts-at-and-past-p": (4, 12, 4, 2, 4, 3, (1, 2, 3, 4, 5), 12),
    "window-missed-below": (30, 40, 8, 1, 3, 2, (1, 2, 3), 12),
    "window-missed-above": (2, 6, 8, 1, 3, 2, (1, 2, 3), 20),
    "zero-gap": (5, 5, 8, 1, 2, 0, (1, 2, 3, 4), 8),
}


@pytest.mark.parametrize("case", sorted(BARE_PARENT_CASES))
def test_bare_parent_combine_matches_interval_oplus(case):
    lower, upper, p, k1, lo_top, width, b_counts, b_top = BARE_PARENT_CASES[case]
    params = ProblemParams(lower, upper, p)
    for seed in range(60):
        rng = random.Random(seed)
        a_lo = rng.randint(0, lo_top)
        a = {k1: ((a_lo, a_lo + rng.randint(0, width)),)}
        b = {k: _random_runs(rng, k, b_top, params.gap) for k in b_counts}
        _check_combine(a, b, params)


# name: (p, child, the combined state).  The parent is {1: ((3, 3),)} and
# the window [8, 10], so gap 2; b[1] = (8, 8) meets the window and its
# merge (11, 11) is dropped, so a cut waits at count 2.  Each case reaches
# one branch of the one-run path of combine's bare-parent pass.
ONE_RUN_CASES = {
    "cut-joined-to-merge": (4, {1: ((8, 8),), 2: ((1, 2),)}, {2: ((3, 5),)}),
    "cut-joined-at-gap": (4, {1: ((8, 8),), 2: ((2, 2),)}, {2: ((3, 5),)}),
    "cut-kept-apart": (4, {1: ((8, 8),), 2: ((4, 4),)}, {2: ((3, 3), (7, 7))}),
    "merge-above-upper-leaves-cut": (4, {1: ((8, 8),), 2: ((8, 8),)}, {2: ((3, 3),), 3: ((3, 3),)}),
    "cut-where-no-merge-lands": (4, {1: ((8, 8),), 3: ((1, 1),)}, {2: ((3, 3),), 3: ((4, 4),)}),
    "counts-at-and-past-p": (3, {1: ((8, 8),), 2: ((8, 8),), 3: ((8, 8),), 4: ((0, 0),)},
                             {2: ((3, 3),), 3: ((3, 3),)}),
    # a two-run count swept, its cut pending at a one-run count
    "one-and-two-run-counts": (4, {1: ((8, 8),), 2: ((1, 1), (8, 8)), 3: ((5, 6),)},
                               {2: ((3, 4),), 3: ((3, 3), (8, 9))}),
}


@pytest.mark.parametrize("case", sorted(ONE_RUN_CASES))
def test_bare_parent_one_run_counts(case):
    p, b, state = ONE_RUN_CASES[case]
    params = ProblemParams(8, 10, p)
    a = {1: ((3, 3),)}
    _check_combine(a, b, params)
    assert IntervalAlgebra(graph_from({"a": 1}, []), params).combine(a, b, None, None) == state


def test_bare_parent_one_run_children_match_interval_oplus():
    """Random children of one run per count, now and then a two-run count."""
    for seed in range(400):
        rng = random.Random(seed)
        lower = rng.randint(0, 10)
        params = ProblemParams(lower, lower + rng.randint(0, 4), rng.randint(1, 8))
        a_lo = rng.randint(0, 6)
        a = {rng.randint(1, 3): ((a_lo, a_lo + rng.randint(0, 3)),)}
        b_counts = sorted(rng.sample(range(1, 9), rng.randint(1, 6)))
        b = {k: _random_runs(rng, k if rng.random() < 0.2 else 1, 14, params.gap) for k in b_counts}
        _check_combine(a, b, params)


def test_a_ring_fold_reaches_the_multi_run_sweep(monkeypatch):
    """A real fold hands the bare-parent pass a child count of two runs;
    the deciders and the interval witness still agree with the oracle."""
    weights = [2, 0, 5, 0, 0, 0, 3, 0, 2, 1, 2, 0]
    names = [f"r{i}" for i in range(len(weights))]
    edges = [(v, names[(i + 1) % len(names)]) for i, v in enumerate(names)]
    g = graph_from(dict(zip(names, weights)), edges)
    children = []
    bare_parent = IntervalAlgebra._bare_parent

    def spy(self, k1, a_iv, b):
        children.append(b)
        return bare_parent(self, k1, a_iv, b)

    monkeypatch.setattr(IntervalAlgebra, "_bare_parent", spy)
    assert decide_p_partition_poly(g, ProblemParams(1, 5, 3))
    assert {2: ((5, 8),), 3: ((0, 0), (5, 5))} in children
    outcomes = enumerate_all(g)
    for p in range(1, 7):
        params = ProblemParams(1, 5, p)
        expected = oracle_decide(outcomes, 1, 5, p)
        assert expected == (p >= 3)
        assert decide_p_partition(g, params) == decide_p_partition_poly(g, params) == expected
        run = annotate(g, params, "interval")
        assert (p in run.feasible_counts()) == expected
        if expected:
            part = reconstruct(run)
            assert part.num_clusters == p and all(1 <= w <= 5 for w in part.weights)
            assert sorted(v for c in part.clusters for v in c) == sorted(names)


def test_other_parents_combine_matches_interval_oplus():
    """Parents with several counts or runs: raw lists of one, two and
    more intervals per count, merged by ``_merged``."""
    for seed in range(300):
        rng = random.Random(seed)
        lower = rng.randint(0, 10)
        params = ProblemParams(lower, lower + rng.randint(0, 8), rng.randint(1, 8))
        a_counts = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        a = {k: _random_runs(rng, k, 12, params.gap) for k in a_counts}
        b_counts = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
        b = {k: _random_runs(rng, k, 12, params.gap) for k in b_counts}
        _check_combine(a, b, params)


def test_over_full_counts_still_raise():
    params = ProblemParams(8, 10, 4)  # gap 2
    # bare parent: count 2 gets the cut (0, 0) and both shifted runs of b[2]
    assert _check_combine({1: ((0, 0),)}, {1: ((8, 8),), 2: ((3, 3), (6, 6))}, params)
    # two raw intervals at count 1, too far apart to merge
    assert _check_combine({1: ((0, 0), (5, 5))}, {1: ((1, 1),)}, params)


def test_single_vertex_interval():
    g = graph_from({"a": 4}, [])
    tree = build_tree(g)
    sets = interval_subtree_sets(tree, ProblemParams(0, 9, 1))
    assert sets[("a", 0)] == {1: ((4, 4),)}


def test_subtree_sets_of_a_graph_equal_those_of_its_tree():
    """``interval_subtree_sets`` takes a graph or a tree, as the other
    entry points do; a graph gets the tree ``build_tree`` gives it."""
    for seed in range(20):
        g = random_graph(seed, n=12, cycle_density=0.6)
        params = ProblemParams(seed % 3, max(seed % 3 + 4, g.max_weight), 5)
        assert interval_subtree_sets(g, params) == interval_subtree_sets(build_tree(g), params)


def test_star_rooted_at_leaf():
    # leaf root -> hub -> two more leaves, all weight 1
    g = graph_from(
        {"a": 1, "c": 1, "b": 1, "d": 1},
        [("a", "c"), ("c", "b"), ("c", "d")],
    )
    tree = build_tree(g)  # root "a" is a leaf of the star
    sets = interval_subtree_sets(tree, ProblemParams(0, 4, 4))
    root_intervals = sets[("a", tree.full_index("a"))]
    assert root_intervals[1] == ((4, 4),)
    assert root_intervals[2] == ((1, 3),)


def test_triangle_intervals():
    tree = build_tree(triangle(), root="a")
    sets = interval_subtree_sets(tree, ProblemParams(1, 3, 3))
    assert sets[("a", tree.full_index("a"))] == {
        1: ((3, 3),),
        2: ((1, 2),),
        3: ((1, 1),),
    }


def test_decide_poly_examples():
    assert decide_p_partition_poly(triangle(), ProblemParams(1, 1, 3)) is True
    assert decide_p_partition_poly(triangle(), ProblemParams(2, 2, 2)) is False
    assert decide_p_partition_poly(path([2, 2, 2]), ProblemParams(2, 4, 2)) is True
    g = path([1, 2, 3])
    assert decide_p_partition_poly(g, ProblemParams(6, 6, 1)) is True
    assert decide_p_partition_poly(g, ProblemParams(0, 2, 1)) is False  # heavy vertex


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), lower=st.integers(0, 8), span=st.integers(0, 10), p=st.integers(1, 9))
def test_poly_decision_matches_tupleset_and_oracle(seed, lower, span, p):
    g = random_graph(seed, n=seed % 9 + 1, cycle_density=0.5)
    params = ProblemParams(lower, lower + span, p)
    expected = oracle_decide(enumerate_all(g), params.lower, params.upper, p)
    assert decide_p_partition(g, params) == expected
    assert decide_p_partition_poly(g, params) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), value=st.integers(0, 12), p=st.integers(1, 9))
def test_degenerate_window_lower_equals_upper(seed, value, p):
    # gap 0 turns every interval into a singleton; decisions must still agree
    g = random_graph(seed, n=seed % 9 + 1, cycle_density=0.5)
    params = ProblemParams(value, value, p)
    expected = oracle_decide(enumerate_all(g), value, value, p)
    assert decide_p_partition_poly(g, params) == expected


def test_interval_sets_cover_tuple_sets():
    # every achievable weight lies inside a stored interval and every
    # stored interval starts at an achievable weight
    for seed in range(30):
        g = random_graph(seed + 300, n=seed % 9 + 1, cycle_density=0.5)
        if g.max_weight > g.total_weight // 2 + 1:
            continue
        params = ProblemParams(1, g.total_weight // 2 + 1, min(5, g.num_vertices))
        tree = build_tree(g)
        tuple_sets = subtree_sets(tree, params)
        interval_sets = interval_subtree_sets(tree, params)
        for ctx, tuples in tuple_sets.items():
            per_count: dict = {}
            for (x, k) in tuples:
                per_count.setdefault(k, set()).add(x)
            stored = interval_sets[ctx]
            assert set(stored) == set(per_count)
            for k, xs in per_count.items():
                for x in xs:
                    assert any(lo <= x <= hi for (lo, hi) in stored[k])
                for (lo, _hi) in stored[k]:
                    assert lo in xs
                assert len(stored[k]) <= k  # interval count bound
