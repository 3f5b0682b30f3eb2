import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    decide_p_partition,
    enumerate_all,
    interval_subtree_sets,
    oracle_decide,
)
from cactus_partition.dp_core import (
    ContextMap,
    CycleStep,
    MaskAlgebra,
    TupleAlgebra,
    run_tree_dp,
)
from cactus_partition.errors import InvalidParamsError, WeightExceedsUpperError
from cactus_partition.interval_dp import IntervalAlgebra
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import (
    cycle_config_set,
    keep_every_fold,
    leaf_set,
    oplus,
    oracle_root_tuples,
    root_set,
    run_with_configs,
    subtree_sets,
)
from util import arc_cutoff, graph_from, path, random_graph, rings_and_necklaces, triangle


def test_oplus_basic():
    params = ProblemParams(0, 10, 5)
    assert oplus({(2, 1)}, {(3, 1)}, params) == {(2, 2), (5, 1)}


def test_oplus_lower_bound_blocks_cut():
    params = ProblemParams(3, 3, 2)
    assert oplus({(2, 1)}, {(1, 1)}, params) == {(3, 1)}


def test_oplus_empty():
    params = ProblemParams(0, 10, 5)
    assert oplus(set(), {(3, 1)}, params) == set()
    assert oplus({(2, 1)}, set(), params) == set()


@settings(max_examples=100, deadline=None)
@given(
    a=st.sets(st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=6),
    b=st.sets(st.tuples(st.integers(0, 12), st.integers(1, 4)), max_size=6),
    lower=st.integers(0, 6),
    span=st.integers(0, 8),
    p=st.integers(1, 6),
)
def test_oplus_matches_direct_definition(a, b, lower, span, p):
    params = ProblemParams(lower, lower + span, p)
    expected = set()
    for (x1, k1) in a:
        for (x2, k2) in b:
            if x2 >= params.lower and k1 + k2 <= p:
                expected.add((x1, k1 + k2))
            if x1 + x2 <= params.upper and k1 + k2 - 1 <= p:
                expected.add((x1 + x2, k1 + k2 - 1))
    assert oplus(a, b, params) == expected


@pytest.mark.parametrize("weight", [4, 0, 10])
def test_leaf_set(weight):
    assert leaf_set(weight, ProblemParams(0, 10, 3)) == {(weight, 1)}


def test_leaf_set_rejects_heavy_vertex():
    with pytest.raises(WeightExceedsUpperError):
        leaf_set(11, ProblemParams(0, 10, 3))


@pytest.mark.parametrize("run", [
    lambda g, params: annotate(g, params, "tupleset"),
    lambda g, params: annotate(g, params, "interval"),
    lambda g, params: interval_subtree_sets(build_tree(g), params),
    lambda g, params: interval_subtree_sets(g, params),
], ids=["annotate-tupleset", "annotate-interval", "interval_subtree_sets",
        "interval_subtree_sets-graph"])
def test_a_vertex_above_upper_raises(run):
    """``annotate`` and ``interval_subtree_sets`` answer nothing early: a
    vertex heavier than ``u`` raises, as ``_prepare``'s docstring says."""
    for g in (path([2, 11, 3]), triangle((1, 11, 1))):
        with pytest.raises(WeightExceedsUpperError, match=r"^vertex weight 11 exceeds upper bound 10$"):
            run(g, ProblemParams(0, 10, 3))


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        ProblemParams(4, 3, 1)
    with pytest.raises(InvalidParamsError):
        ProblemParams(0, 3, 0)
    with pytest.raises(InvalidParamsError):
        ProblemParams(-1, 3, 1)


def test_triangle_configurations_unfold():
    g = triangle()
    params = ProblemParams(0, 3, 3)
    tree = build_tree(g, root="a")
    (cyc,) = tree.cycles
    base = {(1, 1)}
    # configuration 1 folds the whole path under the first child; the
    # second re-attaches the path end directly underneath the start node
    expected_1 = oplus(base, oplus(base, base, params), params)
    expected_2 = oplus(oplus(base, base, params), base, params)
    assert cycle_config_set(tree, params, cyc, 1) == expected_1
    assert cycle_config_set(tree, params, cyc, 2) == expected_2
    assert cycle_config_set(tree, params, cyc, 1) | cycle_config_set(
        tree, params, cyc, 2
    ) == {(3, 1), (1, 2), (2, 2), (1, 3)}


def test_config_index_out_of_range():
    tree = build_tree(triangle(), root="a")
    (cyc,) = tree.cycles
    with pytest.raises(IndexError):
        cycle_config_set(tree, ProblemParams(0, 3, 3), cyc, 3)


def test_two_vertex_tree_root_set():
    g = graph_from({"r": 1, "c": 2}, [("r", "c")])
    assert root_set(build_tree(g, "r"), ProblemParams(0, 3, 2)) == {(3, 1), (1, 2)}


def test_single_vertex():
    g = graph_from({"a": 7}, [])
    assert root_set(build_tree(g), ProblemParams(0, 9, 1)) == {(7, 1)}


def test_square_cycle_root_set():
    g = graph_from(
        {v: 1 for v in "abcd"},
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
    )
    got = root_set(build_tree(g, "a"), ProblemParams(1, 4, 4))
    assert got == {(4, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)}


def test_decide_examples():
    assert decide_p_partition(triangle(), ProblemParams(1, 1, 3)) is True
    assert decide_p_partition(triangle(), ProblemParams(2, 2, 1)) is False
    assert decide_p_partition(triangle(), ProblemParams(2, 2, 2)) is False
    assert decide_p_partition(path([2, 2, 2]), ProblemParams(2, 4, 2)) is True


def test_trivially_infeasible_cases():
    g = path([2, 2, 2])
    assert decide_p_partition(g, ProblemParams(0, 1, 1)) is False  # heavy vertex
    assert decide_p_partition(g, ProblemParams(0, 9, 4)) is False  # p > n


def test_sum_conservation():
    for seed in range(20):
        g = random_graph(seed, n=seed % 7 + 1, cycle_density=0.5)
        params = ProblemParams(0, g.total_weight, g.num_vertices)
        for (x, k) in root_set(build_tree(g), params):
            if k == 1:
                assert x == g.total_weight


def test_root_set_matches_oracle_extendable_partitions():
    for seed in range(25):
        g = random_graph(seed + 100, n=seed % 7 + 2, cycle_density=0.5)
        tree = build_tree(g)
        params = ProblemParams(1, max(g.total_weight // 2, g.max_weight), g.num_vertices)
        catalog = enumerate_all(g)
        expected = oracle_root_tuples(catalog, params.upper, params.lower, tree.root)
        assert root_set(tree, params) == expected


def test_node_interior_to_one_cycle_and_start_of_another():
    # vertex a sits strictly inside the cycle through r while also
    # starting its own cycle; its cycle child must stay last
    g = graph_from(
        {v: 1 for v in "rabcd"},
        [("r", "a"), ("a", "b"), ("b", "r"), ("a", "c"), ("c", "d"), ("d", "a")],
    )
    tree = build_tree(g, root="r")
    assert tree.children["a"] == ("c", "b")
    catalog = enumerate_all(g)
    for p in range(1, 6):
        for lower, upper in ((1, 1), (1, 2), (1, 5), (2, 3), (0, 5)):
            params = ProblemParams(lower, upper, p)
            assert decide_p_partition(g, params) == oracle_decide(
                catalog, lower, upper, p
            )


def test_recorded_algebra_matches_mask_algebra():
    for seed in range(15):
        g = random_graph(seed + 40, n=seed % 8 + 1, cycle_density=0.6)
        if g.max_weight > g.total_weight // 2 + 1:
            continue
        params = ProblemParams(1, g.total_weight // 2 + 1, min(4, g.num_vertices))
        tree = build_tree(g)
        masked = subtree_sets(tree, params)
        recorded = run_tree_dp(tree, TupleAlgebra(g, params))
        assert set(masked) == set(recorded)
        for ctx, tuples in masked.items():
            assert tuples == frozenset(recorded[ctx])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), lower=st.integers(0, 8), span=st.integers(0, 10), p=st.integers(1, 9))
def test_decide_agrees_with_oracle(seed, lower, span, p):
    g = random_graph(seed, n=seed % 8 + 1, cycle_density=0.5)
    params = ProblemParams(lower, lower + span, p)
    expected = oracle_decide(enumerate_all(g), params.lower, params.upper, p)
    assert decide_p_partition(g, params) == expected


@pytest.mark.parametrize("algebra", [MaskAlgebra, IntervalAlgebra])
def test_context_map_parts_rebuild_the_stored_states(algebra):
    """Joining the parts the context map names for a context gives back its
    state: the stored state of a tree context, the stored configuration
    state (after ``strip``) and, inside a configuration, the state its
    parent context was split into.  A cycle's start state is the union of
    the configuration states the map hands out, configurations 1..J."""
    joins = 0
    for g in rings_and_necklaces():
        tree = build_tree(g)
        alg = algebra(g, ProblemParams(2, 7, g.num_vertices))
        folds: dict = {}
        states, configs = run_with_configs(tree, alg, fold_sink=keep_every_fold(folds))
        contexts = ContextMap(tree, states, folds)
        for ctx, want in states.items():
            if ctx[1] == 0 or ctx in tree.cycle_at:
                continue
            a_ctx, a, b_ctx, b, edge = contexts.parts(ctx)
            assert (a, b) == (states[a_ctx], states[b_ctx])
            assert alg.combine(a, b, edge, None) == want
        for start, cyc in tree.cycle_at.items():
            wants = [state for _j, state in contexts.config_states(start)]
            assert len(wants) == arc_cutoff(cyc, g.weight, 7)
            assert wants == [configs[(cyc, j)] for j in range(1, len(wants) + 1)]
            steps = [CycleStep(cyc, j, absent_cycle_edge(cyc, j)) for j in range(1, len(wants) + 1)]
            union = alg.union_configs([(s.j, s, w) for s, w in zip(steps, wants)], cyc)
            assert union == states[start]
            for step, want in zip(steps, wants):
                pending = [((start, step.j, None), want)]
                while pending:
                    ctx, want = pending.pop()
                    a_ctx, a, b_ctx, b, edge = contexts.parts(ctx)
                    got = alg.combine(a, b, edge, step)
                    if ctx[2:] == (None,):
                        got = alg.strip(got, step)
                    assert got == want, ctx
                    joins += 1
                    for part_ctx, part in ((a_ctx, a), (b_ctx, b)):
                        if len(part_ctx) == 2:
                            assert part == states[part_ctx], (ctx, part_ctx)
                        else:
                            pending.append((part_ctx, part))
    assert joins >= 500
