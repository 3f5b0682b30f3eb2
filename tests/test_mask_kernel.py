"""The tuple-set engine's bitmask kernel, ``MaskAlgebra``.

``combine`` shifts the denser of two masks by the set bits of the sparser
one, and masks are only as wide as the graph's total weight.  These tests
hold the kernel to the reference definitions: ``oplus`` for one
combination, ``TupleAlgebra`` for whole runs.
"""

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
    reconstruct,
)
from cactus_partition import dp_core
from cactus_partition.dp_core import MaskAlgebra, TupleAlgebra, _mask_state_to_set, run_tree_dp

from dp_reference import oplus, run_with_configs
from util import arc_cutoff, graph_from, path, random_graph, ring


def _heavy_vertex(total):
    """A one-vertex graph of weight ``total``: an algebra over it keeps
    masks ``min(upper, total) + 1`` bits wide."""
    return graph_from({"a": total}, [])


def _random_mask_state(rng, popcounts, width):
    """``{k: mask}`` with ``popcounts[k - 1]`` bits set below ``width``."""
    return {
        k: sum(1 << x for x in rng.sample(range(width), bits))
        for k, bits in enumerate(popcounts, start=1)
    }


# name: (lower, upper, p, parent popcounts by count, child popcounts by
# count, width of the child's bits or None for upper + 1)
KERNEL_CASES = {
    "sparser-parent": (3, 40, 9, (2, 1, 3), (12, 9, 14, 10), None),
    "sparser-child": (3, 40, 9, (12, 9, 14, 10), (2, 1, 3), None),
    "equal-popcounts": (3, 40, 9, (5, 5, 5), (5, 5, 5), None),
    "mixed-densities": (3, 40, 9, (1, 12, 4, 20), (6, 1, 15, 3), None),
    "single-bit-parent": (3, 40, 9, (1,), (15, 11, 18, 9, 13), None),
    "single-bit-child": (3, 40, 9, (15, 11, 18, 9, 13), (1,), None),
    "sums-above-u": (5, 20, 9, (2, 3, 1), (9, 12, 10), None),
    "sums-above-u-dense-parent": (5, 20, 9, (9, 12, 10), (2, 3, 1), None),
    "empty-window": (30, 40, 9, (2, 6, 1), (8, 3, 12), 30),
    "count-cap": (3, 40, 4, (1, 8, 3, 2), (9, 2, 6, 1), None),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_combine_matches_oplus(case):
    lower, upper, p, a_counts, b_counts, b_width = KERNEL_CASES[case]
    params = ProblemParams(lower, upper, p)
    alg = MaskAlgebra(_heavy_vertex(2 * upper), params)
    for seed in range(25):
        rng = random.Random(seed)
        a = _random_mask_state(rng, a_counts, upper + 1)
        b = _random_mask_state(rng, b_counts, b_width or upper + 1)
        got = _mask_state_to_set(alg.combine(a, b, None, None))
        assert got == oplus(_mask_state_to_set(a), _mask_state_to_set(b), params)


# name: (lower, upper, p, parent count k1, parent weight x1, child counts,
# width of the child's bits).  A bare-vertex parent takes combine's
# one-pass branch.
BARE_PARENT_CASES = {
    "zero-weight-parent": (3, 40, 9, 1, 0, (1, 2, 3, 4), 41),
    "heavy-parent": (3, 40, 9, 1, 37, (1, 2, 3, 4), 41),
    "gaps-in-child-counts": (3, 40, 12, 2, 5, (1, 3, 4, 7), 41),
    "descending-child-counts": (3, 40, 12, 1, 5, (4, 1, 3, 2), 41),
    "counts-at-and-past-p": (3, 40, 4, 2, 5, (1, 2, 3, 4, 5), 41),
    "window-missed": (30, 40, 9, 1, 6, (1, 2, 3), 30),
}


def _oplus_key_order(k1, a, b, params):
    """Key order of the general loop, from ``oplus`` alone: per child
    count, in the child's order, the cut's count k1 + k2 before the
    merge's k1 + k2 - 1, each listed where it first gets a weight."""
    order = []
    for k2, mb in b.items():
        counts = {k for _x, k in oplus(_mask_state_to_set(a), _mask_state_to_set({k2: mb}), params)}
        for k in (k1 + k2, k1 + k2 - 1):
            if k in counts and k not in order:
                order.append(k)
    return order


@pytest.mark.parametrize("case", sorted(BARE_PARENT_CASES))
def test_bare_parent_combine_matches_oplus(case):
    lower, upper, p, k1, x1, b_counts, b_width = BARE_PARENT_CASES[case]
    params = ProblemParams(lower, upper, p)
    alg = MaskAlgebra(_heavy_vertex(2 * upper), params)
    a = {k1: 1 << x1}
    for seed in range(40):
        rng = random.Random(seed)
        b = {k: rng.getrandbits(b_width) or 1 for k in b_counts}
        got = alg.combine(a, b, None, None)
        expected = oplus(_mask_state_to_set(a), _mask_state_to_set(b), params)
        assert _mask_state_to_set(got) == expected
        assert all(got.values())
        assert list(got) == _oplus_key_order(k1, a, b, params)


_masks = st.dictionaries(st.integers(1, 4), st.integers(1, (1 << 25) - 1), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(a=_masks, b=_masks, lower=st.integers(0, 24), p=st.integers(1, 8))
def test_combine_matches_oplus_on_random_masks(a, b, lower, p):
    params = ProblemParams(lower, 24, p)
    alg = MaskAlgebra(_heavy_vertex(100), params)
    got = _mask_state_to_set(alg.combine(a, b, None, None))
    assert got == oplus(_mask_state_to_set(a), _mask_state_to_set(b), params)


@pytest.mark.parametrize("m", [3, 10, 31, 60, 100])
def test_ring_states_match_recorded_algebra(m):
    g = ring(m, seed=m)
    params = ProblemParams(3, 12, -(-g.total_weight // 12) + 2)
    tree = build_tree(g)
    masked, mask_sink = run_with_configs(tree, MaskAlgebra(g, params))
    recorded, tuple_sink = run_with_configs(tree, TupleAlgebra(g, params))
    assert masked.keys() == recorded.keys()
    for ctx, state in masked.items():
        assert _mask_state_to_set(state) == recorded[ctx].keys()
    cutoff = arc_cutoff(tree.cycles[0], g.weight, params.upper)
    assert m < 10 or cutoff < m - 1
    assert mask_sink.keys() == tuple_sink.keys() and len(mask_sink) == cutoff
    for key, state in mask_sink.items():
        assert _mask_state_to_set(state) == tuple_sink[key].keys()


def test_long_path_states_match_recorded_algebra():
    """2,000 vertices, weights 0-100, u = 1500: wide masks and a one-bit
    parent at every combine.  ``TupleAlgebra`` is folded along with the
    run, keeping only key sets, since its records would hold every state."""
    rng = random.Random(11)
    g = path([rng.randint(0, 100) for _ in range(2000)])
    params = ProblemParams(750, 1500, g.total_weight // 1125)
    tree = build_tree(g)
    masked = run_tree_dp(tree, MaskAlgebra(g, params))
    ref = TupleAlgebra(g, params)
    full = {}
    widest = 0
    for v in tree.postorder():
        keys = ref.base(v).keys()
        assert _mask_state_to_set(masked[(v, 0)]) == keys
        for i, child in enumerate(tree.children[v], start=1):
            b = dict.fromkeys(full.pop(child))
            keys = ref.combine(dict.fromkeys(keys), b, None, None).keys()
            assert _mask_state_to_set(masked[(v, i)]) == keys
        full[v] = set(keys)
        widest = max(widest, len(keys))
    assert widest > 1000


def test_merge_lists_only_the_sparser_operands_bits(monkeypatch):
    """Cost rule: a one-bit parent lists one bit per count pair, not the
    child's 500 (the kernel lists bits only through ``_mask_values``)."""
    listed = []
    real = dp_core._mask_values

    def counting(mask):
        bits = real(mask)
        listed.append(len(bits))
        return bits

    monkeypatch.setattr(dp_core, "_mask_values", counting)
    rng = random.Random(0)
    child = _random_mask_state(rng, (500,) * 5, 2000)
    alg = MaskAlgebra(_heavy_vertex(4000), ProblemParams(0, 4000, 10))
    out = alg.combine({1: 1 << 3}, child, None, None)
    pairs = 5  # k1 = 1 with k2 = 1..5, all within p
    assert sum(listed) <= pairs
    assert all(out[k] & child[k] << 3 == child[k] << 3 for k in child)


def test_masks_no_wider_than_the_graph():
    g = random_graph(3, n=40)
    total = g.total_weight
    params = ProblemParams(2, 10**7, 4)
    alg = MaskAlgebra(g, params)
    assert alg.full_mask.bit_length() == total + 1
    assert alg.window_mask == alg.full_mask & ~0b11
    assert decide_p_partition(g, params) == decide_p_partition_poly(g, params)
    many = ProblemParams(2, 10**7, g.num_vertices)
    run = annotate(g, many, "tupleset")
    assert run.feasible_counts() == annotate(g, many, "interval").feasible_counts()
    k = max(run.feasible_counts())
    partition = reconstruct(annotate(g, ProblemParams(2, 10**7, k), "tupleset"))
    assert len(partition.clusters) == k
    assert all(sum(g.weight[v] for v in cluster) >= 2 for cluster in partition.clusters)


def test_lower_bound_above_the_graph_leaves_an_empty_window():
    g = path([1, 2, 3])
    alg = MaskAlgebra(g, ProblemParams(50, 60, 2))
    assert alg.full_mask.bit_length() == 7 and alg.window_mask == 0
    assert decide_p_partition(g, ProblemParams(50, 60, 1)) is False
