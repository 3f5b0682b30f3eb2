"""The one-pass cycle fold against the per-configuration fold it replaced.

``fold_reference`` keeps the earlier fold.  On seeded cacti, for all six
algebras, the package's run must give the same states, the same
configuration states (``run_with_configs``), the same combine counts and,
for the recorded algebras, the same witness cuts; and for every
configuration j = 1..m of every cycle, ``m`` included, the same
``configuration_state`` and the same ``(joined, chains)`` from
``fold_configuration``.  The three modes of ``run_tree_dp`` (frontier,
full, and full with a ``fold_sink``) must make the same algebra calls.
"""

import random

import fold_reference as ref
import pytest

from cactus_partition import ProblemParams, build_tree
from cactus_partition.backtrack import collect_cuts
from cactus_partition.dp_core import CycleStep, MaskAlgebra, TupleAlgebra, run_tree_dp
from cactus_partition.interval_dp import IntervalAlgebra
from cactus_partition.tree_rep import absent_cycle_edge
from cactus_partition.variants import CapacityAlgebra, CostAlgebra, SizeWeightAlgebra

from dp_reference import (
    configuration_state, cycle_node_states, fold_configuration, keep_every_fold, run_with_configs,
)
from util import random_graph, rings_and_necklaces

ALGEBRAS = ("mask", "interval", "tuple", "cost", "sizeweight", "capacity")
RECORDED = ("tuple", "cost", "sizeweight", "capacity")


def _corpus():
    """Dense seeded cacti with every attribute, rings and necklaces, each
    with a seeded window, count, bound and capacity."""
    rng = random.Random(0xF01D)
    graphs = list(rings_and_necklaces())
    graphs += [
        random_graph(seed, n=rng.randint(4, 13), cycle_density=0.9, size_range=(0, 4),
                     cost_range=(0, 5), capacity_range=(0, 4))
        for seed in range(40)
    ]
    for g in graphs:
        upper = rng.randint(g.max_weight, g.max_weight + 8)
        lower = rng.randint(0, upper)
        n = g.num_vertices
        yield g, lower, upper, rng.randint(1, n), rng.randint(0, g.total_weight), rng.randint(0, 12)


def _algebra(name, g, lower, upper, p, bound, cap, maximize):
    params = ProblemParams(lower, upper, p)
    if name == "mask":
        return MaskAlgebra(g, params)
    if name == "interval":
        return IntervalAlgebra(g, params)
    if name == "tuple":
        return TupleAlgebra(g, params)
    if name == "cost":
        return CostAlgebra(g, lower, upper, p)
    if name == "sizeweight":
        return SizeWeightAlgebra(g, lower, upper, p, bound, maximize)
    return CapacityAlgebra(g, lower, upper, cap)


def _plain(value):
    """A state or record with the states its records point at left out."""
    if isinstance(value, dict):
        return [(key, _plain(v)) for key, v in value.items()]
    if isinstance(value, tuple):
        return tuple("state" if isinstance(v, dict) else _plain(v) for v in value)
    return value


def _counted(monkeypatch, kind):
    """Count the combines of algebra class ``kind``, all and inside cycles."""
    counts = [0, 0]
    combine = kind.combine

    def counting(self, a, b, edge, step):
        counts[0] += 1
        counts[1] += step is not None
        return combine(self, a, b, edge, step)

    monkeypatch.setattr(kind, "combine", counting)
    return counts


def _same_fold(got, want, where):
    (joined, chains), (ref_joined, ref_chains) = got, want
    assert [_plain(s) for s in joined] == [_plain(s) for s in ref_joined], where
    assert len(chains) == len(ref_chains), where
    for (edge, positions, states), (ref_edge, ref_positions, ref_states) in zip(chains, ref_chains):
        assert (edge, list(positions)) == (ref_edge, list(ref_positions)), where
        assert [_plain(s) for s in states] == [_plain(s) for s in ref_states], where


@pytest.mark.parametrize("name", ALGEBRAS)
def test_one_pass_fold_matches_the_per_configuration_fold(name, monkeypatch):
    configs = folds = 0
    counts = None
    for case, (g, lower, upper, p, bound, cap) in enumerate(_corpus()):
        where = f"{name}, case {case}"
        tree = build_tree(g)
        alg = _algebra(name, g, lower, upper, p, bound, cap, maximize=case % 2 == 1)
        counts = counts or _counted(monkeypatch, type(alg))
        counts[:] = [0, 0]
        ref_sink = {}
        states, sink = run_with_configs(tree, alg)
        new_counts = list(counts)
        counts[:] = [0, 0]
        ref_states = ref.run_tree_dp(tree, alg, config_sink=ref_sink)
        assert new_counts == counts, where
        assert list(states) == list(ref_states), where
        for ctx, want in ref_states.items():
            assert _plain(states[ctx]) == _plain(want), (where, ctx)
        assert list(sink) == list(ref_sink), where
        for key, want in ref_sink.items():
            assert _plain(sink[key]) == _plain(want), (where, key[1])
        configs += len(sink)
        if name in RECORDED:
            root = (tree.root, tree.full_index(tree.root))
            for key in ref_states[root]:
                assert collect_cuts(states[root], key) == collect_cuts(ref_states[root], key), where
        for cyc in tree.cycles:
            owns = cycle_node_states(tree, states, cyc)
            before = states[(cyc.start, cyc.start_child_index - 1)]
            for j in range(1, cyc.length + 1):
                step, state = configuration_state(alg, cyc, j, owns, before)
                ref_step, ref_state = ref.configuration_state(alg, cyc, j, owns, before)
                assert step == ref_step and _plain(state) == _plain(ref_state), (where, j)
                step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
                _same_fold(
                    fold_configuration(alg, step, owns, before),
                    ref.fold_configuration(alg, step, owns, before, alg.combine),
                    (where, j),
                )
                folds += 1
    assert configs > 100 and folds > 400


def _calls(monkeypatch, kind):
    """Record every ``combine`` and ``union_configs`` call of algebra
    class ``kind``: whether a combine had a ``step``, and the
    configurations a union got, with their states, and what it gave."""
    calls = []
    combine, union = kind.combine, kind.union_configs

    def combining(self, a, b, edge, step):
        calls.append(("combine", step is not None))
        return combine(self, a, b, edge, step)

    def uniting(self, configs, cycle):
        out = union(self, configs, cycle)
        calls.append(("union", cycle, [(j, step, _plain(state)) for j, step, state in configs], _plain(out)))
        return out

    monkeypatch.setattr(kind, "combine", combining)
    monkeypatch.setattr(kind, "union_configs", uniting)
    return calls


@pytest.mark.parametrize("name", ALGEBRAS)
def test_every_mode_makes_the_same_algebra_calls(name, monkeypatch):
    """The frontier run, the full run and the run with a ``fold_sink``
    make the same ``combine`` calls, as many with a ``step``, and hand
    ``union_configs`` the same configurations, in the same order:
    perfbench's tracer counts ``combines``, ``cycle_combines`` and
    ``config_yield`` from these calls, whatever the mode."""
    calls = None
    cycle_combines = unions = 0
    for case, (g, lower, upper, p, bound, cap) in enumerate(_corpus()):
        tree = build_tree(g)
        alg = _algebra(name, g, lower, upper, p, bound, cap, maximize=case % 2 == 1)
        calls = calls if calls is not None else _calls(monkeypatch, type(alg))
        modes = []
        for options in ({"frontier": True}, {}, {"fold_sink": keep_every_fold({})}):
            calls.clear()
            run_tree_dp(tree, alg, **options)
            modes.append(list(calls))
        assert modes[0] == modes[1] == modes[2], (name, case)
        cycle_combines += sum(call == ("combine", True) for call in modes[0])
        unions += sum(call[0] == "union" for call in modes[0])
    assert cycle_combines > 1000 and unions > 100
