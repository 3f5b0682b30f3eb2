"""Answers found without the DP, and the callers that must not use them.

``trivially_infeasible`` answers "no" when ``p`` clusters in ``[l, u]``
cannot add up to the total weight ``W``.  That holds for an exact count
only: ``min_partition``/``max_partition`` and ``min_cost_partition``
without ``p`` pass ``n`` as a count cap, ``capacity_partition`` passes 1,
and with the sum bound they would wrongly answer "no" whenever
``n * l > W`` or ``u < W``.  These tests pin both sides against the
oracle, and that the deciders answer before building a tree.
"""

import json
import random

import pytest

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    capacity_partition,
    decide_p_partition,
    decide_p_partition_poly,
    max_partition,
    maxmin_partition,
    min_cost_partition,
    min_partition,
    minmax_partition,
    tree_rep,
    trivially_infeasible,
)
from cactus_partition.cli import run
from cactus_partition.oracle import (
    enumerate_all,
    oracle_capacity,
    oracle_max,
    oracle_min,
    oracle_min_cost,
)

from util import path, random_graph, triangle

LOWER_SUM = "the clusters' lower bounds add up to more than the total weight"
UPPER_SUM = "the clusters' upper bounds add up to less than the total weight"


def _objective(found):
    return None if found is None else found[0]


def _windows(upper_below_total):
    """Seeded small cacti with a window whose count bound fails for the
    cap: ``n * l > W``, or with ``upper_below_total`` also ``u < W``."""
    rng = random.Random(0xCA9)
    for seed in range(80):
        g = random_graph(seed, n=rng.randint(3, 9), cycle_density=0.6, weight_range=(1, 6),
                         cost_range=(0, 5), capacity_range=(0, 3))
        total, n = g.total_weight, g.num_vertices
        lower = rng.randint(0, total // n + 1)
        upper = rng.randint(max(lower, g.max_weight), total)
        if upper_below_total and upper >= total:
            continue
        if not upper_below_total and n * lower <= total:
            continue
        yield g, lower, upper


def test_min_and_max_ignore_the_sum_bound_of_their_count_cap():
    feasible = 0
    for g, lower, upper in _windows(upper_below_total=False):
        catalog = enumerate_all(g)
        want_min = _objective(oracle_min(catalog, lower, upper))
        want_max = _objective(oracle_max(catalog, lower, upper))
        for engine in ("interval", "tupleset"):
            assert _objective(min_partition(g, lower, upper, algorithm=engine)) == want_min
            assert _objective(max_partition(g, lower, upper, algorithm=engine)) == want_max
        feasible += want_min is not None
    assert feasible >= 10


def test_min_cost_without_a_count_ignores_the_sum_bound():
    feasible = 0
    for g, lower, upper in _windows(upper_below_total=False):
        want = _objective(oracle_min_cost(enumerate_all(g), lower, upper))
        assert _objective(min_cost_partition(g, lower, upper)) == want
        feasible += want is not None
    assert feasible >= 10


def test_capacity_ignores_the_sum_bound_of_its_placeholder_count():
    feasible = 0
    for g, lower, upper in _windows(upper_below_total=True):
        catalog = enumerate_all(g)
        for objective in ("min", "max"):
            want = _objective(oracle_capacity(catalog, lower, upper, 3, objective))
            assert _objective(capacity_partition(g, lower, upper, 3, objective)) == want
            feasible += want is not None
    assert feasible >= 10


def test_min_cost_with_a_count_answers_from_the_sum_bound():
    g = path([2, 2, 2])
    assert min_cost_partition(g, 4, 6, num_clusters=2) is None  # 2 * 4 > 6
    assert min_cost_partition(g, 0, 2, num_clusters=2) is None  # 2 * 2 < 6
    assert min_cost_partition(g, 2, 4, num_clusters=2) is not None


@pytest.mark.parametrize("decide", [decide_p_partition, decide_p_partition_poly])
def test_deciders_answer_the_sum_bound_without_a_tree(decide, monkeypatch):
    built = []
    monkeypatch.setattr(  # where ``as_tree`` looks it up
        tree_rep, "build_tree", lambda graph, root=None, _real=tree_rep.build_tree: (
            built.append(graph) or _real(graph, root)
        ),
    )
    g = path([2, 2, 2])
    assert trivially_infeasible(g, ProblemParams(4, 6, 2)) == LOWER_SUM
    assert decide(g, ProblemParams(4, 6, 2)) is False
    assert trivially_infeasible(g, ProblemParams(0, 2, 2)) == UPPER_SUM
    assert decide(g, ProblemParams(0, 2, 2)) is False
    assert built == []
    assert trivially_infeasible(g, ProblemParams(2, 4, 2)) is None
    assert decide(g, ProblemParams(2, 4, 2)) is True
    assert built == [g]


# Each request has an early answer on ``path([2, 5, 2])`` (n 3, W 9): the
# sum bound 1 * 5 < 9, a vertex of weight 5 above u = 4, or 4 clusters
# on 3 vertices.
EARLY_ANSWERS = {
    "decide": lambda g, root: decide_p_partition(g, ProblemParams(0, 5, 1), root),
    "decide-poly": lambda g, root: decide_p_partition_poly(g, ProblemParams(0, 5, 1), root),
    "min": lambda g, root: min_partition(g, 0, 4, root=root),
    "max": lambda g, root: max_partition(g, 0, 4, root=root, algorithm="tupleset"),
    "min-cost": lambda g, root: min_cost_partition(g, 0, 4, root=root),
    "min-cost-p": lambda g, root: min_cost_partition(g, 0, 5, num_clusters=1, root=root),
    "minmax": lambda g, root: minmax_partition(g, 0, 9, 4, root=root),
    "maxmin": lambda g, root: maxmin_partition(g, 0, 9, 4, root=root),
    "capacity": lambda g, root: capacity_partition(g, 0, 4, 10, root=root),
}


@pytest.mark.parametrize("entry", sorted(EARLY_ANSWERS))
def test_a_bad_root_raises_before_an_early_answer(entry):
    solve = EARLY_ANSWERS[entry]
    g = path([2, 5, 2])
    assert not solve(g, None)
    assert not solve(g, "n1")
    with pytest.raises(ValueError, match="root 'zz' is not a vertex"):
        solve(g, "zz")
    assert not solve(build_tree(g), "zz")  # a tree keeps its own root


# An unknown engine on ``path([2, 5, 2])``, with u = 4 (a vertex outweighs
# it: an early answer, or for annotate an error of its own) and with u = 9
# (the DP runs).
UNKNOWN_ENGINE = {
    "annotate": lambda g, upper: annotate(g, ProblemParams(0, upper, 2), "bogus"),
    "min": lambda g, upper: min_partition(g, 0, upper, algorithm="bogus"),
    "max": lambda g, upper: max_partition(g, 0, upper, algorithm="bogus"),
}


@pytest.mark.parametrize("upper", [4, 9], ids=["early-answer", "dp"])
@pytest.mark.parametrize("entry", sorted(UNKNOWN_ENGINE))
def test_an_unknown_algorithm_raises_before_an_early_answer(entry, upper):
    with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
        UNKNOWN_ENGINE[entry](path([2, 5, 2]), upper)


def test_the_sum_bound_never_rejects_a_feasible_count():
    rng = random.Random(0x5B)
    rejected = 0
    for seed in range(60):
        g = random_graph(seed, n=rng.randint(2, 8), cycle_density=0.6)
        catalog = enumerate_all(g)
        for _ in range(6):
            upper = rng.randint(g.max_weight, g.total_weight + 2)
            params = ProblemParams(rng.randint(0, upper), upper, rng.randint(1, g.num_vertices))
            reason = trivially_infeasible(g, params)
            if reason in (LOWER_SUM, UPPER_SUM):
                rejected += 1
                assert not any(
                    p.num_clusters == params.num_clusters
                    and all(params.lower <= w <= params.upper for w in p.weights)
                    for p in catalog.partitions
                ), (seed, params)
    assert rejected >= 20


def _cli(tmp_path, capsys, graph, *argv):
    target = tmp_path / "graph.json"
    target.write_text(json.dumps(graph.to_data()))
    code = run(["solve", *argv, str(target)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("variant", ["decide", "solve"])
@pytest.mark.parametrize("engine", ["tupleset", "interval"])
def test_cli_names_the_reason_of_an_infeasible_answer(variant, engine, tmp_path, capsys):
    g = triangle((2, 2, 2))
    flags = ("--variant", variant, "--algorithm", engine)
    keys = {"nodes", "cycles", "max_cycle_length", "dp_cells", "wall_ms", "algorithm"}
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "4", "-u", "6", "-p", "2")
    assert code == 1 and result["feasible"] is False
    assert set(result["stats"]) == keys | {"reason"}
    assert result["stats"]["reason"] == LOWER_SUM and result["stats"]["dp_cells"] == 0
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "3", "-u", "3", "-p", "2")
    assert code == 1 and result["feasible"] is False
    assert result["stats"]["reason"] == "no partition found by the DP"
    assert result["stats"]["dp_cells"] > 0
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "2", "-u", "4", "-p", "2")
    assert code == 0 and set(result["stats"]) == keys


def test_cli_other_variants_add_no_reason(tmp_path, capsys):
    g = triangle((2, 2, 2))
    code, result = _cli(tmp_path, capsys, g, "--variant", "min", "-l", "5", "-u", "5")
    assert code == 1 and "reason" not in result["stats"]
