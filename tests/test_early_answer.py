"""Answers found without the DP, and the callers that must not use them.

``trivially_infeasible`` answers "no" when ``p`` clusters in ``[l, u]``
cannot add up to the total weight ``W``.  That holds for an exact count
only: ``min_partition``/``max_partition``, ``min_cost_partition``
without ``p`` and ``capacity_partition`` cap the count at ``n``, and
with the sum bound they would wrongly answer "no" whenever ``n * l > W``
or ``u < W``.  These tests pin both sides against the oracle, also for
the size bounds of minmax/maxmin.  The entry-point matrix pins the one
order every entry point checks in (parameters, root, early answer,
tree), and no early answer builds a tree.
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
from cactus_partition.dp_core import _prepare
from cactus_partition.errors import InvalidParamsError
from cactus_partition.oracle import (
    enumerate_all,
    oracle_capacity,
    oracle_max,
    oracle_maxmin,
    oracle_min,
    oracle_min_cost,
    oracle_minmax,
)

from util import graph_from, path, random_graph, triangle

LOWER_SUM = "the clusters' lower bounds add up to more than the total weight"
UPPER_SUM = "the clusters' upper bounds add up to less than the total weight"
LOWER_SIZE_SUM = "the clusters' lower bounds add up to more than the total size"
UPPER_SIZE_SUM = "the clusters' upper bounds add up to less than the total size"


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


# The entry-point matrix: every entry point that may answer early, on
# ``G`` (n 3, W 9, heaviest vertex 5, sizes equal to weights, cuts cost 3
# and 1), in each column's request.  A cell holds the answer (the bool of a
# decider, the objective of a variant, or None) or the exception type and
# message.  Entry points without ``p`` (min, max, min-cost, capacity) cap
# the count at n: they ignore the column's ``p``, and the sum bounds do not
# apply to them.
G = graph_from({"n0": 2, "n1": 5, "n2": 2}, [("n0", "n1"), ("n1", "n2")],
               costs={("n0", "n1"): 3, ("n1", "n2"): 1})
EARLY_ANSWERS = {
    "decide": lambda g, root, l, u, p: decide_p_partition(g, ProblemParams(l, u, p), root),
    "decide-poly": lambda g, root, l, u, p: decide_p_partition_poly(g, ProblemParams(l, u, p), root),
    "min": lambda g, root, l, u, p: min_partition(g, l, u, root=root),
    "min-tupleset": lambda g, root, l, u, p: min_partition(g, l, u, root=root, algorithm="tupleset"),
    "max": lambda g, root, l, u, p: max_partition(g, l, u, root=root, algorithm="tupleset"),
    "max-interval": lambda g, root, l, u, p: max_partition(g, l, u, root=root),
    "min-cost": lambda g, root, l, u, p: min_cost_partition(g, l, u, root=root),
    "min-cost-p": lambda g, root, l, u, p: min_cost_partition(g, l, u, num_clusters=p, root=root),
    "minmax": lambda g, root, l, u, p: minmax_partition(g, l, u, p, root=root),
    "maxmin": lambda g, root, l, u, p: maxmin_partition(g, l, u, p, root=root),
    "capacity": lambda g, root, l, u, p: capacity_partition(g, l, u, 10, root=root),
}
COLUMNS = {  # (lower, upper, p, root); "tree" runs on build_tree(G)
    "feasible": (2, 7, 2, None),
    "bad-window": (5, 4, 2, None),
    "bad-root": (0, 4, 3, "zz"),  # with a heavy vertex: the root is checked first
    "both": (5, 4, 2, "zz"),
    "heavy": (0, 4, 3, None),
    "p-above-n": (0, 9, 4, None),
    "lower-sum": (4, 9, 3, None),
    "upper-sum": (0, 8, 1, None),
    "tree": (2, 7, 2, "zz"),  # a tree keeps its own root
}
W = (InvalidParamsError, "lower bound 5 exceeds upper bound 4")
R = (ValueError, "root 'zz' is not a vertex")
EXPECTED = {  # in the order of COLUMNS
    "decide": (True, W, R, W, False, False, False, False, True),
    "decide-poly": (True, W, R, W, False, False, False, False, True),
    "min": (2, W, R, W, None, 1, 1, 2, 2),
    "min-tupleset": (2, W, R, W, None, 1, 1, 2, 2),
    "max": (3, W, R, W, None, 3, 1, 3, 3),
    "max-interval": (3, W, R, W, None, 3, 1, 3, 3),
    "min-cost": (1, W, R, W, None, 0, 0, 1, 1),
    "min-cost-p": (1, W, R, W, None, None, None, None, 1),
    "minmax": (7, W, R, W, None, None, None, None, 7),
    "maxmin": (2, W, R, W, None, None, None, None, 2),
    "capacity": (2, W, R, W, None, 1, 1, 2, 2),
}


def _request(entry, column):
    lower, upper, p, root = COLUMNS[column]
    source = build_tree(G) if column == "tree" else G
    return lambda: EARLY_ANSWERS[entry](source, root, lower, upper, p)


def _early_columns(entry):
    """The columns where ``entry`` answers early (None, or False for a decider)."""
    return [column for column, want in zip(COLUMNS, EXPECTED[entry]) if want is None or want is False]


@pytest.mark.parametrize("column", list(COLUMNS))
@pytest.mark.parametrize("entry", sorted(EARLY_ANSWERS))
def test_every_entry_point_checks_in_one_order(entry, column):
    want = EXPECTED[entry][list(COLUMNS).index(column)]
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as raised:
            _request(entry, column)()
        assert (type(raised.value), str(raised.value)) == want
    else:
        got = _request(entry, column)()
        assert (got if got is None or isinstance(got, bool) else got[0]) == want


# the deciders keep the ids this test had when it covered them alone
@pytest.mark.parametrize("entry", sorted(EARLY_ANSWERS), ids={
    "decide": "decide_p_partition", "decide-poly": "decide_p_partition_poly"}.get)
def test_deciders_answer_the_sum_bound_without_a_tree(entry, monkeypatch):
    """No early answer builds a tree; the feasible request builds one."""
    built = []
    monkeypatch.setattr(  # where ``as_tree`` looks it up
        tree_rep, "build_tree", lambda graph, root=None, _real=tree_rep.build_tree: (
            built.append(graph) or _real(graph, root)
        ),
    )
    early = _early_columns(entry)
    assert "heavy" in early
    for column in early:
        assert not _request(entry, column)()
        assert built == [], column
    assert _request(entry, "feasible")()
    assert built == [G]


def test_each_early_answer_names_its_reason():
    """The reasons the CLI prints, over weights and over sizes; a count
    cap gets no sum bound."""
    g = path([2, 2, 2])
    assert trivially_infeasible(g, ProblemParams(4, 6, 2)) == LOWER_SUM
    assert trivially_infeasible(g, ProblemParams(0, 2, 2)) == UPPER_SUM
    assert trivially_infeasible(g, ProblemParams(2, 4, 2)) is None
    for column, by_weight, by_size in (("lower-sum", LOWER_SUM, LOWER_SIZE_SUM),
                                       ("upper-sum", UPPER_SUM, UPPER_SIZE_SUM)):
        lower, upper, p, _root = COLUMNS[column]
        assert _prepare(G, None, lower, upper, p)[2] == by_weight
        assert _prepare(G, None, lower, upper, p, "size")[2] == by_size
        assert _prepare(G, None, lower, upper)[2] is None


@pytest.mark.parametrize("entry", sorted(EARLY_ANSWERS))
def test_a_bad_root_raises_before_an_early_answer(entry):
    """In every column where ``entry`` answers early, a bad root raises
    first: with an exact count that is a heavy vertex, ``p > n`` and each
    sum bound; with a count cap, a heavy vertex alone."""
    solve = EARLY_ANSWERS[entry]
    early = _early_columns(entry)
    exact = entry in ("decide", "decide-poly", "min-cost-p", "minmax", "maxmin")
    assert early == (["heavy", "p-above-n", "lower-sum", "upper-sum"] if exact else ["heavy"])
    for column in early:
        request = COLUMNS[column][:3]
        assert not solve(G, None, *request)
        assert not solve(G, "n1", *request)
        with pytest.raises(ValueError, match="root 'zz' is not a vertex"):
            solve(G, "zz", *request)
        assert not solve(build_tree(G), "zz", *request)  # a tree keeps its own root


def test_capacity_checks_its_own_options_before_the_window():
    with pytest.raises(InvalidParamsError, match="^capacity bound must be a non-negative integer$"):
        capacity_partition(G, 5, 4, -1)
    with pytest.raises(InvalidParamsError, match="^objective must be 'min' or 'max', got 'mid'$"):
        capacity_partition(G, 5, 4, -1, objective="mid")


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
    # minmax/maxmin check the same bounds over sizes: a size-sum reason
    # fires only where the oracle finds no partition, and their answers
    # are the oracle's
    rejected = 0
    for seed in range(60):
        g = random_graph(seed, n=rng.randint(2, 8), cycle_density=0.6, size_range=(0, 6))
        catalog = enumerate_all(g)
        sizes = g.size.values()
        for _ in range(6):
            upper = rng.randint(max(sizes), sum(sizes) + 2)
            lower, p = rng.randint(0, upper), rng.randint(1, g.num_vertices)
            reason = _prepare(g, None, lower, upper, p, "size")[2]
            want_max = oracle_minmax(catalog, lower, upper, p)
            want_min = oracle_maxmin(catalog, lower, upper, p)
            if reason in (LOWER_SIZE_SUM, UPPER_SIZE_SUM):
                rejected += 1
                assert want_max is None and want_min is None, (seed, lower, upper, p)
            assert _objective(minmax_partition(g, lower, upper, p)) == _objective(want_max)
            assert _objective(maxmin_partition(g, lower, upper, p)) == _objective(want_min)
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
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "0", "-u", "5", "-p", "1")
    assert code == 1 and result["feasible"] is False
    assert result["stats"]["reason"] == UPPER_SUM and result["stats"]["dp_cells"] == 0
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "3", "-u", "3", "-p", "2")
    assert code == 1 and result["feasible"] is False
    assert result["stats"]["reason"] == "no partition found by the DP"
    assert result["stats"]["dp_cells"] > 0
    code, result = _cli(tmp_path, capsys, g, *flags, "-l", "2", "-u", "4", "-p", "2")
    assert code == 0 and set(result["stats"]) == keys


HEAVY = "a vertex weight exceeds the upper bound"
VARIANT_REASONS = {  # (early flags, their reason, flags only the DP answers) on triangle((2, 2, 2))
    "min": (("-l", "0", "-u", "1"), HEAVY, ("-l", "5", "-u", "5")),
    "max": (("-l", "0", "-u", "1"), HEAVY, ("-l", "5", "-u", "5")),
    "min-cost": (("-l", "0", "-u", "1", "-p", "2"), HEAVY, ("-l", "3", "-u", "3", "-p", "2")),
    "minmax": (("-l", "0", "-u", "6", "-p", "4"), "more clusters requested than vertices",
               ("-l", "3", "-u", "3", "-p", "2")),
    "maxmin": (("-l", "4", "-u", "6", "-p", "2"), LOWER_SIZE_SUM, ("-l", "3", "-u", "3", "-p", "2")),
    "capacity": (("--lw", "0", "--uw", "1", "--uc", "5"), HEAVY, ("--lw", "5", "--uw", "5", "--uc", "5")),
}


@pytest.mark.parametrize("variant", sorted(VARIANT_REASONS))
def test_cli_every_variant_names_its_reason(variant, tmp_path, capsys):
    """Every infeasible answer names its reason: the early answer's, read
    from the library's ``stats``, or the DP's."""
    g = triangle((2, 2, 2))
    early, reason, by_dp = VARIANT_REASONS[variant]
    code, result = _cli(tmp_path, capsys, g, "--variant", variant, *early)
    assert code == 1 and result["feasible"] is False
    assert result["stats"]["reason"] == reason and result["stats"]["dp_cells"] == 0
    code, result = _cli(tmp_path, capsys, g, "--variant", variant, *by_dp)
    assert code == 1 and result["feasible"] is False
    assert result["stats"]["reason"] == "no partition found by the DP"
    assert result["stats"]["dp_cells"] > 0
