import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cactus_partition
from cactus_partition import backtrack, tree_rep, validate_cactus
from cactus_partition.cli import run

from util import random_graph


TRIANGLE = {
    "vertices": [{"id": v, "weight": 1} for v in "abc"],
    "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}, {"u": "a", "v": "c"}],
}

TRI222 = {
    "vertices": [{"id": v, "weight": 2} for v in "abc"],
    "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}, {"u": "a", "v": "c"}],
}


@pytest.fixture
def graph_file(tmp_path):
    def write(doc, name="graph.json"):
        target = tmp_path / name
        target.write_text(json.dumps(doc))
        return str(target)

    return write


def _solve(capsys, *argv):
    code = run(["solve", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_decide_feasible(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "decide", "-l", "1", "-u", "1", "-p", "3",
                          graph_file(TRIANGLE))
    assert code == 0
    assert result["feasible"] is True
    assert result["objective"] is None
    stats = result["stats"]
    assert stats["nodes"] == 3 and stats["cycles"] == 1 and stats["max_cycle_length"] == 3
    assert stats["dp_cells"] > 0 and stats["wall_ms"] >= 0


def test_decide_infeasible_exit_code(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "decide", "-l", "2", "-u", "2", "-p", "2",
                          graph_file(TRIANGLE))
    assert code == 1
    assert result["feasible"] is False


def test_solve_returns_clusters(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "solve", "-l", "1", "-u", "1", "-p", "3",
                          graph_file(TRIANGLE))
    assert code == 0
    assert sorted(map(tuple, result["clusters"])) == [("a",), ("b",), ("c",)]
    assert result["cut_edges"]


def test_min_variant_objective(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "min", "-l", "2", "-u", "4",
                          graph_file(TRI222))
    assert code == 0
    assert result["objective"] == 2
    assert len(result["clusters"]) == 2


def test_oracle_cross_check(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "min", "-l", "2", "-u", "4", "--oracle",
                          graph_file(TRI222))
    assert code == 0
    assert result["oracle_agrees"] is True


def test_algorithms_agree(graph_file, capsys):
    doc = random_graph(17, n=9, cycle_density=0.6).to_data()
    target = graph_file(doc)
    for variant, flags in (("decide", ["-p", "3"]), ("solve", ["-p", "3"]), ("min", []), ("max", [])):
        results = []
        for algorithm in ("tupleset", "interval"):
            code, result = _solve(capsys, "--variant", variant, "-l", "1", "-u", "9",
                                  *flags, "--algorithm", algorithm, target)
            results.append((code, result["feasible"], result["objective"]))
        assert results[0] == results[1]


def test_capacity_variant(graph_file, capsys):
    doc = {
        "vertices": [{"id": v, "weight": 1} for v in "cxyz"],
        "edges": [{"u": "c", "v": t, "capacity": 1} for t in "xyz"],
    }
    code, result = _solve(capsys, "--variant", "capacity", "--lw", "1", "--uw", "1",
                          "--uc", "3", graph_file(doc))
    assert code == 0
    assert result["objective"] == 4
    code, _ = _solve(capsys, "--variant", "capacity", "--lw", "1", "--uw", "1",
                     "--uc", "2", graph_file(doc))
    assert code == 1


def test_minmax_variant(graph_file, capsys):
    doc = {"vertices": [{"id": f"n{i}", "weight": 1} for i in range(4)],
           "edges": [{"u": f"n{i}", "v": f"n{i+1}"} for i in range(3)]}
    code, result = _solve(capsys, "--variant", "minmax", "-l", "0", "-u", "4", "-p", "2",
                          graph_file(doc))
    assert code == 0
    assert result["objective"] == 2


def test_dump_tree(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "decide", "-l", "1", "-u", "3", "-p", "1",
                          "--dump-tree", graph_file(TRIANGLE))
    assert code == 0
    assert result["tree"]["root"] == "a"
    assert len(result["tree"]["cycles"]) == 1


def test_root_override(graph_file, capsys):
    code, result = _solve(capsys, "--variant", "decide", "-l", "1", "-u", "1", "-p", "3",
                          "--root", "b", graph_file(TRIANGLE))
    assert code == 0 and result["feasible"] is True


def test_usage_errors(graph_file, capsys):
    target = graph_file(TRIANGLE)
    # missing required parameter
    assert run(["solve", "--variant", "decide", "-l", "1", "-u", "1", target]) == 2
    # parameter that does not belong to the variant
    assert run(["solve", "--variant", "min", "-l", "1", "-u", "1", "-p", "2", target]) == 2
    # interval algorithm unavailable for cost optimisation
    assert run(["solve", "--variant", "min-cost", "-l", "1", "-u", "1",
                "--algorithm", "interval", target]) == 2
    # unknown flag
    assert run(["solve", "--variant", "decide", "--frobnicate", target]) == 2
    # unknown root vertex
    assert run(["solve", "--variant", "decide", "-l", "1", "-u", "1", "-p", "1",
                "--root", "zz", target]) == 2
    capsys.readouterr()


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    assert run(["solve", "--variant", "min", "-l", "0", "-u", "1", missing]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--variant", "min", "-l", "0", "-u", "1", str(bad)]) == 3
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({
        "vertices": [{"id": v, "weight": 1} for v in "abcd"],
        "edges": [{"u": u, "v": v} for i, u in enumerate("abcd") for v in "abcd"[i + 1:]],
    }))
    assert run(["solve", "--variant", "min", "-l", "0", "-u", "4", str(k4)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b"\xff{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_undecodable_document_exit_3(tmp_path, capsys, content):
    target = tmp_path / "graph.json"
    target.write_bytes(content)
    assert run(["solve", "--variant", "min", "-l", "0", "-u", "1", str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read graph" in captured.err


@pytest.mark.parametrize(
    "document",
    [
        {"vertices": [{"weight": 1}]},
        {"vertices": ["a"]},
        {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"u": "a"}]},
    ],
    ids=["vertex-without-id", "vertex-not-an-object", "edge-without-v"],
)
def test_malformed_entries_exit_3(graph_file, capsys, document):
    assert run(["solve", "--variant", "min", "-l", "0", "-u", "3", graph_file(document)]) == 3
    err = capsys.readouterr().err
    assert "invalid graph" in err and "entry" in err


def test_gen_is_deterministic_and_valid(capsys):
    assert run(["gen", "-n", "12", "--cycle-density", "0.5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "-n", "12", "--cycle-density", "0.5", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    graph = validate_cactus(json.loads(first))
    assert graph.num_vertices == 12


def test_gen_density_zero_is_a_tree(capsys):
    assert run(["gen", "-n", "10", "--cycle-density", "0", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    graph = validate_cactus(doc)
    assert len(graph.edges) == 9


def test_gen_single_vertex(capsys):
    assert run(["gen", "-n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 1 and doc["edges"] == []


def test_gen_ranges_bound_their_attributes(capsys):
    """Each range flag bounds its attribute, both ends included; without
    it a size is the weight and a cost or capacity is absent."""
    assert run(["gen", "-n", "40", "--cycle-density", "0.5", "--seed", "5", "--weight-range", "3:4",
                "--size-range", "7:8", "--cost-range", "0:2", "--capacity-range", "10:12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    graph = validate_cactus(doc)
    assert set(graph.weight.values()) == {3, 4} and set(graph.size.values()) == {7, 8}
    assert set(graph.cost.values()) == {0, 1, 2} and set(graph.capacity.values()) == {10, 11, 12}
    assert run(["gen", "-n", "40", "--seed", "5", "--weight-range", "2:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(v.keys() == {"id", "weight"} and v["weight"] == 2 for v in doc["vertices"])
    assert all(e.keys() == {"u", "v"} for e in doc["edges"])


RANGE_FLAGS = ["--weight-range", "--size-range", "--cost-range", "--capacity-range"]
BAD_RANGES = [
    ("5:2", "bad range '5:2'"),
    ("-1:3", "bad range '-1:3'"),
    ("x", "expected LO:HI, got 'x'"),
    ("1:2:3", "expected LO:HI, got '1:2:3'"),
]


@pytest.mark.parametrize("flag", RANGE_FLAGS)
@pytest.mark.parametrize("value, message", BAD_RANGES)
def test_gen_rejects_a_bad_range(flag, value, message, capsys):
    assert run(["gen", "-n", "4", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {flag}: {message}" in captured.err


@pytest.mark.parametrize("flag", RANGE_FLAGS)
@pytest.mark.parametrize("value, message", [*BAD_RANGES, ("-2:-1", "bad range '-2:-1'")])
def test_gen_rejects_a_bad_range_given_as_its_own_argument(flag, value, message, capsys):
    """``FLAG VALUE`` reaches the range check as ``FLAG=VALUE`` does, also
    when the value starts with ``-``, which argparse would read as an option."""
    assert run(["gen", "-n", "4", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: argument {flag}: {message}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["-n", "0"], "error: need at least one vertex"),
    (["-n", "4", "--cycle-density", "1.5"], "error: cycle density must be within [0, 1]"),
])
def test_gen_rejects_bad_parameters(argv, message, capsys):
    assert run(["gen", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


@pytest.mark.parametrize("argv, expected", [
    (["gen", "-n", "400", "--seed", "3"], 0),
    (["solve", "--variant", "solve", "-l", "1", "-u", "1", "-p", "3"], 0),
    (["solve", "--variant", "decide", "-l", "2", "-u", "2", "-p", "2"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, expected, graph_file):
    """A reader gone before the answer is written: no traceback, and the
    exit code the request has anyway."""
    if argv[0] == "solve":
        argv = argv + [graph_file(TRIANGLE)]
    src = str(Path(cactus_partition.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cactus_partition.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (expected, b"")


@pytest.mark.parametrize("variant, extra, feasible, builds", [
    ("minmax", [], True, 1),
    ("maxmin", [], True, 1),
    ("min", [], True, 1),
    ("solve", [], True, 1),
    # 15 clusters of 14 vertices: trivially infeasible, so no tree unless it is shown
    ("solve", ["-p", "15"], False, 0),
    ("min-cost", ["-p", "15"], False, 0),
    ("solve", ["-p", "15", "--dump-tree"], False, 1),
    # the variants' own early answers: a vertex of weight 5 above u (or uw), 15 > n
    ("min", ["-u", "4"], False, 0),
    ("minmax", ["-p", "15"], False, 0),
    ("capacity", ["--lw", "0", "--uw", "4", "--uc", "10"], False, 0),
], ids=["minmax", "maxmin", "min", "solve", "early-answer", "early-answer-min-cost",
        "early-answer-dump-tree", "early-answer-min", "early-answer-minmax",
        "early-answer-capacity"])
def test_one_tree_per_request(variant, extra, feasible, builds, graph_file, capsys, monkeypatch):
    build = tree_rep.build_tree
    calls = []

    def counted(graph, root=None):
        calls.append(root)
        return build(graph, root)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cactus_partition" and getattr(module, "build_tree", None) is build:
            monkeypatch.setattr(module, "build_tree", counted)
    doc = random_graph(4, n=14, cycle_density=0.6, size_range=(1, 3)).to_data()
    if variant == "capacity":
        flags = extra
    else:
        flags = ["-l", "0", "-u", "12"] + ([] if variant == "min" else ["-p", "3"]) + extra
    code, result = _solve(capsys, "--variant", variant, *flags, graph_file(doc))
    assert code == (0 if feasible else 1) and result["feasible"] is feasible
    assert len(calls) == builds


def _readme_graph(tmp_path, capsys):
    """The README's ``gen -n 12 --cycle-density 0.4 --seed 7`` graph, as a file."""
    assert run(["gen", "-n", "12", "--cycle-density", "0.4", "--seed", "7"]) == 0
    target = tmp_path / "g.json"
    target.write_text(capsys.readouterr().out)
    return str(target)


@pytest.mark.parametrize("objective", ["min", "max"])
def test_objective_applies_to_capacity_only(objective, tmp_path, capsys):
    """``--objective min`` on another variant is rejected as ``max`` is:
    the flag has no default that could hide it."""
    code = run(["solve", "--variant", "min", "-l", "2", "-u", "12", "--objective", objective,
                _readme_graph(tmp_path, capsys)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --objective applies to the capacity variant only\n"


def test_capacity_objective_is_min_when_absent(tmp_path, capsys):
    target = _readme_graph(tmp_path, capsys)
    results = {}
    for objective in (None, "min", "max"):
        extra = [] if objective is None else ["--objective", objective]
        code, result = _solve(capsys, "--variant", "capacity", "--lw", "1", "--uw", "12", "--uc", "3",
                              *extra, target)
        del result["stats"]["wall_ms"]
        results[objective] = code, result
    assert results[None] == results["min"] != results["max"]
    assert results[None][0] == 0


@pytest.mark.parametrize("algorithm, upper, cells", [
    ("interval", 20, 24), ("tupleset", 20, 26), ("interval", 17, 22), ("tupleset", 17, 23),
])
def test_decide_keeps_no_fold(algorithm, upper, cells, tmp_path, capsys, monkeypatch):
    """The CLI's decide walks no witness, so its run keeps no fold: no
    keeper and no ``fold_sink``.  ``dp_cells`` counts the same full run's
    states as before (the pinned values).  Its solve still keeps them."""
    target = _readme_graph(tmp_path, capsys)
    keeper, run_tree_dp = backtrack._keeper, backtrack.run_tree_dp
    keepers, sinks = [], []

    def counted_keeper(*args):
        keepers.append(args)
        return keeper(*args)

    def spied_run(tree, alg, **options):
        sinks.append(options.get("fold_sink"))
        return run_tree_dp(tree, alg, **options)

    monkeypatch.setattr(backtrack, "_keeper", counted_keeper)
    monkeypatch.setattr(backtrack, "run_tree_dp", spied_run)
    feasible = upper == 20  # [5, 17] holds no 3 clusters of this graph
    for variant in ("decide", "solve"):
        keepers.clear()
        sinks.clear()
        code, result = _solve(capsys, "--variant", variant, "-l", "5", "-u", str(upper), "-p", "3",
                              "--algorithm", algorithm, target)
        assert code == (0 if feasible else 1) and result["feasible"] is feasible
        assert result["stats"]["dp_cells"] == cells
        assert len(sinks) == 1
        if variant == "decide":
            assert keepers == [] and sinks == [None]
        else:
            assert len(keepers) == 1 and sinks[0] is not None
