import json

import pytest

from cactus_partition import validate_cactus
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
