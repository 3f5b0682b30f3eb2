"""The package's public names, what importing it loads, and the record
types (named tuples and ``__slots__`` classes) that the API hands out."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cactus_partition as cp
from cactus_partition import (
    CycleRecord,
    ProblemParams,
    build_tree,
    canonicalize_partition,
    validate_cactus,
)
from cactus_partition.errors import InvalidParamsError

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

# 34 names, each with the module that defines it
HOMES = {
    "backtrack": "AnnotatedRun annotate reconstruct",
    "dp_core": "ProblemParams decide_p_partition trivially_infeasible",
    "generate": "gen_random_cactus",
    "graph_model": "CactusGraph Partition canonicalize_partition edge_key validate_cactus",
    "interval_dp": "decide_p_partition_poly interval_subtree_sets merge",
    "oracle": "PartitionCatalog enumerate_all oracle_capacity oracle_decide oracle_max "
    "oracle_maxmin oracle_min oracle_min_cost oracle_minmax",
    "tree_rep": "CactusTree CycleRecord build_tree",
    "variants": "capacity_partition max_partition maxmin_partition min_cost_partition "
    "min_partition minmax_partition",
}

SMALL = {
    "vertices": [{"id": v, "weight": w} for v, w in (("a", 1), ("b", 2), ("c", 3), ("d", 1))],
    "edges": [
        {"u": "a", "v": "b", "cost": 2},
        {"u": "b", "v": "c"},
        {"u": "a", "v": "c", "capacity": 1},
        {"u": "c", "v": "d"},
    ],
}
GRAPH_REPR = (
    "CactusGraph(vertices=('a', 'b', 'c', 'd'), edges=(('a', 'b'), ('b', 'c'), ('a', 'c'), "
    "('c', 'd')), weight={'a': 1, 'b': 2, 'c': 3, 'd': 1}, size={'a': 1, 'b': 2, 'c': 3, "
    "'d': 1}, cost={('a', 'b'): 2, ('b', 'c'): 0, ('a', 'c'): 0, ('c', 'd'): 0}, "
    "capacity={('a', 'b'): 0, ('b', 'c'): 0, ('a', 'c'): 1, ('c', 'd'): 0})"
)
TREE_REPR = (
    f"CactusTree(graph={GRAPH_REPR}, root='a', cycles=(CycleRecord(start='a', end='c', "
    "path=('a', 'b', 'c'), closing_edge=('a', 'c'), start_child_index=1),))"
)
PARTITION_REPR = (
    "Partition(clusters=(('a', 'b', 'c'), ('d',)), cut_edges=(('c', 'd'),), weights=(6, 1), "
    "sizes=(6, 1), capacities=(0, 0), cost=0)"
)


def _loaded_after(code):
    """Modules loaded by ``code`` in a fresh ``python -S`` (no site
    packages, which may import modules of their own)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_the_cli_loads_only_what_a_solve_runs():
    loaded = _loaded_after("import cactus_partition.cli")
    unwanted = {"dataclasses", "inspect", "typing", "cactus_partition.oracle",
                "cactus_partition.generate", "cactus_partition.variants"}
    assert loaded & unwanted == set()
    assert "cactus_partition.backtrack" in loaded


def test_importing_the_package_loads_no_module_of_it():
    loaded = _loaded_after("import cactus_partition")
    assert {m for m in loaded if m.startswith("cactus_partition")} == {"cactus_partition"}


def test_star_import_binds_every_name_to_its_home_object():
    namespace = {}
    exec("from cactus_partition import *", namespace)
    del namespace["__builtins__"]
    expected = {"errors": importlib.import_module("cactus_partition.errors")}
    for module, names in HOMES.items():
        home = importlib.import_module(f"cactus_partition.{module}")
        expected.update((name, getattr(home, name)) for name in names.split())
    assert len(expected) == len(cp.__all__) == 34
    assert namespace.keys() == expected.keys() == set(cp.__all__)
    assert all(namespace[name] is expected[name] for name in expected)
    assert all(vars(cp)[name] is expected[name] for name in expected)  # bound, as imports bind
    assert set(cp.__all__) <= set(dir(cp))


def test_the_readme_lists_every_public_name_by_its_home():
    """The README's "Public API" section: a ``**`module`**`` line, then one
    ``- `name...`` line per name the module defines."""
    section = README.read_text(encoding="utf-8").split("\n## Public API\n")[1].split("\n## ")[0]
    listed, module = {}, None
    for line in section.splitlines():
        if heading := re.fullmatch(r"\*\*`(\w+)`\*\*", line):
            module = heading[1]
        elif entry := re.match(r"- `(\w+)", line):
            listed[entry[1]] = module
    homes = {}
    for name in cp.__all__:
        value = getattr(cp, name)
        homes[name] = getattr(value, "__module__", value.__name__).rpartition(".")[2]
    assert listed == homes


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cp.no_such_name  # noqa: B018
    assert getattr(cp, "no_such_name", None) is None


def test_equal_records_compare_and_hash_equal():
    g = validate_cactus(SMALL)
    pairs = [
        (ProblemParams(1, 4, 2), ProblemParams(lower=1, upper=4, num_clusters=2)),
        (build_tree(g).cycles[0], CycleRecord("a", "c", ("a", "b", "c"), ("a", "c"), 1)),
        (canonicalize_partition(g, {("c", "d")}), canonicalize_partition(g, {("d", "c")})),
    ]
    for a, b in pairs:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert ProblemParams(1, 4, 2) != ProblemParams(1, 4, 3)


def test_graph_equality_ignores_the_kept_search():
    g = validate_cactus(SMALL)
    bare = g._replace(dfs=None)
    assert g.dfs is not None and g == bare and not g != bare
    assert g != g._replace(weight={**g.weight, "d": 2})


def test_reprs_leave_out_the_same_fields_as_before():
    g = validate_cactus(SMALL)
    assert repr(g) == GRAPH_REPR
    assert repr(build_tree(g)) == TREE_REPR
    assert repr(canonicalize_partition(g, {("c", "d")})) == PARTITION_REPR
    assert repr(ProblemParams(1, 4, 2)) == "ProblemParams(lower=1, upper=4, num_clusters=2)"


def test_records_are_immutable():
    g = validate_cactus(SMALL)
    tree = build_tree(g)
    records = [
        (g, "weight"), (tree, "root"), (tree.cycles[0], "start"),
        (canonicalize_partition(g, set()), "cost"), (ProblemParams(1, 4, 2), "upper"),
        (cp.enumerate_all(g), "partitions"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


@pytest.mark.parametrize("args", [(1.0, 4, 2), (1, True, 2), (-1, 4, 2), (5, 4, 2), (1, 4, 0)])
def test_problem_params_reject_bad_input(args):
    with pytest.raises(InvalidParamsError):
        ProblemParams(*args)


def test_annotated_run_is_an_immutable_record():
    g = validate_cactus(SMALL)
    run = cp.annotate(g, ProblemParams(1, 4, 2))
    again = cp.annotate(g, ProblemParams(1, 4, 2))
    assert run == again and repr(run) == repr(again)
    assert repr(run).startswith("AnnotatedRun(tree=CactusTree(")
    with pytest.raises(TypeError):
        hash(run)  # its states are dicts
    with pytest.raises(AttributeError):
        run.params = ProblemParams(1, 4, 3)
    with pytest.raises(AttributeError):
        run.extra = None
    lowered = run._replace(params=ProblemParams(1, 4, 1))
    assert lowered != run and lowered.states is run.states and run == again
