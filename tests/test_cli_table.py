"""The CLI's variant table passes each flag where its functions take it.

Every ``VARIANTS`` row lists its flags in the order its library function
and its oracle function take them.  Here each variant's CLI answer is
compared with a library call that names every argument by keyword, on
seeded small cacti whose requests give the flags distinct values, so a
row that swaps two flags answers another request and fails.
"""

import json
import random

import pytest

from cactus_partition import (
    capacity_partition,
    max_partition,
    maxmin_partition,
    min_cost_partition,
    min_partition,
    minmax_partition,
)
from cactus_partition.backtrack import _walk_count
from cactus_partition.cli import VARIANTS, run

from util import random_graph

LIBRARY = {  # variant -> call(graph, flags, engine, stats), every argument by keyword
    "decide": lambda g, f, e, s: _walk_count(
        g, lower=f["l"], upper=f["u"], num_clusters=f["p"], algorithm=e, stats=s, witness=False),
    "solve": lambda g, f, e, s: _walk_count(
        g, lower=f["l"], upper=f["u"], num_clusters=f["p"], algorithm=e, stats=s),
    "min": lambda g, f, e, s: min_partition(g, lower=f["l"], upper=f["u"], algorithm=e, stats=s),
    "max": lambda g, f, e, s: max_partition(g, lower=f["l"], upper=f["u"], algorithm=e, stats=s),
    "min-cost": lambda g, f, e, s: min_cost_partition(
        g, lower=f["l"], upper=f["u"], num_clusters=f["p"], stats=s),
    "minmax": lambda g, f, e, s: minmax_partition(
        g, lower=f["l"], upper=f["u"], num_clusters=f["p"], stats=s),
    "maxmin": lambda g, f, e, s: maxmin_partition(
        g, lower=f["l"], upper=f["u"], num_clusters=f["p"], stats=s),
    "capacity": lambda g, f, e, s: capacity_partition(
        g, weight_lower=f["lw"], weight_upper=f["uw"], capacity_upper=f["uc"],
        objective=f["objective"], stats=s),
}
CASES = [(variant, engine) for variant in sorted(VARIANTS) for engine in VARIANTS[variant].engines]


def _requests(variant, engine):
    """Seeded small cacti, each with a request for ``variant``: its flags
    by name, None for a flag left out."""
    rng = random.Random(f"{variant}/{engine}")
    for graph_seed in range(12):
        g = random_graph(graph_seed, n=rng.randint(5, 8), cycle_density=0.5, weight_range=(1, 6),
                         size_range=(1, 4), cost_range=(0, 5), capacity_range=(0, 3))
        values = (g.size if variant in ("minmax", "maxmin") else g.weight).values()
        total = sum(values)
        p = rng.randint(2, 3)
        upper = rng.randint(max(values), total)
        lower = rng.randint(0, min(upper, total // p))
        if variant == "capacity":
            flags = {"lw": lower, "uw": upper, "uc": rng.randint(1, 4),
                     "objective": rng.choice(("min", "max"))}
        elif variant in ("min", "max"):
            flags = {"l": lower, "u": upper}
        else:  # min-cost may go without a count
            flags = {"l": lower, "u": upper, "p": rng.choice((p, None)) if variant == "min-cost" else p}
        yield g, flags


def _argv(flags):
    argv = []
    for flag, value in flags.items():
        if value is not None:
            argv += ["-" + flag if len(flag) == 1 else "--" + flag, str(value)]
    return argv


@pytest.mark.parametrize("variant, engine", CASES)
def test_cli_answers_as_the_library_called_by_keyword(variant, engine, tmp_path, capsys):
    target = tmp_path / "graph.json"
    feasible = 0
    for g, flags in _requests(variant, engine):
        target.write_text(json.dumps(g.to_data()))
        code = run(["solve", "--variant", variant, "--algorithm", engine, "--oracle",
                    *_argv(flags), str(target)])
        out = capsys.readouterr().out
        assert code in (0, 1), (flags, out)
        result = json.loads(out)
        stats: dict = {}
        want = LIBRARY[variant](g, flags, engine, stats)
        assert result["feasible"] is (want is not None), flags
        if want is not None:
            feasible += 1
            objective, partition = want
            assert result["objective"] == objective, flags
            assert result["clusters"] == (partition and [list(c) for c in partition.clusters])
        assert result["stats"]["dp_cells"] == stats.get("dp_cells", 0), flags
        assert result["oracle_agrees"] is True, flags
    assert feasible >= 3
