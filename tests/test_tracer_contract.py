"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
and algebra methods by name; this checks that it still installs and sees
the layers it reports, so that ``perfbench/run.py --trace 1`` keeps
working after a refactor."""

from pathlib import Path

import cactus_partition as cp

from util import random_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_records_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import COUNTS, NAME, Tracer

    g = random_graph(2, n=12, cycle_density=0.6, size_range=(1, 3))
    tracer = Tracer()
    tracer.install()
    try:
        span = tracer.start_request("solve_tupleset")
        run = cp.annotate(g, cp.ProblemParams(0, g.total_weight, 2), "tupleset")
        cp.reconstruct(run)
        assert cp.minmax_partition(g, 0, sum(g.size.values()), 3) is not None
        tracer.end_request(span)
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    assert names.count("tree_rep.build_tree") == 2  # one per entry point
    assert "dp_core.mask" in names and "dp_core.sizeweight" in names
    assert "backtrack.reconstruct.tupleset" in names
    mask = next(s[COUNTS] for s in tracer.spans if s[NAME] == "dp_core.mask")
    assert mask["combines"] > 0 and mask["cells"] > 0
    assert not hasattr(cp.annotate, "__wrapped__")  # uninstalled
