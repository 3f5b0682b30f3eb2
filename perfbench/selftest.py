"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs tiny versions of every workload (graphs with at most 16 edges)
   through the same executors and checks every answer against the
   brute-force oracle (``enumerate_all`` and the ``oracle_*`` filters).
2. Runs the same requests traced and requires identical answers.
3. Feeds corrupted answers to the benchmark's verifier and requires that
   each one is caught.

Exits non-zero on any mismatch.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads
from tracer import Tracer


def oracle_answer(req, doc):
    """(feasible, objective) from brute-force enumeration."""
    import cactus_partition as cp

    catalog = cp.enumerate_all(cp.validate_cactus(doc))
    p = req.p
    kind = req.kind
    if kind.startswith(("decide", "solve")):
        return cp.oracle_decide(catalog, p["l"], p["u"], p["p"]), None
    if kind == "min":
        best = cp.oracle_min(catalog, p["l"], p["u"])
    elif kind == "max":
        best = cp.oracle_max(catalog, p["l"], p["u"])
    elif kind == "min_cost":
        best = cp.oracle_min_cost(catalog, p["l"], p["u"], p.get("p"))
    elif kind == "minmax":
        best = cp.oracle_minmax(catalog, p["l"], p["u"], p["p"])
    elif kind == "maxmin":
        best = cp.oracle_maxmin(catalog, p["l"], p["u"], p["p"])
    else:
        best = cp.oracle_capacity(catalog, p["lw"], p["uw"], p["uc"], p["objective"])
    return (False, None) if best is None else (True, best[0])


def corruptions(req, answer):
    """Wrong variants of a feasible answer that the verifier must reject."""
    clusters = answer["clusters"]
    if answer["objective"] is not None:
        yield "objective off by one", dict(answer, objective=answer["objective"] + 1)
    if clusters:
        dropped = copy.deepcopy(clusters)
        dropped[0].pop()
        yield "vertex dropped", dict(answer, clusters=[c for c in dropped if c])
        # merging changes the count, which every kind but free min_cost fixes
        if len(clusters) > 1 and (req.kind != "min_cost" or "p" in req.p):
            merged = [clusters[0] + clusters[1]] + clusters[2:]
            yield "two clusters merged", dict(answer, clusters=merged)


def main() -> int:
    problems = []
    checked = caught = 0
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, run.DEFAULT_SEED, tiny=True)
        folder = run.OUT / "selftest" / name
        folder.mkdir(parents=True, exist_ok=True)
        files = {}
        for graph, doc in wl.graphs.items():
            if len(doc["edges"]) > 16:
                problems.append(f"{name}: {graph} has {len(doc['edges'])} edges")
            files[graph] = folder / f"{graph}.json"
            files[graph].write_text(json.dumps(doc))
        execute = run.Cli(files) if wl.cli else run.Library(wl)
        requests = wl.cycles[0]
        plain, _ = run.timed_loop(requests, execute)
        tracer = Tracer()
        if not wl.cli:
            tracer.install()
        try:
            traced, _ = run.timed_loop(requests, execute, tracer=tracer)
        finally:
            tracer.uninstall()

        failed, found = run.check(plain + traced, wl, None)
        problems += [f"{name}: verifier: {f}" for f in found]
        for (req, _l, answer, _e), (_r, _l2, t_answer, _e2) in zip(plain, traced):
            if answer is None:
                continue
            checked += 1
            expected = oracle_answer(req, wl.graphs[req.graph])
            if (answer["feasible"], answer["objective"]) != expected:
                problems.append(f"{name}: {req.key}: oracle {expected}, got {run.pin_of(answer)}")
            if {**answer, "wall_ms": None} != {**t_answer, "wall_ms": None}:
                problems.append(f"{name}: {req.key}: traced answer differs")
            if not answer["feasible"]:
                continue
            for what, wrong in corruptions(req, answer):
                bad, _ = run.check([(req, 0.0, wrong, None)], wl, None)
                caught += bool(bad)
                if not bad:
                    problems.append(f"{name}: {req.key}: verifier missed '{what}'")
        kinds = {r.kind for r in requests}
        print(f"{name}: {len(requests)} requests, kinds {sorted(kinds)}")
    print(f"{checked} answers compared with the oracle, {caught} corruptions caught")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
