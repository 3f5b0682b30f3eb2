"""Command-line front end.

Two subcommands: ``solve`` reads a graph document, dispatches to the
requested solver and prints a machine-readable JSON result; ``gen``
writes a seeded random cactus document.  Exit codes: 0 solved/feasible,
1 infeasible, 2 usage error, 3 input error; a reader that closes stdout
early changes none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from functools import partial
from importlib import import_module

from .backtrack import annotate, reconstruct
from .dp_core import _prepare, state_cells
from .errors import GraphError, InvalidParamsError, TooLargeError
from .graph_model import validate_cactus
from .tree_rep import build_tree


def _load(module: str):
    """A module of the package, imported on first use: a request loads
    ``variants``, ``oracle`` or ``generate`` only if it runs them."""
    return import_module(f".{module}", __package__)


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        pair = (int(lo), int(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc
    if pair[0] < 0 or pair[0] > pair[1]:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return pair


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactus-partition",
        description="Connected partition solvers for vertex-weighted cactus graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a partition problem on a graph file")
    solve.add_argument("graph", help="path to a JSON graph document")
    solve.add_argument("--variant", required=True, choices=VARIANTS)
    solve.add_argument("-l", type=int, default=None, help="lower weight/size bound")
    solve.add_argument("-u", type=int, default=None, help="upper weight/size bound")
    solve.add_argument("-p", type=int, default=None, help="number of clusters")
    solve.add_argument("--lw", type=int, default=None, help="lower cluster weight (capacity variant)")
    solve.add_argument("--uw", type=int, default=None, help="upper cluster weight (capacity variant)")
    solve.add_argument("--uc", type=int, default=None, help="upper cluster capacity")
    solve.add_argument("--objective", choices=("min", "max"), default="min",
                       help="cluster-count objective of the capacity variant")
    solve.add_argument("--algorithm", choices=("tupleset", "interval"), default=None)
    solve.add_argument("--root", default=None, help="override the DFS root vertex")
    solve.add_argument("--oracle", action="store_true",
                       help="cross-check against brute-force enumeration (small graphs)")
    solve.add_argument("--dump-tree", action="store_true",
                       help="include the rooted tree and cycle records in the output")

    gen = sub.add_parser("gen", help="generate a random cactus graph document")
    gen.add_argument("-n", "--vertices", type=int, required=True)
    gen.add_argument("--cycle-density", type=float, default=0.25)
    gen.add_argument("--weight-range", type=_range_pair, default=(0, 9))
    gen.add_argument("--size-range", type=_range_pair, default=None)
    gen.add_argument("--cost-range", type=_range_pair, default=None)
    gen.add_argument("--capacity-range", type=_range_pair, default=None)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(document, code: int) -> int:
    """Print ``document`` as JSON and return ``code``, also when the
    reader has closed stdout early."""
    try:
        print(json.dumps(document, sort_keys=True), flush=True)
    except BrokenPipeError:
        # what is left in the buffer goes to devnull, so the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _decide(source, args, algorithm, stats, witness=False):
    tree, params, stats["reason"] = _prepare(source, args.root, args.l, args.u, args.p)
    if stats["reason"]:
        return None
    run_state = annotate(tree, params, algorithm)
    stats["dp_cells"] = state_cells(run_state.states, algorithm)
    if params.num_clusters not in run_state.feasible_counts():
        stats["reason"] = "no partition found by the DP"
        return None
    return None, reconstruct(run_state) if witness else None


def _decide_oracle(catalog, args):
    return (None,) if _load("oracle").oracle_decide(catalog, args.l, args.u, args.p) else None


class _Variant(namedtuple("_Variant", "required optional engines solve oracle")):
    """One row of ``VARIANTS``: the flags the variant needs (``required``)
    and further ones it accepts (``optional``), the accepted --algorithm
    values (``engines``, the default first), ``solve(source, args, engine,
    stats)`` -> None or (objective, partition), and ``oracle(catalog,
    args)`` -> None if infeasible, else the objective first.  ``source``
    is the graph, which the solver roots at ``args.root``, or that tree
    when the output shows it."""

    __slots__ = ()


_LU, _LUP, _BOTH, _TUPLESET = ("l", "u"), ("l", "u", "p"), ("interval", "tupleset"), ("tupleset",)
VARIANTS = {
    "decide": _Variant(_LUP, (), _BOTH, _decide, _decide_oracle),
    "solve": _Variant(_LUP, (), _BOTH, partial(_decide, witness=True), _decide_oracle),
    "min": _Variant(
        _LU, (), _BOTH,
        lambda t, a, e, s: _load("variants").min_partition(
            t, a.l, a.u, root=a.root, algorithm=e, stats=s
        ),
        lambda c, a: _load("oracle").oracle_min(c, a.l, a.u),
    ),
    "max": _Variant(
        _LU, (), _BOTH,
        lambda t, a, e, s: _load("variants").max_partition(
            t, a.l, a.u, root=a.root, algorithm=e, stats=s
        ),
        lambda c, a: _load("oracle").oracle_max(c, a.l, a.u),
    ),
    "min-cost": _Variant(
        _LU, ("p",), _TUPLESET,
        lambda t, a, e, s: _load("variants").min_cost_partition(
            t, a.l, a.u, a.p, root=a.root, stats=s
        ),
        lambda c, a: _load("oracle").oracle_min_cost(c, a.l, a.u, a.p),
    ),
    "minmax": _Variant(
        _LUP, (), _TUPLESET,
        lambda t, a, e, s: _load("variants").minmax_partition(
            t, a.l, a.u, a.p, root=a.root, stats=s
        ),
        lambda c, a: _load("oracle").oracle_minmax(c, a.l, a.u, a.p),
    ),
    "maxmin": _Variant(
        _LUP, (), _TUPLESET,
        lambda t, a, e, s: _load("variants").maxmin_partition(
            t, a.l, a.u, a.p, root=a.root, stats=s
        ),
        lambda c, a: _load("oracle").oracle_maxmin(c, a.l, a.u, a.p),
    ),
    "capacity": _Variant(
        ("lw", "uw", "uc"), (), _TUPLESET,
        lambda t, a, e, s: _load("variants").capacity_partition(
            t, a.lw, a.uw, a.uc, a.objective, root=a.root, stats=s
        ),
        lambda c, a: _load("oracle").oracle_capacity(c, a.lw, a.uw, a.uc, a.objective),
    ),
}


def _check_flags(args) -> str | None:
    spec = VARIANTS[args.variant]
    for flag in ("l", "u", "p", "lw", "uw", "uc"):
        value = getattr(args, flag)
        name = ("-" if len(flag) == 1 else "--") + flag
        if flag in spec.required and value is None:
            return f"variant {args.variant!r} requires {name}"
        if flag not in spec.required + spec.optional and value is not None:
            return f"flag {name} does not apply to variant {args.variant!r}"
    if args.algorithm is not None and args.algorithm not in spec.engines:
        return f"variant {args.variant!r} only supports the {' or '.join(spec.engines)} algorithm"
    if args.objective != "min" and args.variant != "capacity":
        return "--objective applies to the capacity variant only"
    return None


def _run_solve(args) -> int:
    problem = _check_flags(args)
    if problem:
        return _usage_error(problem)
    try:
        with open(args.graph, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or undecodable bytes; RecursionError: nesting
        # deeper than the decoder handles
        print(f"error: cannot read graph: {exc}", file=sys.stderr)
        return 3
    try:
        graph = validate_cactus(document)
    except GraphError as exc:
        print(f"error: invalid graph: {exc}", file=sys.stderr)
        return 3
    if args.root is not None and args.root not in graph.weight:
        return _usage_error(f"--root {args.root!r} is not a vertex of the graph")

    # the solver builds the tree unless the output shows it, so that an
    # early answer builds none
    source = build_tree(graph, args.root) if args.dump_tree else graph
    cycles = graph.dfs[2]  # the cycle paths validation found, the same from any root
    spec = VARIANTS[args.variant]
    algorithm = args.algorithm or spec.engines[0]
    if args.variant not in ("decide", "solve"):
        _load("variants")  # before the timer: wall_ms times the solve, not the import
    stats: dict = {}
    started = time.perf_counter()
    try:
        answer = spec.solve(source, args, algorithm, stats)
    except InvalidParamsError as exc:
        return _usage_error(str(exc))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    feasible = answer is not None
    objective, partition = answer or (None, None)

    result = {
        "feasible": feasible,
        "objective": objective,
        "clusters": [list(c) for c in partition.clusters] if partition else None,
        "cut_edges": [list(e) for e in partition.cut_edges] if partition else None,
        "stats": {
            "nodes": graph.num_vertices,
            "cycles": len(cycles),
            "max_cycle_length": max(map(len, cycles), default=0),
            "dp_cells": stats.get("dp_cells", 0),
            "wall_ms": round(elapsed_ms, 3),
            "algorithm": algorithm,
        },
    }
    if stats.get("reason"):  # decide/solve name why they found no partition
        result["stats"]["reason"] = stats["reason"]
    if args.oracle:
        try:
            expected = spec.oracle(_load("oracle").enumerate_all(graph), args)
        except TooLargeError as exc:
            return _usage_error(str(exc))
        agrees = feasible and objective == expected[0] if expected is not None else not feasible
        result["oracle_agrees"] = agrees
    if args.dump_tree:
        result["tree"] = source.to_data()
    return _emit(result, 0 if feasible else 1)


def _run_gen(args) -> int:
    try:
        document = _load("generate").gen_random_cactus(
            args.vertices,
            cycle_density=args.cycle_density,
            weight_range=args.weight_range,
            seed=args.seed,
            size_range=args.size_range,
            cost_range=args.cost_range,
            capacity_range=args.capacity_range,
        )
    except InvalidParamsError as exc:
        return _usage_error(str(exc))
    return _emit(document, 0)


def run(argv) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "gen":
        return _run_gen(args)
    return _run_solve(args)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
