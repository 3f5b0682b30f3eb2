"""Command-line front end.

Two subcommands: ``solve`` reads a graph document, dispatches to the
requested solver and prints a machine-readable JSON result; ``gen``
writes a seeded random cactus document.  Exit codes: 0 solved/feasible,
1 infeasible, 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import variants
from .backtrack import annotate, reconstruct
from .dp_core import ProblemParams, state_cells, trivially_infeasible
from .errors import GraphError, InvalidParamsError, TooLargeError
from .generate import gen_random_cactus
from .graph_model import validate_cactus
from .oracle import (
    enumerate_all,
    oracle_capacity,
    oracle_decide,
    oracle_max,
    oracle_maxmin,
    oracle_min,
    oracle_min_cost,
    oracle_minmax,
)
from .tree_rep import build_tree

VARIANTS = ("decide", "solve", "min", "max", "min-cost", "minmax", "maxmin", "capacity")
_BOTH_ALGORITHMS = ("decide", "solve", "min", "max")


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


_REQUIRED_FLAGS = {
    "decide": ("l", "u", "p"),
    "solve": ("l", "u", "p"),
    "min": ("l", "u"),
    "max": ("l", "u"),
    "min-cost": ("l", "u"),
    "minmax": ("l", "u", "p"),
    "maxmin": ("l", "u", "p"),
    "capacity": ("lw", "uw", "uc"),
}
_OPTIONAL_FLAGS = {"min-cost": ("p",)}


def _check_flags(args) -> str | None:
    allowed = set(_REQUIRED_FLAGS[args.variant]) | set(
        _OPTIONAL_FLAGS.get(args.variant, ())
    )
    for flag in ("l", "u", "p", "lw", "uw", "uc"):
        value = getattr(args, flag)
        if flag in _REQUIRED_FLAGS[args.variant] and value is None:
            return f"variant {args.variant!r} requires -{flag}" if len(flag) == 1 else \
                f"variant {args.variant!r} requires --{flag}"
        if flag not in allowed and value is not None:
            return f"flag {'-' if len(flag) == 1 else '--'}{flag} does not apply to variant {args.variant!r}"
    if args.algorithm == "interval" and args.variant not in _BOTH_ALGORITHMS:
        return f"variant {args.variant!r} only supports the tupleset algorithm"
    if args.objective != "min" and args.variant != "capacity":
        return "--objective applies to the capacity variant only"
    return None


def _solve_dispatch(args, tree):
    """Returns (feasible, objective, partition, dp_cells)."""
    algorithm = args.algorithm or ("interval" if args.variant in _BOTH_ALGORITHMS else "tupleset")
    variant = args.variant

    if variant in ("decide", "solve"):
        params = ProblemParams(args.l, args.u, args.p)
        if trivially_infeasible(tree.graph, params):
            return False, None, None, 0
        run_state = annotate(tree, params, algorithm)
        cells = state_cells(run_state.states, algorithm)
        feasible = params.num_clusters in run_state.feasible_counts()
        if variant == "decide" or not feasible:
            return feasible, None, None, cells
        return True, None, reconstruct(run_state), cells

    stats: dict = {}
    if variant in ("min", "max"):
        fn = variants.min_partition if variant == "min" else variants.max_partition
        result = fn(tree, args.l, args.u, algorithm=algorithm, stats=stats)
    elif variant == "min-cost":
        result = variants.min_cost_partition(tree, args.l, args.u, num_clusters=args.p, stats=stats)
    elif variant == "minmax":
        result = variants.minmax_partition(tree, args.l, args.u, args.p, stats=stats)
    elif variant == "maxmin":
        result = variants.maxmin_partition(tree, args.l, args.u, args.p, stats=stats)
    else:
        result = variants.capacity_partition(
            tree, args.lw, args.uw, args.uc, objective=args.objective, stats=stats
        )
    cells = stats.get("dp_cells", 0)
    if result is None:
        return False, None, None, cells
    return True, result[0], result[1], cells


def _oracle_agrees(args, graph, feasible, objective) -> bool:
    catalog = enumerate_all(graph)
    variant = args.variant
    if variant in ("decide", "solve"):
        return oracle_decide(catalog, args.l, args.u, args.p) == feasible
    if variant == "min":
        expected = oracle_min(catalog, args.l, args.u)
    elif variant == "max":
        expected = oracle_max(catalog, args.l, args.u)
    elif variant == "min-cost":
        expected = oracle_min_cost(catalog, args.l, args.u, args.p)
    elif variant == "minmax":
        expected = oracle_minmax(catalog, args.l, args.u, args.p)
    elif variant == "maxmin":
        expected = oracle_maxmin(catalog, args.l, args.u, args.p)
    else:
        expected = oracle_capacity(catalog, args.lw, args.uw, args.uc, args.objective)
    if expected is None:
        return not feasible
    return feasible and objective == expected[0]


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

    tree = build_tree(graph, args.root)
    started = time.perf_counter()
    try:
        feasible, objective, partition, cells = _solve_dispatch(args, tree)
    except InvalidParamsError as exc:
        return _usage_error(str(exc))
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    result = {
        "feasible": feasible,
        "objective": objective,
        "clusters": [list(c) for c in partition.clusters] if partition else None,
        "cut_edges": [list(e) for e in partition.cut_edges] if partition else None,
        "stats": {
            "nodes": graph.num_vertices,
            "cycles": len(tree.cycles),
            "max_cycle_length": max((c.length for c in tree.cycles), default=0),
            "dp_cells": cells,
            "wall_ms": round(elapsed_ms, 3),
            "algorithm": args.algorithm
            or ("interval" if args.variant in _BOTH_ALGORITHMS else "tupleset"),
        },
    }
    if args.oracle:
        try:
            result["oracle_agrees"] = _oracle_agrees(args, graph, feasible, objective)
        except TooLargeError as exc:
            return _usage_error(str(exc))
    if args.dump_tree:
        result["tree"] = tree.to_data()
    print(json.dumps(result, sort_keys=True))
    return 0 if feasible else 1


def _run_gen(args) -> int:
    try:
        document = gen_random_cactus(
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
    print(json.dumps(document, sort_keys=True))
    return 0


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
