"""Command-line front end.

Two subcommands: ``solve`` reads a graph document, dispatches to the
requested solver and prints a machine-readable JSON result; ``gen``
writes a seeded random cactus document.  Exit codes: 0 solved/feasible,
1 infeasible, 2 usage error, 3 input error; a reader that closes stdout
early changes none of them.

Every ``solve`` request takes one path: its ``VARIANTS`` row names the
library function and the oracle function and the flags both take, and
the library fills the request's ``stats`` dict (``dp_cells``, and the
``reason`` of an early answer).  An infeasible answer with no reason yet
gets ``"no partition found by the DP"``.
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

from .backtrack import _walk_count
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


_RANGE_FLAGS = ("--weight-range", "--size-range", "--cost-range", "--capacity-range")


def _joined_ranges(argv) -> list:
    """``argv`` with a range flag and a separate value that starts with
    ``-`` written as ``FLAG=VALUE``: argparse reads such a value (``-1:3``)
    as an option, so ``_range_pair`` would never see it."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        value = out[i + 1]
        if out[i] in _RANGE_FLAGS and value[:1] == "-" and value[1:2].isdigit():
            out[i:i + 2] = [f"{out[i]}={value}"]
    return out


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
    solve.add_argument("--objective", choices=("min", "max"), default=None,
                       help="cluster-count objective of the capacity variant (default: min)")
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


class _Variant(namedtuple("_Variant", "flags optional engines solve oracle")):
    """One row of ``VARIANTS``.  ``flags`` are the options the variant
    takes, in the order its solver and its oracle function take them
    after the graph (``optional`` names those it may go without), and
    ``engines`` the accepted --algorithm values, the default first.
    ``solve`` is the solver, or the name of the ``variants`` function it
    is, called as ``solve(source, *flags, root=, stats=)``, plus
    ``algorithm=`` when there are two engines; it returns None or
    ``(objective, partition)``.  ``oracle`` names the ``oracle`` function
    called as ``oracle(catalog, *flags)``.  ``source`` is the graph, which
    the solver roots at ``--root``, or that tree when the output shows
    it."""

    __slots__ = ()


_LU, _LUP, _BOTH, _TUPLESET = ("l", "u"), ("l", "u", "p"), ("interval", "tupleset"), ("tupleset",)
VARIANTS = {  # decide and solve run the count they are asked for; only solve walks
    "decide": _Variant(_LUP, (), _BOTH, partial(_walk_count, witness=False), "oracle_decide"),
    "solve": _Variant(_LUP, (), _BOTH, _walk_count, "oracle_decide"),
    "min": _Variant(_LU, (), _BOTH, "min_partition", "oracle_min"),
    "max": _Variant(_LU, (), _BOTH, "max_partition", "oracle_max"),
    "min-cost": _Variant(_LUP, ("p",), _TUPLESET, "min_cost_partition", "oracle_min_cost"),
    "minmax": _Variant(_LUP, (), _TUPLESET, "minmax_partition", "oracle_minmax"),
    "maxmin": _Variant(_LUP, (), _TUPLESET, "maxmin_partition", "oracle_maxmin"),
    "capacity": _Variant(
        ("lw", "uw", "uc", "objective"), (), _TUPLESET, "capacity_partition", "oracle_capacity"
    ),
}


def _check_flags(args) -> str | None:
    spec = VARIANTS[args.variant]
    for flag in ("l", "u", "p", "lw", "uw", "uc"):
        value = getattr(args, flag)
        name = ("-" if len(flag) == 1 else "--") + flag
        if flag in spec.flags and flag not in spec.optional and value is None:
            return f"variant {args.variant!r} requires {name}"
        if flag not in spec.flags and value is not None:
            return f"flag {name} does not apply to variant {args.variant!r}"
    if args.algorithm is not None and args.algorithm not in spec.engines:
        return f"variant {args.variant!r} only supports the {' or '.join(spec.engines)} algorithm"
    if args.objective is not None and "objective" not in spec.flags:
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
    args.objective = args.objective or "min"  # capacity's, when --objective is absent
    values = [getattr(args, flag) for flag in spec.flags]
    options = {"algorithm": algorithm} if len(spec.engines) > 1 else {}
    solve = spec.solve
    if isinstance(solve, str):  # before the timer: wall_ms times the solve, not the import
        solve = getattr(_load("variants"), solve)
    stats: dict = {}
    started = time.perf_counter()
    try:
        answer = solve(source, *values, root=args.root, stats=stats, **options)
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
    if not feasible:  # an early answer's reason, or the DP's
        result["stats"]["reason"] = stats.get("reason", "no partition found by the DP")
    if args.oracle:
        oracle = _load("oracle")
        try:
            found = getattr(oracle, spec.oracle)(oracle.enumerate_all(graph), *values)
        except TooLargeError as exc:
            return _usage_error(str(exc))
        expected = (None,) if found is True else found  # oracle_decide answers a bool
        result["oracle_agrees"] = feasible and objective == expected[0] if expected else not feasible
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
        args = parser.parse_args(_joined_ranges(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "gen":
        return _run_gen(args)
    return _run_solve(args)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
