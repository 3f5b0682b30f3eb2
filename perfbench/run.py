#!/usr/bin/env python3
"""Benchmark of the cactus-partition library and CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client, closed loop: each request (one graph document and one
problem) starts when the previous one has finished.  Library requests
run ``validate_cactus`` and the solver entry point in this process; CLI
requests run one ``python -m cactus_partition.cli solve`` process each.
Every answer is checked by ``verify.py``; a wrong answer, an exception or
a CLI exit other than 0/1 counts as a failed request.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same requests (see tracer.py).  A run
keeps to one CPU, and end-to-end timings are reported at a reference
speed of that CPU (see SpeedGauge).  The last
line of standard output is one JSON object; the lines before it list
every metric with its unit and the run's metadata.  Inputs, run records
and spans are written under ``.bench_out/``.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
MIN_REQUESTS = 100  # so at least 10 latencies lie beyond the 90th percentile
HARD_LIMIT_S = 120  # stop starting requests after this, whatever else holds
CLI_TIMEOUT_S = 60

sys.path.insert(1, str(SRC))

from tracer import Tracer, layer_metrics  # noqa: E402
from verify import DocGraph, check_answer, cross_check  # noqa: E402
import workloads  # noqa: E402


class RequestFailed(Exception):
    """A CLI process exited with a code other than 0 or 1, or printed no result."""


# ---------------------------------------------------------------------------
# executors: run one request, return its answer


class Library:
    """Library requests through the package's public entry points."""

    def __init__(self, wl):
        import cactus_partition

        self.cp = cactus_partition
        self.docs = wl.graphs

    def __call__(self, req, tracer=None, span=None):
        cp = self.cp
        p = req.p
        graph = cp.validate_cactus(self.docs[req.graph])
        kind = req.kind
        if kind in ("decide_mask", "decide_interval"):
            params = cp.ProblemParams(p["l"], p["u"], p["p"])
            decide = cp.decide_p_partition if kind == "decide_mask" else cp.decide_p_partition_poly
            return {"feasible": decide(graph, params), "objective": None, "clusters": None}
        if kind in ("solve_tupleset", "solve_interval"):
            params = cp.ProblemParams(p["l"], p["u"], p["p"])
            run = cp.annotate(graph, params, kind[len("solve_"):])
            if not _root_feasible(run, params):
                return {"feasible": False, "objective": None, "clusters": None}
            partition = cp.reconstruct(run)
            return {"feasible": True, "objective": None, "clusters": _lists(partition)}
        if kind in ("min", "max"):
            fn = cp.min_partition if kind == "min" else cp.max_partition
            result = fn(graph, p["l"], p["u"], algorithm=p["algorithm"])
        elif kind == "min_cost":
            result = cp.min_cost_partition(graph, p["l"], p["u"], num_clusters=p.get("p"))
        elif kind in ("minmax", "maxmin"):
            fn = cp.minmax_partition if kind == "minmax" else cp.maxmin_partition
            result = fn(graph, p["l"], p["u"], p["p"])
        else:
            result = cp.capacity_partition(graph, p["lw"], p["uw"], p["uc"], objective=p["objective"])
        if result is None:
            return {"feasible": False, "objective": None, "clusters": None}
        return {"feasible": True, "objective": result[0], "clusters": _lists(result[1])}


def _root_feasible(run, params) -> bool:
    """Whether an annotated run's root state holds a feasible answer."""
    if run.algorithm == "interval":
        entries = run.root_state.get(params.num_clusters, ())
        return any(e.intersects(params.lower, params.upper) for e in entries)
    return any(
        k == params.num_clusters and params.lower <= x <= params.upper
        for (x, k) in run.root_state
    )


def _lists(partition):
    return [list(c) for c in partition.clusters]


def cli_args(req) -> list[str]:
    """``solve`` arguments of the CLI for one request."""
    p = req.p
    variant = {
        "decide_mask": "decide", "decide_interval": "decide",
        "solve_tupleset": "solve", "solve_interval": "solve",
        "min_cost": "min-cost",
    }.get(req.kind, req.kind)
    args = ["solve", "--variant", variant]
    for flag in ("l", "u", "p", "lw", "uw", "uc"):
        if flag in p:
            args += [f"-{flag}" if len(flag) == 1 else f"--{flag}", str(p[flag])]
    if req.kind in ("decide_mask", "solve_tupleset"):
        args += ["--algorithm", "tupleset"]
    elif req.kind in ("decide_interval", "solve_interval"):
        args += ["--algorithm", "interval"]
    elif "algorithm" in p:
        args += ["--algorithm", p["algorithm"]]
    if req.kind == "capacity":
        args += ["--objective", p["objective"]]
    return args


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Cli:
    """CLI requests: one process each; traced runs go through cli_shim.py."""

    def __init__(self, files: dict):
        self.files = files
        self.env = cli_env()

    def __call__(self, req, tracer=None, span=None):
        args = cli_args(req) + [str(self.files[req.graph])]
        spans_file = OUT / "cli-spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "cactus_partition.cli", *args]
        else:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(spans_file), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=CLI_TIMEOUT_S)
        if tracer is not None and spans_file.is_file():
            _adopt(tracer, span, json.loads(spans_file.read_text()))
        try:
            result = json.loads(proc.stdout) if proc.returncode in (0, 1) else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            raise RequestFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if result["feasible"] != (proc.returncode == 0):
            raise RequestFailed(f"exit {proc.returncode} with feasible={result['feasible']}")
        return {
            "feasible": result["feasible"],
            "objective": result["objective"],
            "clusters": result["clusters"],
            "cut_edges": result["cut_edges"],
            "wall_ms": result["stats"]["wall_ms"],
        }


def _adopt(tracer, parent, child_spans):
    """Graft the spans a traced CLI process recorded under its request span."""
    base = len(tracer.spans)
    for _req, sid, up, name, start, end, counts in child_spans:
        tracer.spans.append([parent[0], base + sid, parent[1] if up is None else base + up,
                             name, start, end, counts])


# ---------------------------------------------------------------------------
# machine speed


def _kernel():
    """Fixed pure-Python work shaped like the DP's combine step: every
    pair of (weight, count) states of two children whose weights add up
    to at most a cap, kept once in a dict.  Touches no package code."""
    left = {(x, k) for x in range(0, 60, 2) for k in range(6)}
    right = {(x, k) for x in range(0, 45, 3) for k in range(5)}
    out = {}
    for x, k in left:
        for y, j in right:
            total = x + y
            if total <= 80:
                key = (total, k + j)
                if key not in out:
                    out[key] = (x, y)
    return len(out)


def _bare_start():
    """Start a bare interpreter and wait for it to end."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# probe -> (work, seconds of timed loop between samples, its time at the
# reference speed: the median on a 2-vCPU VM with Python 3.11.7)
PROBES = {
    "kernel": (_kernel, 0.2, 0.0036),
    "start": (_bare_start, 1.0, 0.080),
}


class SpeedGauge:
    """The machine's speed while a phase runs, from fixed work timed
    between requests.

    The shared host's speed drifts by 20 % and more within minutes, the
    same for fixed work as for the package (NOTES.md, Noise).  Timings are
    reported at the reference speed: multiplied by ``scale``, the probe's
    reference time over its mean time in the phase.  Probe time is left
    out of every timing.
    """

    def __init__(self, probe="kernel"):
        self.probe = probe
        self.work, self.every, self.reference = PROBES[probe]
        self.samples = []
        self.last = -math.inf  # the first due() samples at once

    def sample(self) -> float:
        """Time the probe once; returns the seconds it took."""
        started = time.perf_counter()
        self.work()
        self.last = time.perf_counter()
        self.samples.append(self.last - started)
        return self.samples[-1]

    def due(self) -> float:
        """Sample if ``every`` seconds passed since the last sample;
        returns the seconds spent sampling."""
        if time.perf_counter() - self.last < self.every:
            return 0.0
        return self.sample()

    @property
    def scale(self) -> float:
        return self.reference / statistics.fmean(self.samples)

    def meta(self) -> dict:
        return {"probe": self.probe, "probe_ms_mean": statistics.fmean(self.samples) * 1e3,
                "samples": len(self.samples), "scale": self.scale}


# ---------------------------------------------------------------------------
# running


IMPORT_TIMER = (
    "import time; started = time.perf_counter(); import cactus_partition; "
    "print(time.perf_counter() - started)"
)


def setup(name: str, seed: int):
    """Import the package, then generate and write the inputs several times.

    Returns the workload, its input files, ``setup_s`` and the speed gauge
    of set-up.  ``setup_s`` is the median time ``import cactus_partition``
    takes in a fresh interpreter plus the median generate-and-write time,
    over SETUP_REPEATS interleaved rounds, as measured.  The gauge samples
    the speed before each import and each round.
    """
    import cactus_partition  # noqa: F401  (also writes the bytecode cache)

    folder = OUT / "inputs" / f"{name}-s{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    gauge = SpeedGauge()
    imports, times = [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        timer = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=cli_env(), cwd=ROOT,
                               check=True, capture_output=True, text=True)
        imports.append(float(timer.stdout))
        gauge.sample()
        gc.collect()
        started = time.perf_counter()
        wl = workloads.build(name, seed)
        files = {}
        for graph, doc in wl.graphs.items():
            files[graph] = folder / f"{graph}.json"
            files[graph].write_text(json.dumps(doc))
        times.append(time.perf_counter() - started)
    return wl, files, statistics.median(imports) + statistics.median(times), gauge


def timed_loop(requests, execute, seconds=None, min_requests=0, tracer=None, gauge=None):
    """Closed loop over ``requests``; returns ``(results, wall_s)``.

    With ``seconds`` the loop stops starting requests once that much time
    has passed and ``min_requests`` have run; otherwise it runs them all.
    A result is ``(request, latency_s, answer, error)``.  A ``gauge``
    samples the speed between requests; ``wall_s`` leaves that time out.
    """
    results = []
    started = time.perf_counter()
    for req in requests:
        if gauge is not None:
            started += gauge.due()
        elapsed = time.perf_counter() - started
        if seconds is not None and (
            (elapsed >= seconds and len(results) >= min_requests) or elapsed >= HARD_LIMIT_S
        ):
            break
        span = tracer.start_request(req.kind) if tracer else None
        t0 = time.perf_counter()
        try:
            answer, error = execute(req, tracer, span), None
        except Exception as exc:  # any failure of the code under test is a failed request
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_request(span)
        results.append((req, latency, answer, error))
    return results, time.perf_counter() - started


def load_pins(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((BENCH / "pinned.json").read_text()).get(name, {})


def pin_of(answer) -> list:
    return [answer["feasible"], answer["objective"]]


def check(results, wl, pins) -> tuple[set, list]:
    """Indices of failed results and a description of each problem."""
    docs = {}
    failed, problems = set(), []
    answers, requests = {}, {}
    for i, (req, _lat, answer, error) in enumerate(results):
        if error is None:
            if req.graph not in docs:
                docs[req.graph] = DocGraph(wl.graphs[req.graph])
            issues = check_answer(req.kind, req.p, docs[req.graph], answer)
            if pins is not None and pins.get(req.key) != pin_of(answer):
                issues.append(f"pinned {pins.get(req.key)}, got {pin_of(answer)}")
            error = "; ".join(issues) or None
            answers.setdefault(req.key, []).append(answer)
            requests[req.key] = req
        if error is not None:
            failed.add(i)
            problems.append(f"{req.key}: {error}")
    bad = cross_check(answers, requests, wl.graphs)
    for i, (req, *_rest) in enumerate(results):
        if req.key in bad and i not in failed:
            failed.add(i)
            problems.append(f"{req.key}: {bad[req.key]}")
    return failed, problems


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(results, wall, setup_s, cli):
    """Measured end-to-end metrics and the sample counts behind them."""
    latencies = sorted(r[1] * 1e3 for r in results)
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": len(results) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(cli),
    }
    samples = {"latencies": len(latencies), "beyond_p90": sum(1 for x in latencies if x > p90)}
    return metrics, samples


def at_reference_speed(measured, setup_gauge, loop_gauge):
    """The end-to-end metrics with timings taken to the reference speed."""
    out = dict(measured)
    out["setup_s"] *= setup_gauge.scale
    out["throughput_rps"] /= loop_gauge.scale
    for name in ("latency_p50_ms", "latency_p90_ms"):
        out[name] *= loop_gauge.scale
    return out


def import_cost_ms(repeats=7) -> float:
    """``python -c "import cactus_partition.cli"`` minus a bare interpreter."""
    env = cli_env()
    bare, full = [], []
    for _ in range(repeats):
        for code, into in (("pass", bare), ("import cactus_partition.cli", full)):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            into.append(time.perf_counter() - started)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


CLI_METRICS = ("cli.process.ms", "cli.solver.ms", "cli.overhead.ms", "cli.import.ms")


def traced_run(wl, execute, seconds, pins):
    """Per-layer metrics from requests run twice, untraced and then traced.

    Runs pairs until ``seconds`` have passed and a whole cycle has run.
    Running each pair back to back keeps slow drifts of the machine's
    speed out of ``trace.overhead``.  Returns the metrics, the names of
    those that do not apply to the workload, the results, the failed
    results and the problems found.
    """
    tracer = Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    for req in wl.schedule():
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and len(traced) >= len(wl.cycles[0])) or elapsed >= HARD_LIMIT_S:
            break
        untraced += timed_loop([req], execute)[0]
        if not wl.cli:
            tracer.install()
        try:
            traced += timed_loop([req], execute, tracer=tracer)[0]
        finally:
            tracer.uninstall()
    # every repetition of a request, traced or not, must give the same answer
    results = untraced + traced
    failed, problems = check(results, wl, pins)

    metrics, na = layer_metrics(tracer.spans, len(traced))
    # untraced over traced throughput on the same requests
    metrics["trace.overhead"] = sum(r[1] for r in traced) / sum(r[1] for r in untraced)
    ok = [r for r in untraced if r[2] is not None]
    if wl.cli and ok:
        metrics["cli.process.ms"] = statistics.fmean(r[1] for r in ok) * 1e3
        metrics["cli.solver.ms"] = statistics.fmean(r[2]["wall_ms"] for r in ok)
        metrics["cli.overhead.ms"] = metrics["cli.process.ms"] - metrics["cli.solver.ms"]
        metrics["cli.import.ms"] = import_cost_ms()
    else:  # the library workloads start no CLI process
        metrics.update(dict.fromkeys(CLI_METRICS, 0.0))
        na.update(CLI_METRICS)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl.name}.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return metrics, na, results, failed, problems


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, the one the speed
    gauge measures: on a shared host each CPU has a speed of its own."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(name, seed, seconds, trace, declared):
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    wl, files, setup_s, setup_gauge = setup(name, seed)
    execute = Cli(files) if wl.cli else Library(wl)
    pins = load_pins(name, seed)
    if wl.cli:  # fill the bytecode cache before anything is timed
        execute(wl.cycles[0][0])
    meta = {}
    if trace:
        metrics, na, results, failed, problems = traced_run(wl, execute, seconds, pins)
        meta["traced_requests"] = len(results) // 2
        meta["not_applicable"] = sorted(na)
    else:
        loop_gauge = SpeedGauge("start" if wl.cli else "kernel")
        results, wall = timed_loop(wl.schedule(), execute, seconds, MIN_REQUESTS, gauge=loop_gauge)
        measured, meta["samples"] = end_to_end(results, wall, setup_s, wl.cli)
        metrics = at_reference_speed(measured, setup_gauge, loop_gauge)
        meta["loop_s"] = wall
        meta["measured"] = measured
        meta["speed"] = {"setup": setup_gauge.meta(), "loop": loop_gauge.meta()}
        failed, problems = check(results, wl, pins)
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    meta.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        python=platform.python_version(), nproc=nproc, cpu=cpu,
        commit=commit(), requests=len(results), failed=len(failed),
        fail_ratio=len(failed) / len(results), pinned=pins is not None,
        problems=problems[:20],
    )
    record = {"meta": meta, "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-s{seed}-t{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cactus_partition" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}

    if args.workload == "all":
        return run_all(args, seconds)
    record = run_one(args.workload, args.seed, seconds, args.trace, declared)
    meta = record["meta"]
    na = set(meta.get("not_applicable", ()))
    for name, metric in record["metrics"].items():
        value = "n/a" if name in na else f"{metric['value']:.4f}"
        print(f"{name:40s} {value:>14s} {metric['unit']}")
    print(f"{'fail_ratio':40s} {meta['fail_ratio']:14.4f} (failed / attempted)")
    for problem in meta["problems"]:
        print(f"# problem: {problem}")
    print("# meta " + json.dumps({k: v for k, v in meta.items() if k != "problems"}))
    if na:
        print("# n/a: not applicable to this workload (see NOTES.md); the result line carries 0")
    print(json.dumps({
        "correct": meta["failed"] == 0,
        "attempted": meta["requests"],
        "failed": meta["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if meta["failed"] == 0 else 1


def run_all(args, seconds) -> int:
    """Every workload in its own process; one table, one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        code = max(code, proc.returncode)
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
