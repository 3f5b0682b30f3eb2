"""Acceptance checks for the full solver stack.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
all).  The corpus is seeded, so every run exercises the same instances.
"""

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import pytest

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    capacity_partition,
    decide_p_partition,
    decide_p_partition_poly,
    enumerate_all,
    gen_random_cactus,
    max_partition,
    maxmin_partition,
    merge,
    min_cost_partition,
    min_partition,
    minmax_partition,
    oracle_capacity,
    oracle_max,
    oracle_maxmin,
    oracle_min,
    oracle_min_cost,
    oracle_minmax,
    reconstruct,
    validate_cactus,
)
from cactus_partition.dp_core import (
    CycleStep,
    MaskAlgebra,
    run_tree_dp,
)
from cactus_partition.errors import IntervalCountError
from cactus_partition.interval_dp import interval_subtree_sets
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import cycle_node_states, fold_configuration, intervals_of, subtree_sets


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _random_graph(rng, max_n=10, **kwargs):
    n = rng.randint(1, max_n)
    doc = gen_random_cactus(
        n,
        cycle_density=rng.choice([0.0, 0.3, 0.6, 0.9]),
        weight_range=(0, 5),
        seed=rng.randrange(2**31),
        **kwargs,
    )
    return validate_cactus(doc)


@dataclass
class DecisionCorpus:
    graphs: list = field(default_factory=list)
    checks: int = 0
    mismatches: list = field(default_factory=list)
    feasible: list = field(default_factory=list)  # (graph, params) pairs
    elapsed: float = 0.0


NUM_GRAPHS = 500
TRIPLES_PER_GRAPH = 50


@pytest.fixture(scope="module")
def decision_corpus():
    rng = random.Random(0xC0FFEE)
    corpus = DecisionCorpus()
    started = time.perf_counter()
    for _ in range(NUM_GRAPHS):
        graph = _random_graph(rng)
        corpus.graphs.append(graph)
        catalog = enumerate_all(graph)
        profile = [(min(p.weights), max(p.weights), p.num_clusters) for p in catalog.partitions]
        total = graph.total_weight
        n = graph.num_vertices
        for _ in range(TRIPLES_PER_GRAPH):
            lower = rng.randint(0, total)
            upper = rng.randint(lower, total)
            count = rng.randint(1, n)
            params = ProblemParams(lower, upper, count)
            expected = any(
                k == count and lo >= lower and hi <= upper for (lo, hi, k) in profile
            )
            got_tuple = decide_p_partition(graph, params)
            got_interval = decide_p_partition_poly(graph, params)
            corpus.checks += 1
            if got_tuple != expected or got_interval != expected:
                corpus.mismatches.append((graph.to_data(), params, expected, got_tuple, got_interval))
            elif expected:
                corpus.feasible.append((graph, params))
    corpus.elapsed = time.perf_counter() - started
    return corpus


def test_criterion_1_decision_oracle_equivalence(decision_corpus):
    c = decision_corpus
    detail = (
        f"{len(c.graphs)} graphs, {c.checks} triples, "
        f"{len(c.mismatches)} mismatches, {c.elapsed:.1f}s"
    )
    _report(1, "oracle equivalence of both decision algorithms", not c.mismatches, detail)
    assert c.elapsed < 300


def test_criterion_2_reconstruction_validity(decision_corpus):
    bad = []
    done = 0
    for graph, params in decision_corpus.feasible:
        for algorithm in ("tupleset", "interval"):
            part = reconstruct(annotate(graph, params, algorithm))
            done += 1
            valid = (
                part.num_clusters == params.num_clusters
                and all(params.lower <= w <= params.upper for w in part.weights)
                and sorted(v for cl in part.clusters for v in cl) == sorted(graph.vertices)
            )
            if not valid:
                bad.append((graph.to_data(), params, algorithm))
    _report(
        2,
        "every feasible triple reconstructs to a valid partition",
        not bad,
        f"{done} reconstructions over {len(decision_corpus.feasible)} feasible triples, {len(bad)} invalid",
    )


def _label_runs(true_runs, stored_runs, params):
    """Pair stored runs with true runs in order and name the clause each pair meets.

    A pair is "exact" when both endpoints agree and the stored upper end is
    at most ``u``; "truncated" when the lower ends agree, the stored upper end
    passes ``u`` and the true maximum lies in ``(l, u]``; otherwise "broken".
    Unequal numbers of runs make the whole count "broken".
    """
    if len(true_runs) != len(stored_runs):
        return ["broken"]
    labels = []
    for (t_lo, t_hi), (s_lo, s_hi) in zip(true_runs, stored_runs):
        if s_lo != t_lo:
            labels.append("broken")
        elif s_hi <= params.upper:
            labels.append("exact" if s_hi == t_hi else "broken")
        else:
            labels.append("truncated" if params.lower < t_hi <= params.upper else "broken")
    return labels


def test_criterion_3_interval_sets_equal_compressed_tuple_sets():
    """The interval engine keeps the endpoint contract of the gap compression.

    Exact equality with ``intervals_of(weights, gap)`` is unattainable: once
    a merge's summed upper endpoint passes ``u``, the largest achievable
    weight <= ``u`` is not a function of the endpoints.  With l = 3, u = 10
    the child sets {4, 9} and {4, 5, 9} both compress to [4, 9], yet adding
    {5} reaches {9} in one case and {9, 10} in the other.  So per context the
    cluster counts agree, and per count the stored and true runs pair up in
    order with equal lower ends; a stored upper end <= u equals the true one,
    and one above u pairs with a run whose true maximum lies in (l, u].
    """
    rng = random.Random(0x5EED3)
    failures = []
    tally: Counter = Counter()
    contexts = 0
    instances = 0
    while instances < 100:
        graph = _random_graph(rng)
        total = graph.total_weight
        upper = rng.randint(graph.max_weight, max(total, graph.max_weight))
        lower = rng.randint(0, upper)
        count = rng.randint(1, graph.num_vertices)
        params = ProblemParams(lower, upper, count)
        instances += 1
        tree = build_tree(graph)
        tuple_sets = subtree_sets(tree, params)
        interval_sets = interval_subtree_sets(tree, params)
        for ctx, tuples in tuple_sets.items():
            contexts += 1
            per_count: dict = {}
            for (x, k) in tuples:
                per_count.setdefault(k, set()).add(x)
            expected = {k: tuple(intervals_of(xs, params.gap)) for k, xs in per_count.items()}
            got = {k: tuple(v) for k, v in interval_sets[ctx].items()}
            labels = (
                [label for k in expected for label in _label_runs(expected[k], got[k], params)]
                if expected.keys() == got.keys()
                else ["broken"]
            )
            tally.update(labels)
            if "broken" in labels:
                failures.append((graph.to_data(), params, ctx, expected, got))
    detail = (
        f"100 instances, {contexts} contexts, {tally['exact']} exact runs, "
        f"{tally['truncated']} truncated runs (stored upper end > u, true maximum in (l, u]), "
        f"{len(failures)} contexts breaking the contract"
    )
    if failures:
        doc, params, ctx, expected, got = failures[0]
        detail += (
            f"; first: params={params} ctx={ctx} expected={expected} got={got} graph={doc}"
        )
    if not tally["truncated"]:
        detail += "; no truncated run, so the clause for upper ends above u went unchecked"
    _report(
        3,
        "interval runs match the compressed tuple sets under the endpoint contract",
        not failures and tally["truncated"] > 0,
        detail,
    )


def test_criterion_4_interval_count_bound_never_violated(decision_corpus):
    violations = 0
    runs = 0
    rng = random.Random(0xBEEF)
    for graph in decision_corpus.graphs[:200]:
        total = graph.total_weight
        for _ in range(5):
            upper = rng.randint(graph.max_weight, max(total, graph.max_weight))
            lower = rng.randint(0, upper)
            count = rng.randint(1, graph.num_vertices)
            runs += 1
            try:
                interval_subtree_sets(build_tree(graph), ProblemParams(lower, upper, count))
            except IntervalCountError:
                violations += 1
    _report(
        4,
        "per-count interval bound holds at runtime",
        violations == 0,
        f"{runs} interval runs, {violations} bound violations",
    )


def test_criterion_5_variant_optimality():
    rng = random.Random(0xFACADE)
    results = {name: [0, 0] for name in ("min", "max", "min-cost", "minmax", "maxmin", "capacity")}
    examples = {}

    def check(name, got, expected, witness_ok):
        want = None if expected is None else expected[0]
        val = None if got is None else got[0]
        ok = val == want and (got is None or witness_ok(got[1]))
        results[name][0 if ok else 1] += 1
        if not ok and name not in examples:
            examples[name] = (val, want)

    for _ in range(200):
        n = rng.randint(1, 9)
        doc = gen_random_cactus(
            n,
            cycle_density=rng.choice([0.0, 0.4, 0.8]),
            weight_range=(0, 5),
            seed=rng.randrange(2**31),
            size_range=(0, 5),
            cost_range=(0, 5),
            capacity_range=(0, 5),
        )
        graph = validate_cactus(doc)
        catalog = enumerate_all(graph)
        total = graph.total_weight
        sizes_total = sum(graph.size.values())
        lower = rng.randint(0, total)
        upper = rng.randint(lower, total)
        count = rng.randint(1, n)
        cap = rng.randint(0, 12)
        s_lower = rng.randint(0, sizes_total)
        s_upper = rng.randint(s_lower, sizes_total)

        check("min", min_partition(graph, lower, upper), oracle_min(catalog, lower, upper),
              lambda p: all(lower <= w <= upper for w in p.weights))
        check("max", max_partition(graph, lower, upper), oracle_max(catalog, lower, upper),
              lambda p: all(lower <= w <= upper for w in p.weights))
        check("min-cost", min_cost_partition(graph, lower, upper, num_clusters=count),
              oracle_min_cost(catalog, lower, upper, count),
              lambda p: p.num_clusters == count and all(lower <= w <= upper for w in p.weights))
        check("minmax", minmax_partition(graph, s_lower, s_upper, count),
              oracle_minmax(catalog, s_lower, s_upper, count),
              lambda p: p.num_clusters == count and all(s_lower <= s <= s_upper for s in p.sizes))
        check("maxmin", maxmin_partition(graph, s_lower, s_upper, count),
              oracle_maxmin(catalog, s_lower, s_upper, count),
              lambda p: p.num_clusters == count and all(s_lower <= s <= s_upper for s in p.sizes))
        check("capacity", capacity_partition(graph, lower, upper, cap),
              oracle_capacity(catalog, lower, upper, cap),
              lambda p: all(lower <= w <= upper for w in p.weights)
              and all(c <= cap for c in p.capacities))

    bad = {name: fails for name, (ok, fails) in results.items() if fails}
    detail = "; ".join(f"{name}: {ok} ok, {fails} wrong" for name, (ok, fails) in results.items())
    if bad:
        detail += f"; first wrong: {examples}"
    _report(5, "variant optima match the oracle", not bad, detail)


def test_criterion_6_last_configuration_is_redundant():
    rng = random.Random(0xCAB)
    checked = 0
    changed = []
    while checked < 100:
        n = rng.randint(3, 10)
        doc = gen_random_cactus(
            n, cycle_density=0.9, weight_range=(0, 5), seed=rng.randrange(2**31)
        )
        graph = validate_cactus(doc)
        tree = build_tree(graph)
        if not tree.cycles:
            continue
        total = graph.total_weight
        upper = rng.randint(graph.max_weight, max(total, graph.max_weight))
        lower = rng.randint(0, upper)
        params = ProblemParams(lower, upper, rng.randint(1, n))
        checked += 1
        # Fold configuration m of each cycle next to the union of the others.
        # If it adds no tuple at any cycle, including it changes no state,
        # by induction over the postorder.
        alg = MaskAlgebra(graph, params)
        states = run_tree_dp(tree, alg)
        for cyc in tree.cycles:
            m = cyc.length
            step = CycleStep(cyc, m, absent_cycle_edge(cyc, m))
            start_state = states[(cyc.start, cyc.start_child_index - 1)]
            joined, chains = fold_configuration(
                alg, step, cycle_node_states(tree, states, cyc), start_state
            )
            edge, _positions, top = chains[-1]
            extra = alg.strip(alg.combine(joined[-1], top[-1], edge, step), step)
            union = states[(cyc.start, cyc.start_child_index)]
            if any(mask & ~union.get(k, 0) for k, mask in extra.items()):
                changed.append((doc, params, cyc.start))
                break
    _report(
        6,
        "adding the final cycle configuration changes nothing",
        not changed,
        f"{checked} cycle-bearing instances, {len(changed)} where the extra configuration mattered",
    )


def test_criterion_7_root_invariance():
    rng = random.Random(0xD1CE)
    disagreements = []
    for _ in range(100):
        graph = _random_graph(rng, cost_range=(0, 5))
        n = graph.num_vertices
        roots = [rng.choice(graph.vertices) for _ in range(5)]
        total = graph.total_weight
        for _ in range(3):
            lower = rng.randint(0, total)
            upper = rng.randint(lower, total)
            params = ProblemParams(lower, upper, rng.randint(1, n))
            answers = {
                (decide_p_partition(graph, params, root=r),
                 decide_p_partition_poly(graph, params, root=r))
                for r in roots
            }
            if len(answers) != 1:
                disagreements.append(("decide", graph.to_data(), params))
        lower = rng.randint(0, total)
        upper = rng.randint(lower, total)
        for name, solve in (
            ("min", lambda r: min_partition(graph, lower, upper, root=r)),
            ("max", lambda r: max_partition(graph, lower, upper, root=r)),
            ("min-cost", lambda r: min_cost_partition(graph, lower, upper, root=r)),
        ):
            values = {
                (res[0] if res else None) for res in (solve(r) for r in roots)
            }
            if len(values) != 1:
                disagreements.append((name, graph.to_data(), (lower, upper)))
    _report(
        7,
        "answers do not depend on the chosen root",
        not disagreements,
        f"100 instances x 5 roots, {len(disagreements)} disagreements",
    )


def _fit_slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    n = len(xs)
    return (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
        n * sum(x * x for x in xs) - sum(xs) ** 2
    )


def test_criterion_8_scaling():
    interval_points = []
    for n in (50, 100, 200, 400):
        graph = validate_cactus(
            gen_random_cactus(n, cycle_density=0.3, weight_range=(0, 5), seed=n)
        )
        upper = max(graph.total_weight // 4, graph.max_weight)
        params = ProblemParams(0, upper, 8)
        started = time.perf_counter()
        decide_p_partition_poly(graph, params)
        elapsed = time.perf_counter() - started
        interval_points.append((n, elapsed))
        assert elapsed < 30, f"interval run at n={n} took {elapsed:.1f}s"

    graph = validate_cactus(
        gen_random_cactus(100, cycle_density=0.3, weight_range=(0, 5), seed=7)
    )
    tuple_points = []
    for upper in (50, 100, 200):
        params = ProblemParams(0, upper, 8)
        started = time.perf_counter()
        decide_p_partition(graph, params)
        elapsed = time.perf_counter() - started
        tuple_points.append((upper, elapsed))
        assert elapsed < 30, f"tuple-set run at upper={upper} took {elapsed:.1f}s"

    interval_slope = _fit_slope(interval_points)
    tuple_slope = _fit_slope(tuple_points)
    ok = interval_slope <= 2.5 and tuple_slope <= 2.5
    detail = (
        f"interval times {[(n, round(t * 1000, 1)) for n, t in interval_points]} ms "
        f"slope {interval_slope:.2f}; tuple-set times "
        f"{[(u, round(t * 1000, 1)) for u, t in tuple_points]} ms slope {tuple_slope:.2f}"
    )
    _report(8, "wall time grows at most quadratically", ok, detail)


def test_criterion_9_merge_determinism():
    rng = random.Random(0x9999)
    bad = 0
    for _ in range(1000):
        count = rng.randint(0, 12)
        ivs = []
        for _ in range(count):
            lo = rng.randint(0, 40)
            ivs.append((lo, lo + rng.randint(0, 8)))
        gap = rng.randint(0, 6)
        shuffled = list(ivs)
        rng.shuffle(shuffled)
        if merge(shuffled, gap) != merge(ivs, gap):
            bad += 1
    _report(9, "interval merging is order independent", bad == 0, f"1000 shuffles, {bad} diverged")
