"""Seeded workload definitions: graph documents and request schedules.

A request is one (graph document, problem) pair.  Every workload is a
list of *cycles*; one cycle is a fixed list of requests over a set of
*slots* (a graph shape and size with its problem parameters).  Cycle c
uses the c-th graph of each slot's pool, so the request mix of every
cycle is the same while the graphs differ.  Inside a cycle the requests
of each slot are spread evenly, so a run cut off mid-cycle still sees
the cycle's mix.

Why each workload exists, the sizes chosen and the seed numbers are in
NOTES.md beside this file.  ``tiny=True`` builds the same shapes with at
most 16 edges for the brute-force self-test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("mixed-cactus", "long-cycles", "deep-paths", "cli-solve")
KINDS = (
    "decide_mask", "decide_interval", "solve_tupleset", "solve_interval",
    "min", "max", "min_cost", "minmax", "maxmin", "capacity",
)
POOL = 8  # distinct graphs per slot; cycle c uses graph c % POOL


@dataclass(frozen=True)
class Request:
    kind: str  # one of KINDS
    graph: str  # key into Workload.graphs
    group: str  # requests of one group share graph and window (cross-checks)
    params: tuple  # sorted (name, value) pairs

    @property
    def p(self) -> dict:
        return dict(self.params)

    @property
    def key(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.graph}:{self.kind}:{args}"


@dataclass
class Workload:
    name: str
    cli: bool
    graphs: dict = field(default_factory=dict)  # name -> graph document
    cycles: list = field(default_factory=list)  # list of lists of Request

    def schedule(self):
        """Requests in timed order, cycling through the pool forever."""
        c = 0
        while True:
            yield from self.cycles[c % len(self.cycles)]
            c += 1


def _req(kind, graph, group, **params):
    return Request(kind, graph, group, tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# graph shapes


def _doc(ids, edges, rng, weights):
    return {
        "vertices": [{"id": v, "weight": rng.randint(*weights)} for v in ids],
        "edges": [{"u": u, "v": v} for u, v in edges],
    }


def _ids(prefix, n):
    return [f"{prefix}{i:04d}" for i in range(n)]


def ring(m, rng, weights=(1, 5)):
    ids = _ids("r", m)
    edges = [(ids[i], ids[(i + 1) % m]) for i in range(m)]
    return _doc(ids, edges, rng, weights)


def necklace(ring_sizes, rng, layout, weights=(1, 5), pendants=(1, 3)):
    """Rings chained at shared articulation vertices, with short pendant
    paths hung off one vertex of every ring, placed by ``layout``."""
    ids: list[str] = []
    edges = []

    def new():
        ids.append(f"n{len(ids):04d}")
        return ids[-1]

    joint = new()
    for m in ring_sizes:
        members = [joint] + [new() for _ in range(m - 1)]
        edges += [(members[i], members[(i + 1) % m]) for i in range(m)]
        anchor = layout.choice(members)
        for _ in range(layout.randint(*pendants)):
            leaf = new()
            edges.append((anchor, leaf))
            anchor = leaf
        joint = members[m // 2]
    return _doc(ids, edges, rng, weights)


def path(n, rng, weights):
    ids = _ids("p", n)
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    return _doc(ids, edges, rng, weights)


def caterpillar(n, rng, layout, weights):
    """A spine of n/2 vertices with the other half as leaves on spine
    vertices chosen by ``layout``."""
    spine = _ids("s", (n + 1) // 2)
    leaves = _ids("l", n // 2)
    edges = [(spine[i], spine[i + 1]) for i in range(len(spine) - 1)]
    edges += [(layout.choice(spine), leaf) for leaf in leaves]
    ids = spine + leaves
    return _doc(ids, edges, rng, weights)


def _total(doc, attr="weight"):
    return sum(v.get(attr, v["weight"]) for v in doc["vertices"])


def _window(doc, p, spread, attr="weight"):
    """``spread`` around the mean cluster weight (or size), widened to take
    the heaviest single vertex."""
    mean = _total(doc, attr) / p
    heaviest = max(v.get(attr, v["weight"]) for v in doc["vertices"])
    lower = max(0, math.floor(mean * (1 - spread)))
    return lower, max(math.ceil(mean * (1 + spread)), heaviest)


SIZES, COSTS, CAPACITIES = (1, 3), (0, 9), (0, 4)


def _attributes(doc, rng):
    """Draw sizes, costs and capacities for a graph document."""
    for v in doc["vertices"]:
        v["size"] = rng.randint(*SIZES)
    for e in doc["edges"]:
        e["cost"] = rng.randint(*COSTS)
        e["capacity"] = rng.randint(*CAPACITIES)
    return doc


def shape_rng(tag):
    """Random source for the shape of a slot's graph, independent of the
    workload seed.

    The cost of one request varies several-fold between graph shapes of
    one size, so shapes stay fixed and every run measures the same shapes
    with other weights.
    """
    return random.Random(f"shape/{tag}")


def shaped_cactus(n, shape, rng, attributes=False):
    """A random cactus whose shape is fixed by ``shape`` and whose weights
    (0-5) and, with ``attributes``, sizes, costs and capacities are drawn
    from ``rng``."""
    from cactus_partition import gen_random_cactus

    seed = shape_rng(shape).randrange(2**31)
    doc = gen_random_cactus(n, cycle_density=0.3, weight_range=(0, 5), seed=seed)
    for v in doc["vertices"]:
        v["weight"] = rng.randint(0, 5)
    return _attributes(doc, rng) if attributes else doc


# ---------------------------------------------------------------------------
# workloads


def _dp_requests(name, l, u, p, kinds):
    return [_req(kind, name, name, l=l, u=u, p=p) for kind in kinds]


def _minmax_requests(name, l, u, engines=("interval", "tupleset")):
    return [
        _req(kind, name, name, algorithm=alg, l=l, u=u)
        for kind in ("min", "max")
        for alg in engines
    ]


def _too_many(name, l, u, doc):
    """Decide requests that are infeasible because the clusters' lower
    bounds add up to more than the total weight."""
    p = _total(doc) // max(l, 1) + 1
    return _dp_requests(name, l, u, p, ("decide_mask", "decide_interval"))


def _variant_requests(name, doc, p, capacity_objectives):
    lw, uw = _window(doc, p, 0.5)
    ls, us = _window(doc, p, 0.5, "size")
    reqs = [
        _req("min_cost", name, name, l=lw, u=uw),
        _req("min_cost", name, name, l=lw, u=uw, p=p),
        _req("minmax", name, name + "/size", l=ls, u=us, p=p),
        _req("maxmin", name, name + "/size", l=ls, u=us, p=p),
    ]
    return reqs + [
        _req("capacity", name, name, lw=lw, uw=uw, uc=10, objective=obj)
        for obj in capacity_objectives
    ]


DECIDE_SOLVE = ("decide_mask", "decide_interval", "solve_tupleset", "solve_interval")


def _mixed_slots(tiny):
    """(kind, n, p): DP slots with few and many clusters, variant slots.

    Many small clusters make the count range of every state wide, which
    costs seconds per request from n = 1000 on, so that regime stops at
    n = 500.
    """
    if tiny:
        dp = [("dp", n, p) for n in (6, 8, 10, 12) for p in (2, max(2, n // 3))]
        return dp + [("var", n, p) for n in (7, 9) for p in (2, 3)]
    dp = [("dp", n, n // 100) for n in (200, 500, 1000, 2000)]
    dp += [("dp", n, n // 10) for n in (200, 500)]
    return dp + [("var", n, p) for n in (90, 110) for p in (3, 10)]


def _mixed_slot(kind, n, p, rng, tag):
    if kind == "var":
        doc = shaped_cactus(n, tag, rng, attributes=True)
        return doc, _variant_requests(tag, doc, p, capacity_objectives=("min", "max"))
    doc = shaped_cactus(n, tag, rng)
    l, u = _window(doc, p, 0.4)
    if n > 1000:  # the tuple-set engine, with up to n clusters, takes seconds here
        reqs = _dp_requests(tag, l, u, p, ("decide_mask", "decide_interval", "solve_interval"))
        reqs += _minmax_requests(tag, l, u, ("interval",))
    else:
        reqs = _dp_requests(tag, l, u, p, DECIDE_SOLVE) + _minmax_requests(tag, l, u)
    return doc, reqs + _too_many(tag, l, u, doc)


def _long_slots(tiny):
    """(shape, ring sizes, p); sizes spread so request costs do too."""
    if tiny:
        return [("ring", (8,), 2), ("ring", (10,), 3), ("necklace", (4, 5), 2),
                ("necklace", (3, 3, 4), 3)]
    rings = [("ring", (m,), p) for m, p in ((60, 10), (70, 10), (80, 11), (90, 11), (100, 12))]
    return rings + [("necklace", (50, 80), 11), ("necklace", (40, 60, 70), 12),
                    ("necklace", (40, 45, 50, 40, 45, 50), 12)]


def _long_slot(shape, sizes, p, rng, tag, tiny):
    if shape == "ring":
        doc = ring(sizes[0], rng)
    else:
        doc = necklace(sizes, rng, shape_rng(tag), pendants=(0, 1) if tiny else (1, 3))
    mean = round(_total(doc) / p)
    return doc, _dp_requests(tag, max(0, mean - 5), mean + 5, p, DECIDE_SOLVE)


def _deep_slots(tiny):
    """(shape, regime, n); sizes spread so request costs do too."""
    if tiny:
        return [("path", "small", 12), ("caterpillar", "small", 12),
                ("path", "large", 14), ("caterpillar", "large", 12)]
    return ([("path", "small", n) for n in (300, 400, 500)]
            + [("caterpillar", "small", n) for n in (400, 600)]
            + [("path", "large", n) for n in (600, 800, 1000)]
            + [("caterpillar", "large", n) for n in (600, 800)])


def _deep_slot(shape, regime, n, rng, tag, tiny):
    weights = (0, 5) if regime == "small" else (0, 100)
    if shape == "path":
        doc = path(n, rng, weights)
    else:
        doc = caterpillar(n, rng, shape_rng(tag), weights)
    if regime == "small":
        u = 8 if tiny else 30
        l = u // 3
        p = max(1, round(_total(doc) / (2 * u / 3)))
    else:
        u = 300 if tiny else 1500
        l = u // 2
        p = max(1, round(_total(doc) / (3 * u / 4)))
    kinds = ("decide_mask", "decide_interval", "solve_interval")
    if regime == "small" and shape == "path":
        kinds += ("solve_tupleset",)
    return doc, _dp_requests(tag, l, u, p, kinds)


def _cli_slots(tiny):
    return [(n,) for n in ((6, 8, 10, 12) if tiny else (50, 100, 200, 300))]


def _cli_slot(n, rng, tag, tiny):
    doc = shaped_cactus(n, tag, rng, attributes=True)
    p = max(2, n // (4 if tiny else 25))
    l, u = _window(doc, p, 0.4)
    reqs = _dp_requests(tag, l, u, p, DECIDE_SOLVE) + _minmax_requests(tag, l, u)
    return doc, reqs + _variant_requests(tag, doc, p, capacity_objectives=("min",))


def _interleave(slot_requests):
    """Spread every slot's requests evenly over the cycle."""
    keyed = []
    for s, reqs in enumerate(slot_requests):
        for i, r in enumerate(reqs):
            keyed.append(((i + 0.5) / len(reqs), s, r))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [r for _, _, r in keyed]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the graphs and request cycles of workload ``name``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}/{seed}")
    wl = Workload(name, cli=name == "cli-solve")
    pool = 1 if tiny else POOL
    for c in range(pool):
        slot_requests = []
        if name == "mixed-cactus":
            made = [_mixed_slot(k, n, p, rng, f"c{c}-{k}{n}-p{p}") for k, n, p in _mixed_slots(tiny)]
        elif name == "long-cycles":
            made = [_long_slot(s, sizes, p, rng, f"c{c}-{s}{i}", tiny)
                    for i, (s, sizes, p) in enumerate(_long_slots(tiny))]
        elif name == "deep-paths":
            made = [_deep_slot(s, r, n, rng, f"c{c}-{s}-{r}{n}", tiny)
                    for s, r, n in _deep_slots(tiny)]
        else:
            made = [_cli_slot(n, rng, f"c{c}-n{n}", tiny) for (n,) in _cli_slots(tiny)]
        for doc, reqs in made:
            wl.graphs[reqs[0].graph] = doc
            slot_requests.append(reqs)
        wl.cycles.append(_interleave(slot_requests))
    return wl
