"""Witnesses at benchmark scale, pinned.

The other witness tests compare the engines with recorded references on
graphs of at most 14 vertices.  Here seeded random cacti of 200 to 2,000
vertices, a 100-ring, a necklace of long rings and a 1,000-vertex path
each get a solve, a min and a max request on both engines, and every
witness must keep the cut edges it had when these pins were taken: a
digest of the sorted cut edges, with the count for min and max.
"""

import functools
import hashlib
import random

import pytest

from cactus_partition import (
    ProblemParams,
    annotate,
    build_tree,
    max_partition,
    min_partition,
    reconstruct,
)

from util import graph_from, path, random_graph, ring

# request -> digest (count:digest for min and max)
PINS = {
    'cactus-200/solve/tupleset': '6437e291a3cd58b0',
    'cactus-200/solve/interval': 'f32c1a4d6641aa46',
    'cactus-200/min/tupleset': '9:048d718733e58765',
    'cactus-200/min/interval': '9:048d718733e58765',
    'cactus-200/max/tupleset': '13:bb7e0a312a01a0b7',
    'cactus-200/max/interval': '13:1d0ea9a7def36c8a',
    'cactus-500/solve/tupleset': '96a9227b1426d219',
    'cactus-500/solve/interval': 'ff9aa4476a0a5453',
    'cactus-500/min/tupleset': '21:a46b423bc5d43166',
    'cactus-500/min/interval': '21:a46b423bc5d43166',
    'cactus-500/max/tupleset': '33:a9767ebbf193fc5b',
    'cactus-500/max/interval': '33:c09c16504c6e012f',
    'cactus-1000/solve/tupleset': 'd1c434d04ecb27ea',
    'cactus-1000/solve/interval': '06320727b319abd2',
    'cactus-1000/min/tupleset': '45:e9763a3d5f9f3c74',
    'cactus-1000/min/interval': '45:955334f362a70b20',
    'cactus-1000/max/tupleset': '66:6f88a437b436dc56',
    'cactus-1000/max/interval': '66:04efc84de4f5e108',
    'cactus-2000/solve/tupleset': 'dc3c3dc43940abad',
    'cactus-2000/solve/interval': 'ce196010c68721d5',
    'cactus-2000/min/tupleset': '94:b2fc11b3344b52dc',
    'cactus-2000/min/interval': '94:a2c61ced972a9bd1',
    'cactus-2000/max/tupleset': '128:8170a8d669aab494',
    'cactus-2000/max/interval': '128:9f8a739921592b42',
    'ring-100/solve/tupleset': '88886d41cd06f0fd',
    'ring-100/solve/interval': 'ab12804818b2b022',
    'ring-100/min/tupleset': '9:100c46ef995d9e97',
    'ring-100/min/interval': '9:da8db85b561c007e',
    'ring-100/max/tupleset': '19:11fc3ccf849f388b',
    'ring-100/max/interval': '19:f89d404cbca493b8',
    'necklace/solve/tupleset': 'aabfc0e545e59d50',
    'necklace/solve/interval': 'e94ad5fb2d99ad3c',
    'necklace/min/tupleset': '9:968770112feafe9f',
    'necklace/min/interval': '9:968770112feafe9f',
    'necklace/max/tupleset': '19:b612aaad9bfe0c26',
    'necklace/max/interval': '19:272bff20a7a8a782',
    'path-1000/solve/tupleset': '5e9df1d970c9b28f',
    'path-1000/solve/interval': '6569a0e15e63af58',
    'path-1000/min/tupleset': '30:fc024b6730051db9',
    'path-1000/min/interval': '30:3be4f7013b029041',
    'path-1000/max/tupleset': '64:72ef570285de2707',
    'path-1000/max/interval': '64:d55f483f4b8e9d9b',
}


def _necklace(ring_sizes, seed):
    """Rings chained at shared vertices, each with a two-vertex pendant."""
    rng = random.Random(seed)
    edges, joint = [], "n0"
    for r, m in enumerate(ring_sizes):
        members = [joint] + [f"n{r}_{i}" for i in range(1, m)]
        edges += [(members[i], members[(i + 1) % m]) for i in range(m)]
        edges += [(members[m // 3], f"t{r}_0"), (f"t{r}_0", f"t{r}_1")]
        joint = members[m // 2]
    names = sorted({v for edge in edges for v in edge})
    return graph_from({v: rng.randint(1, 5) for v in names}, edges)


def _instances():
    """(name, graph, count); the window is the mean cluster weight +- 40 %."""
    for n, seed in ((200, 11), (500, 12), (1000, 13), (2000, 14)):
        yield f"cactus-{n}", random_graph(seed, n=n, cycle_density=0.4, weight_range=(1, 9)), n // 20
    yield "ring-100", ring(100, seed=15, weight_range=(1, 5)), 12
    yield "necklace", _necklace((40, 45, 50, 40), seed=16), 12
    rng = random.Random(17)
    yield "path-1000", path([rng.randint(0, 5) for _ in range(1000)]), 40


def _window(graph, p):
    mean = graph.total_weight / p
    return round(mean * 0.6), max(round(mean * 1.4), graph.max_weight)


def _digest(partition):
    text = repr(sorted(partition.cut_edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def _built():
    """name -> (tree, lower, upper, count), built once per test run."""
    out = {}
    for name, graph, p in _instances():
        out[name] = (build_tree(graph),) + _window(graph, p) + (p,)
    return out


def _witness(name, kind, engine):
    tree, lower, upper, p = _built()[name]
    if kind == "solve":
        return _digest(reconstruct(annotate(tree, ProblemParams(lower, upper, p), engine)))
    fn = min_partition if kind == "min" else max_partition
    count, partition = fn(tree, lower, upper, algorithm=engine)
    return f"{count}:{_digest(partition)}"


NAMES = ("cactus-200", "cactus-500", "cactus-1000", "cactus-2000", "ring-100", "necklace",
         "path-1000")
REQUESTS = [f"{name}/{kind}/{engine}" for name in NAMES for kind in ("solve", "min", "max")
            for engine in ("tupleset", "interval")]


@pytest.mark.parametrize("request_id", REQUESTS)
def test_witness_matches_its_pin(request_id):
    assert _witness(*request_id.split("/")) == PINS[request_id]
