"""Seeded random cactus generator (test corpus and CLI helper)."""

from __future__ import annotations

import random

from .errors import InvalidParamsError


def gen_random_cactus(
    n: int,
    cycle_density: float = 0.25,
    weight_range: tuple[int, int] = (0, 9),
    seed: int = 0,
    size_range: tuple[int, int] | None = None,
    cost_range: tuple[int, int] | None = None,
    capacity_range: tuple[int, int] | None = None,
) -> dict:
    """Random cactus as a graph document, deterministic per seed.

    The graph grows by attaching either a pendant vertex or a whole cycle
    (3 to 6 vertices, sharing only its anchor) to a random existing
    vertex; ``cycle_density`` is the probability of choosing a cycle.
    Optional ranges add sizes, costs and capacities; otherwise the loader
    defaults apply.
    """
    if n < 1:
        raise InvalidParamsError("need at least one vertex")
    if not 0.0 <= cycle_density <= 1.0:
        raise InvalidParamsError("cycle density must be within [0, 1]")
    ranges = {"weight": weight_range, "size": size_range, "cost": cost_range,
              "capacity": capacity_range}
    for name, bounds in ranges.items():
        if bounds is not None and not 0 <= bounds[0] <= bounds[1]:
            raise InvalidParamsError(f"bad {name} range {bounds!r}")
    lo, hi = weight_range

    rng = random.Random(seed)
    width = max(2, len(str(n - 1)))
    ids = [f"v{i:0{width}d}" for i in range(n)]

    grown = [ids[0]]
    edges: list[tuple[str, str]] = []
    nxt = 1
    while nxt < n:
        anchor = rng.choice(grown)
        remaining = n - nxt
        if remaining >= 2 and rng.random() < cycle_density:
            extra = rng.randint(2, min(5, remaining))
            ring = [anchor] + ids[nxt : nxt + extra]
            nxt += extra
            grown.extend(ring[1:])
            edges.extend(zip(ring, ring[1:]))
            edges.append((ring[-1], ring[0]))
        else:
            vertex = ids[nxt]
            nxt += 1
            grown.append(vertex)
            edges.append((anchor, vertex))

    vertices = []
    for v in ids:
        entry = {"id": v, "weight": rng.randint(lo, hi)}
        if size_range is not None:
            entry["size"] = rng.randint(*size_range)
        vertices.append(entry)
    edge_docs = []
    for u, v in edges:
        entry = {"u": u, "v": v}
        if cost_range is not None:
            entry["cost"] = rng.randint(*cost_range)
        if capacity_range is not None:
            entry["capacity"] = rng.randint(*capacity_range)
        edge_docs.append(entry)
    return {"vertices": vertices, "edges": edge_docs}
