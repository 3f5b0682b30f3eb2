"""Independent answer checks.

Works from the graph document alone and never calls the package: each
witness must cover every vertex exactly once with clusters that are
connected over the document's edges, respect the request's window and
count, and carry the objective recomputed here (cut cost including cycle
closing edges, heaviest or lightest cluster, per-cluster capacity).
``cross_check`` then compares answers that must agree: the two engines,
repeated requests, and bounds one answer puts on another.
"""

from __future__ import annotations

from collections import defaultdict


class DocGraph:
    """Plain view of a graph document."""

    def __init__(self, doc: dict):
        self.weight = {str(v["id"]): v["weight"] for v in doc["vertices"]}
        self.size = {str(v["id"]): v.get("size", v["weight"]) for v in doc["vertices"]}
        self.edges = [
            (str(e["u"]), str(e["v"]), e.get("cost", 0), e.get("capacity", 0))
            for e in doc["edges"]
        ]
        self.adjacency = defaultdict(list)
        for u, v, _c, _k in self.edges:
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)


def _witness_errors(g: DocGraph, clusters) -> tuple[list[str], dict]:
    """Problems with the clusters as a partition, and the cluster index of
    every vertex."""
    where = {}
    for i, cluster in enumerate(clusters):
        for v in cluster:
            if v in where or v not in g.weight:
                return [f"vertex {v!r} unknown or in two clusters"], where
            where[v] = i
    if len(where) != len(g.weight):
        return [f"{len(g.weight) - len(where)} vertices in no cluster"], where
    for i, cluster in enumerate(clusters):
        seen = {cluster[0]}
        todo = [cluster[0]]
        while todo:
            v = todo.pop()
            for w in g.adjacency[v]:
                if w not in seen and where[w] == i:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(cluster):
            return [f"cluster {i} is not connected"], where
    return [], where


def measures(g: DocGraph, clusters):
    """Recomputed objective ingredients of a witness, or (errors, None)."""
    errors, where = _witness_errors(g, clusters)
    if errors:
        return errors, None
    cut_cost = 0
    capacity = [0] * len(clusters)
    cuts = []
    for u, v, cost, cap in g.edges:
        if where[u] != where[v]:
            cut_cost += cost
            capacity[where[u]] += cap
            capacity[where[v]] += cap
            cuts.append(sorted((u, v)))
    return [], {
        "weights": [sum(g.weight[v] for v in c) for c in clusters],
        "sizes": [sum(g.size[v] for v in c) for c in clusters],
        "capacity": capacity,
        "cost": cut_cost,
        "cuts": sorted(cuts),
    }


def check_answer(kind: str, p: dict, g: DocGraph, ans: dict) -> list[str]:
    """Problems with one answer, checked against the document alone."""
    clusters = ans.get("clusters")
    if kind.startswith("decide"):
        return [] if clusters is None and ans.get("objective") is None else ["decide returned a witness"]
    if not ans["feasible"]:
        return [] if clusters is None else ["infeasible answer with a witness"]
    if not clusters:
        return ["feasible answer without a witness"]
    errors, m = measures(g, clusters)
    if errors:
        return errors
    if "cut_edges" in ans and ans["cut_edges"] != m["cuts"]:
        errors.append("reported cut edges differ from the witness")
    count = len(clusters)
    if kind == "capacity":
        lo, hi = p["lw"], p["uw"]
        if any(c > p["uc"] for c in m["capacity"]):
            errors.append("a cluster exceeds the capacity bound")
    else:
        lo, hi = p["l"], p["u"]
    bounded = m["sizes"] if kind in ("minmax", "maxmin") else m["weights"]
    if not all(lo <= x <= hi for x in bounded):
        errors.append(f"cluster outside window [{lo}, {hi}]: {sorted(bounded)}")
    if "p" in p and count != p["p"]:
        errors.append(f"{count} clusters instead of {p['p']}")
    expected = {
        "solve_tupleset": None,
        "solve_interval": None,
        "min": count,
        "max": count,
        "capacity": count,
        "min_cost": m["cost"],
        "minmax": max(m["weights"]),
        "maxmin": min(m["weights"]),
    }[kind]
    if ans.get("objective") != expected:
        errors.append(f"objective {ans.get('objective')} but witness gives {expected}")
    return errors


def cross_check(answers: dict, requests: dict, graphs: dict) -> dict[str, str]:
    """Disagreements between answers, as ``{request key: problem}``.

    ``answers`` maps a request key to the answers it got (one per
    repetition); ``requests`` maps the key to its Request.
    """
    bad: dict[str, str] = {}
    groups = defaultdict(list)
    for key, got in answers.items():
        if len({(a["feasible"], a.get("objective"), str(a.get("clusters"))) for a in got}) > 1:
            bad[key] = "repeated request gave different answers"
        groups[requests[key].group].append((requests[key], key, got[0]))
    for members in groups.values():
        g = DocGraph(graphs[members[0][0].graph])
        for key, problem in _group_problems(members, g):
            bad.setdefault(key, problem)
    return bad


def _group_problems(members, g: DocGraph):
    """Answers on one graph and window that contradict each other."""
    feasible = defaultdict(list)  # (l, u, p) -> [(key, feasible)] of decide/solve
    extreme = defaultdict(list)  # (kind, l, u) -> [(key, answer)] of min/max
    costs = defaultdict(list)  # (l, u) -> cut costs of valid witnesses
    free_cost = {}  # (l, u) -> (key, answer) of min_cost without p
    sized = defaultdict(dict)  # (l, u, p) -> {"minmax"/"maxmin": (key, answer)}
    capacity = defaultdict(dict)  # (lw, uw, uc) -> {objective: (key, answer)}
    for req, key, ans in members:
        p = req.p
        if req.kind.startswith(("decide", "solve")):
            feasible[(p["l"], p["u"], p["p"])].append((key, ans["feasible"]))
        elif req.kind in ("min", "max"):
            extreme[(req.kind, p["l"], p["u"])].append((key, ans))
        elif req.kind == "min_cost" and "p" not in p:
            free_cost[(p["l"], p["u"])] = (key, ans)
        elif req.kind in ("minmax", "maxmin"):
            sized[(p["l"], p["u"], p["p"])][req.kind] = (key, ans)
        elif req.kind == "capacity":
            capacity[(p["lw"], p["uw"], p["uc"])][p["objective"]] = (key, ans)
        if ans.get("clusters") and req.kind not in ("minmax", "maxmin", "capacity"):
            errors, m = measures(g, ans["clusters"])
            if not errors:
                costs[(p["l"], p["u"])].append(m["cost"])

    for (l, u, p), items in feasible.items():
        if len({f for _, f in items}) > 1:
            for key, _ in items:
                yield key, "engines disagree on feasibility"
        elif items[0][1]:
            for kind, ok in (("min", lambda c: c <= p), ("max", lambda c: c >= p)):
                for key, ans in extreme.get((kind, l, u), []):
                    if not ans["feasible"] or not ok(ans["objective"]):
                        yield key, f"{kind} contradicts a feasible {p}-cluster partition"
    for (kind, _l, _u), items in extreme.items():
        if len({(a["feasible"], a["objective"]) for _, a in items}) > 1:
            for key, _ in items:
                yield key, f"{kind}: engines disagree"
    for window, (key, ans) in free_cost.items():
        known = costs.get(window)
        if known and (not ans["feasible"] or ans["objective"] > min(known)):
            yield key, f"min_cost {ans['objective']} but a valid partition costs {min(known)}"
    for pair in sized.values():
        if len(pair) < 2:
            continue
        (kmin, amin), (kmax, amax) = pair["minmax"], pair["maxmin"]
        if amin["feasible"] != amax["feasible"]:
            yield kmin, "minmax and maxmin disagree on feasibility"
            yield kmax, "minmax and maxmin disagree on feasibility"
        elif amin["feasible"]:
            _e, m = measures(g, amax["clusters"])
            if m and amin["objective"] > max(m["weights"]):
                yield kmin, "a valid partition has a lighter heaviest cluster"
            _e, m = measures(g, amin["clusters"])
            if m and amax["objective"] < min(m["weights"]):
                yield kmax, "a valid partition has a heavier lightest cluster"
    for pair in capacity.values():
        if len(pair) < 2:
            continue
        (klo, alo), (khi, ahi) = pair["min"], pair["max"]
        if alo["feasible"] != ahi["feasible"] or (
            alo["feasible"] and alo["objective"] > ahi["objective"]
        ):
            yield klo, "capacity min and max contradict each other"
            yield khi, "capacity min and max contradict each other"
