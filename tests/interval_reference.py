"""The interval engine's recorded algebra and recursive witness search.

Kept as the reference for the record-free engine: ``IntervalAlgebra``
attaches every producing combination to every stored interval, and
``_IntervalSearch`` searches those records depth-first with nested
generators.  The tests compare states and witnesses of the package's
engine with these.  The recursion is about eight frames per tree level,
so only small graphs fit under the default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from cactus_partition.errors import IntervalCountError, WitnessNotFoundError
from cactus_partition.graph_model import CactusGraph, canonicalize_partition
from cactus_partition.dp_core import ProblemParams, run_tree_dp


@dataclass(eq=False)
class IEntry:
    """One stored interval with the records of how it was produced.

    ``lo`` is the smallest achievable weight of its run.  ``hi`` is the
    largest when it is at most ``upper``; above ``upper`` it is the
    untruncated sum, and the run's largest achievable weight up to
    ``upper`` lies in ``(lower, upper]`` (see ``cactus_partition.interval_dp``).

    Sources are tagged tuples:

    * ``("leaf", v)``: base case, the interval is ``[w(v), w(v)]``.
    * ``("step", branch, a_entry, b_entry, edge)``: combined from two
      entries across ``edge`` by cutting (branch "cut") or merging
      clusters (branch "merge").
    * ``("sub", entry)``: constituent swallowed by an interval merge.
    * ``("cfg", j, absent_edge, entry)``: produced inside cycle
      configuration ``j`` whose absent edge is recorded for the cut set.

    All producing combinations are kept, not just one witness: a merged
    interval only promises that some member weight is achievable, and
    reconstruction may need to try several constituents.
    """

    lo: int
    hi: int
    sources: tuple

    def intersects(self, lo: int, hi: int) -> bool:
        return self.lo <= hi and self.hi >= lo


class IntervalAlgebra:
    """Interval states for the shared tree traversal: ``{k: (IEntry, ...)}``."""

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.params = params
        self.arc_limit = (graph.weight, params.upper)

    def base(self, v):
        w = self.graph.weight[v]
        return {1: (IEntry(w, w, (("leaf", v),)),)}

    def combine(self, a, b, edge, step):
        lower, upper = self.params.lower, self.params.upper
        p = self.params.num_clusters
        raw: dict[tuple[int, int, int], list] = {}
        for k2, ents_b in sorted(b.items()):
            for eb in ents_b:
                feasible = eb.lo <= upper and eb.hi >= lower
                for k1, ents_a in sorted(a.items()):
                    for ea in ents_a:
                        if feasible and k1 + k2 <= p:
                            raw.setdefault((k1 + k2, ea.lo, ea.hi), []).append(
                                ("step", "cut", ea, eb, edge)
                            )
                        if ea.lo + eb.lo <= upper and k1 + k2 - 1 <= p:
                            raw.setdefault(
                                (k1 + k2 - 1, ea.lo + eb.lo, ea.hi + eb.hi), []
                            ).append(("step", "merge", ea, eb, edge))
        return self._merged(raw)

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        raw: dict[tuple[int, int, int], list] = {}
        for j, step, state in configs:
            for k, entries in sorted(state.items()):
                for e in entries:
                    raw.setdefault((k, e.lo, e.hi), []).append(
                        ("cfg", j, step.absent_edge, e)
                    )
        return self._merged(raw)

    def _merged(self, raw):
        per_k: dict[int, list[IEntry]] = {}
        for (k, lo, hi), sources in raw.items():
            per_k.setdefault(k, []).append(IEntry(lo, hi, tuple(sources)))
        gap = self.params.gap
        out = {}
        for k, entries in sorted(per_k.items()):
            entries.sort(key=lambda e: (e.lo, e.hi))
            merged: list[IEntry] = []
            group = [entries[0]]
            lo, hi = entries[0].lo, entries[0].hi
            for e in entries[1:]:
                if e.lo - hi <= gap:
                    group.append(e)
                    hi = max(hi, e.hi)
                else:
                    merged.append(self._flush(group, lo, hi))
                    group = [e]
                    lo, hi = e.lo, e.hi
            merged.append(self._flush(group, lo, hi))
            if len(merged) > k:
                raise IntervalCountError(
                    f"{len(merged)} intervals stored for cluster count {k}: "
                    f"{[(e.lo, e.hi) for e in merged]}"
                )
            out[k] = tuple(merged)
        return out

    @staticmethod
    def _flush(group, lo, hi):
        if len(group) == 1:
            return group[0]
        return IEntry(lo, hi, tuple(("sub", g) for g in group))


def _first(gen):
    for item in gen:
        return item
    return None


class _IntervalSearch:
    """Depth-first search over interval records with feasibility windows."""

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.params = params
        self._cluster_memo: dict[int, tuple | None] = {}

    def candidates(self, entry, lo: int, hi: int):
        """Yield ``(weight, cut_edges)`` realisations of ``entry`` in [lo, hi]."""
        if lo > hi or not entry.intersects(lo, hi):
            return
        for src in entry.sources:
            tag = src[0]
            if tag == "leaf":
                x = self.graph.weight[src[1]]
                if lo <= x <= hi:
                    yield (x, frozenset())
            elif tag == "sub":
                yield from self.candidates(src[1], lo, hi)
            elif tag == "cfg":
                _, _j, absent, inner = src
                for x, cuts in self.candidates(inner, lo, hi):
                    yield (x, cuts | {absent})
            else:  # ("step", branch, a_entry, b_entry, edge)
                _, branch, ea, eb, edge = src
                if branch == "cut":
                    done = self._completed_cluster(eb)
                    if done is None:
                        continue
                    _bx, bcuts = done
                    for x, cuts in self.candidates(ea, lo, hi):
                        yield (x, cuts | bcuts | {edge})
                else:
                    a_lo = max(0, lo - eb.hi)
                    a_hi = hi - eb.lo
                    for ax, acuts in self.candidates(ea, a_lo, a_hi):
                        for bx, bcuts in self.candidates(
                            eb, max(0, lo - ax), hi - ax
                        ):
                            yield (ax + bx, acuts | bcuts)

    def _completed_cluster(self, entry):
        # a cut branch finishes the child cluster: any realisation inside
        # the weight window works, independent of the caller's window
        key = id(entry)
        if key not in self._cluster_memo:
            self._cluster_memo[key] = _first(
                self.candidates(entry, self.params.lower, self.params.upper)
            )
        return self._cluster_memo[key]


def recorded_states(tree, params):
    """Every partial state of the recorded run, keyed like ``run_tree_dp``'s."""
    return run_tree_dp(tree, IntervalAlgebra(tree.graph, params))


def recorded_witness(graph, root_state, params, target=None):
    """The interval branch of ``reconstruct`` over recorded root entries."""
    entries = root_state.get(params.num_clusters, ())
    if target is not None:
        lo, hi, _k = target
        entries = [e for e in entries if (e.lo, e.hi) == (lo, hi)]
    search = _IntervalSearch(graph, params)
    for entry in sorted(entries, key=lambda e: (e.lo, e.hi)):
        if not entry.intersects(params.lower, params.upper):
            continue
        found = _first(search.candidates(entry, params.lower, params.upper))
        if found is not None:
            return canonicalize_partition(graph, found[1])
    raise WitnessNotFoundError("no feasible root interval to reconstruct")
