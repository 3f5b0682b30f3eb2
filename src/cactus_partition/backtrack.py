"""Rebuild actual partitions from annotated solver runs.

Reconstruction walks a solver run from the root downwards and collects
the edges cut along the way; deleting the collected edges from the graph
yields the clusters.

The tuple-set engine keeps no records.  Its bitmask states are exact, so
any split of a stored tuple into achievable parts extends to a valid
partition, and the witness is read straight out of the states: at every
combination the walk splits the tuple into a parent tuple, a child tuple
and a branch (cut or merge) with bit tests over the set bits of the
child state, and at a cycle it takes the lowest configuration holding
the tuple and recomputes only that configuration's two chains.  The
split follows the order of ``TupleAlgebra``'s records (smallest child
tuple, then smallest parent tuple), so witnesses are the same as a
recorded run would give.  The walk keeps an explicit stack, so the
interpreter's recursion limit does not bound the depth of the tree.

The interval engine keeps no records either, but its states are
compressed: a stored interval only guarantees that some member weight
is achievable, so not every split extends to a partition and the walk
searches.  It keeps a window of weights that would still complete a
valid partition and tries, depth-first, the combinations that produced
the interval, recomputing them at each context it passes through: the
raw intervals of the merge group (in ``(lo, hi)`` order), the pairs of
parent and child intervals that combine into each (child count
ascending, then child interval, cut before merge), and the cycle
configurations holding it (ascending ``j``, their chains refolded
through :func:`fold_configuration`).  Descending into a cluster merge
with child interval ``[b, b']`` widens the child side: the parent side
is searched within ``[lo - b', hi - b]`` and, once its exact weight x is
fixed, the child side must land in ``[lo - x, hi - x]``.  Completed
clusters are searched against the original weight window and memoised.
The first solution in this deterministic order is returned, so
reconstruction is reproducible; it is the order in which a recorded
interval algebra's records would be searched, and the witnesses are the
same.  The search frames are generators driven from one explicit stack,
so its depth is not bounded by the recursion limit either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dp_core import (
    CycleStep,
    MaskAlgebra,
    ProblemParams,
    _check_leaf_weights,
    _mask_state_to_set,
    cycle_node_states,
    fold_configuration,
    run_tree_dp,
)
from .errors import WitnessNotFoundError
from .graph_model import CactusGraph, Partition, canonicalize_partition, edge_key
from .interval_dp import IEntry, IntervalAlgebra
from .tree_rep import CactusTree, absent_cycle_edge, build_tree


@dataclass
class AnnotatedRun:
    """A solver run kept for backtracking.

    For the tuple-set engine ``states`` are the bitmask states of every
    partial subtree, ``configs`` the per-configuration states of every
    cycle keyed by ``(cycle, j)``, and ``root_state`` the root's tuple set
    as ``(x, k)`` pairs.  The states may have been computed under a count
    cap above ``params.num_clusters`` (the min / max variants do); the
    entries up to the cap are the same either way.  For the interval
    engine ``states`` and ``configs`` hold the plain interval states and
    ``root_state`` maps each count to the root's intervals as
    :class:`IEntry` values.
    """

    tree: CactusTree
    params: ProblemParams
    algorithm: str
    states: dict
    root_state: dict | frozenset
    configs: dict | None = None

    @property
    def graph(self) -> CactusGraph:
        return self.tree.graph


def annotate(
    graph: CactusGraph | CactusTree,
    params: ProblemParams,
    algorithm: str = "tupleset",
    root: str | None = None,
) -> AnnotatedRun:
    """Run a solver and keep what :func:`reconstruct` needs.

    ``algorithm`` selects the tuple-set solver (bitmask states) or the
    interval-compressed one (interval states); either way the
    per-configuration states of every cycle are kept too.
    """
    tree = graph if isinstance(graph, CactusTree) else build_tree(graph, root)
    _check_leaf_weights(tree.graph, params)
    root_ctx = (tree.root, tree.full_index(tree.root))
    configs: dict = {}
    if algorithm == "tupleset":
        states = run_tree_dp(tree, MaskAlgebra(tree.graph, params), config_sink=configs)
        root_state = _mask_state_to_set(states[root_ctx])
    elif algorithm == "interval":
        states = run_tree_dp(tree, IntervalAlgebra(tree.graph, params), config_sink=configs)
        root_state = {
            k: tuple(IEntry(lo, hi) for lo, hi in ivs) for k, ivs in states[root_ctx].items()
        }
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return AnnotatedRun(tree, params, algorithm, states, root_state, configs)


def _split(a: dict, b: dict, x: int, k: int, window: int):
    """Split tuple ``(x, k)`` of ``combine(a, b)`` into its witness parts.

    Returns ``(a_key, b_key, cut)``.  The witness is the one
    ``TupleAlgebra`` records: the smallest child tuple ``(x2, k2)``, then
    the smallest parent tuple, so for one child tuple the cut (parent
    ``(x, k - k2)``) comes before the merge (parent ``(x - x2, k - k2 +
    1)``) only when ``x2 == 0``.
    """
    best = None
    for k2, mb in b.items():
        if k2 > k:
            continue
        cut_x2 = merge_x2 = None
        if a.get(k - k2, 0) >> x & 1 and mb & window:
            low = mb & window
            cut_x2 = (low & -low).bit_length() - 1
        ma = a.get(k - k2 + 1, 0)
        bits = mb & ((2 << x) - 1)
        while bits:
            low = bits & -bits
            x2 = low.bit_length() - 1
            if ma >> (x - x2) & 1:
                merge_x2 = x2
                break
            bits ^= low
        if cut_x2 is not None and (merge_x2 is None or cut_x2 < merge_x2 or cut_x2 == 0):
            cand = (cut_x2, k2, True)
        elif merge_x2 is not None:
            cand = (merge_x2, k2, False)
        else:
            continue
        if best is None or cand < best:
            best = cand
    if best is None:  # pragma: no cover - the tuple came from these states
        raise WitnessNotFoundError(f"tuple {(x, k)!r} has no witness")
    x2, k2, cut = best
    if cut:
        return (x, k - k2), (x2, k2), True
    return (x - x2, k - k2 + 1), (x2, k2), False


def _mask_witness_cuts(run: AnnotatedRun, key) -> set:
    """Cut edges of the witness of root tuple ``key`` in a tuple-set run."""
    tree, states = run.tree, run.states
    # Entries with counts up to key[1] do not depend on the count cap, and
    # no tuple below the root has a larger count, so chains are recomputed
    # under that cap.
    alg = MaskAlgebra(tree.graph, ProblemParams(run.params.lower, run.params.upper, key[1]))

    def full(node):
        return (node, tree.full_index(node))

    cuts: set = set()

    def split(a, b, tup, edge):
        a_key, b_key, cut = _split(a, b, *tup, alg.window_mask)
        if cut:
            cuts.add(edge)
        return a_key, b_key

    stack = [(full(tree.root), key)]
    while stack:
        (v, i), key = stack.pop()
        if i == 0:
            continue
        cyc = tree.cycle_at.get((v, i))
        if cyc is None:
            child = full(tree.children[v][i - 1])
            a_key, b_key = split(states[(v, i - 1)], states[child], key, edge_key(v, child[0]))
            stack += [((v, i - 1), a_key), (child, b_key)]
            continue
        x, k = key
        j = next(j for j in range(1, cyc.length) if run.configs[(cyc, j)].get(k, 0) >> x & 1)
        step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
        cuts.add(step.absent_edge)
        owns = cycle_node_states(tree, states, cyc)
        joined, chains = fold_configuration(
            alg, step, owns, states[(v, i - 1)], alg.join_states
        )
        for n in range(len(chains) - 1, -1, -1):
            join_edge, positions, chain = chains[n]
            key, chain_key = split(joined[n], chain[-1], key, join_edge)
            for t in range(len(chain) - 1, 0, -1):
                node, below = cyc.path[positions[t]], cyc.path[positions[t - 1]]
                own_key, chain_key = split(
                    owns[positions[t]], chain[t - 1], chain_key, edge_key(node, below)
                )
                stack.append((full(node), own_key))
            stack.append((full(cyc.path[positions[0]]), chain_key))
        stack.append(((v, i - 1), key))
    return cuts


def collect_cuts(state: dict, key) -> set:
    """Walk tuple records from ``state[key]`` and gather the cut edges.

    Shared by the recorded algebras (the optimisation variants' and
    ``TupleAlgebra``), whose records all have the same shape.  The absent
    edge of a cycle configuration is always included; when the whole
    cycle ends up in one cluster it is harmless and disappears during
    canonicalisation.
    """
    cuts: set = set()
    stack = [(state, key)]
    while stack:
        st, k = stack.pop()
        _aux, rec = st[k]
        tag = rec[0]
        if tag == "leaf":
            continue
        if tag == "step":
            _, branch, a_st, a_key, b_st, b_key, edge = rec
            if branch == "cut":
                cuts.add(edge)
            stack.append((a_st, a_key))
            stack.append((b_st, b_key))
        elif tag == "cfg":
            _, _j, absent, inner_st, inner_key = rec
            cuts.add(absent)
            stack.append((inner_st, inner_key))
        elif tag in ("lift", "strip"):
            _, inner_st, inner_key = rec
            stack.append((inner_st, inner_key))
        else:  # pragma: no cover - record shapes are fixed at build time
            raise WitnessNotFoundError(f"unknown record {tag!r}")
    return cuts


def _raw_intervals(a: dict, b: dict, k: int, lo: int, hi: int, lower: int, upper: int):
    """Raw intervals at count ``k`` of ``combine(a, b)`` starting in ``[lo, hi]``.

    These are the members of the merge group of a stored interval
    ``[lo, hi]``.  Returns ``[((lo, hi), pairs), ...]`` in ``(lo, hi)``
    order, where ``pairs`` lists the ``(cut, k1, a_iv, k2, b_iv)`` that
    produce the raw interval: child count ascending, then child interval,
    the cut before the merge.
    """
    found: dict = {}
    hi = min(hi, upper)
    for k2, ivs_b in b.items():
        if k2 > k:
            break  # states are count-ascending
        cut_a = a.get(k - k2, ())
        merge_a = a.get(k - k2 + 1, ())
        for b_iv in ivs_b:
            b_lo, b_hi = b_iv
            if cut_a and b_lo <= upper and b_hi >= lower:
                for a_iv in cut_a:
                    if lo <= a_iv[0] <= hi:
                        found.setdefault(a_iv, []).append((True, k - k2, a_iv, k2, b_iv))
            for a_iv in merge_a:
                x = a_iv[0] + b_lo
                if lo <= x <= hi:
                    found.setdefault((x, a_iv[1] + b_hi), []).append(
                        (False, k - k2 + 1, a_iv, k2, b_iv)
                    )
    return sorted(found.items())


def _cut_edges(cuts) -> set:
    """Flatten a cut tree ``(edge or None, left, right)`` into a set of edges."""
    out: set = set()
    stack = [cuts]
    while stack:
        node = stack.pop()
        if node is not None:
            edge, left, right = node
            if edge is not None:
                out.add(edge)
            stack += (left, right)
    return out


class _IntervalWalk:
    """Depth-first search for an interval witness, recomputing its records.

    A context names the state an interval lives in, told apart by length:
    ``(v, i)`` for the tree's partial states, ``(start, j, n)`` for the
    start node's state after configuration ``j`` of the cycle at tree
    context ``start`` has joined ``n`` chains (``n`` None: all of them,
    the configuration's state), and ``(start, j, n, t)`` for chain ``n``
    of that configuration folded up to its ``t``-th node.  Contexts that
    alias a tree state (a chain's bottom, the start state before any
    join) are named by the tree context.
    """

    def __init__(self, run: AnnotatedRun):
        tree = run.tree
        self.tree = tree
        self.states = run.states
        self.configs = run.configs
        self.lower, self.upper = run.params.lower, run.params.upper
        self.full = {v: (v, tree.full_index(v)) for v in tree.children}
        self.alg = IntervalAlgebra(run.graph, run.params)
        # keyed by the cycle's start context: a CycleRecord hashes its path
        self._cycle_configs: dict = {}  # start context -> states of configurations 1..m-1
        self._folds: dict = {}  # (start context, j) -> (cycle, joined, chains)
        self._done: dict = {}  # completed clusters: (context, k, lo, hi) -> result

    @staticmethod
    def first(frame):
        """The first ``(x, cuts)`` a frame yields, or None.

        Frames are iterators.  A frame that searches is a generator: it
        yields a child frame to ask for the child's next realisation and
        is sent it (or None once the child is exhausted), and it yields a
        tuple to hand a realisation to the frame that asked.  Driving them
        from one stack keeps the search off the interpreter's call stack.
        """
        stack = [frame]
        sent = None
        while stack:
            top = stack[-1]
            try:
                out = next(top) if sent is None else top.send(sent)
            except StopIteration:
                stack.pop()
                sent = None
                continue
            if type(out) is tuple:
                stack.pop()
                sent = out
            else:
                stack.append(out)
                sent = None
        return sent

    def _fold(self, start, j):
        """``(cycle, joined, chains)`` of configuration ``j`` at ``start``."""
        folded = self._folds.get((start, j))
        if folded is None:
            cyc = self.tree.cycle_at[start]
            step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
            owns = cycle_node_states(self.tree, self.states, cyc)
            v, i = start
            folded = (cyc,) + fold_configuration(
                self.alg, step, owns, self.states[(v, i - 1)], self.alg.join_states
            )
            self._folds[(start, j)] = folded
        return folded

    def _parts(self, ctx):
        """``(a_ctx, a, b_ctx, b, edge)`` of the combination that made ``ctx``."""
        if len(ctx) == 2:
            v, i = ctx
            child = self.full[self.tree.children[v][i - 1]]
            edge = edge_key(v, child[0])
            return (v, i - 1), self.states[(v, i - 1)], child, self.states[child], edge
        start, j, n = ctx[:3]
        cyc, joined, chains = self._fold(start, j)
        if len(ctx) == 3:  # chain c's top joined into the start state
            c = len(chains) - 1 if n is None else n - 1
            edge, positions, chain = chains[c]
            a_ctx = (start[0], start[1] - 1) if c == 0 else (start, j, c)
            a, t = joined[c], len(chain)
        else:  # the t-th node of chain c joined to the chain below it
            c, t = n, ctx[3]
            _edge, positions, chain = chains[c]
            node = cyc.path[positions[t]]
            a_ctx = self.full[node]
            a = self.states[a_ctx]
            edge = edge_key(node, cyc.path[positions[t - 1]])
        b_ctx = self.full[cyc.path[positions[0]]] if t == 1 else (start, j, c, t - 1)
        return a_ctx, a, b_ctx, chain[t - 1], edge

    def frame(self, ctx, k, e_lo, e_hi, lo, hi):
        """Iterator over the ``(x, cuts)`` realisations in ``[lo, hi]`` of
        interval ``[e_lo, e_hi]`` at count ``k`` of the state at ``ctx``.

        ``cuts`` is a cut tree for :func:`_cut_edges`.
        """
        if lo > hi or e_lo > hi or e_hi < lo:
            return iter(())
        if len(ctx) == 2:
            if ctx[1] == 0:
                x = self.tree.graph.weight[ctx[0]]
                return iter(((x, None),) if lo <= x <= hi else ())
            if ctx in self.tree.cycle_at:
                return self._union(ctx, k, e_lo, e_hi, lo, hi)
        return self._combination(ctx, k, e_lo, e_hi, lo, hi)

    def _combination(self, ctx, k, e_lo, e_hi, lo, hi):
        a_ctx, a, b_ctx, b, edge = self._parts(ctx)
        lower, upper, done_memo = self.lower, self.upper, self._done
        for (r_lo, r_hi), pairs in _raw_intervals(a, b, k, e_lo, e_hi, lower, upper):
            if r_lo > hi or r_hi < lo:
                continue
            for cut, k1, (a_lo, a_hi), k2, (b_lo, b_hi) in pairs:
                if cut:
                    key = (b_ctx, k2, b_lo, b_hi)
                    if key in done_memo:
                        done = done_memo[key]
                    else:
                        done = yield self.frame(b_ctx, k2, b_lo, b_hi, lower, upper)
                        done_memo[key] = done
                    if done is None:
                        continue
                    child = self.frame(a_ctx, k1, a_lo, a_hi, lo, hi)
                    while (got := (yield child)) is not None:
                        yield (got[0], (edge, got[1], done[1]))
                else:
                    a_side = self.frame(a_ctx, k1, a_lo, a_hi, max(0, lo - b_hi), hi - b_lo)
                    while (got_a := (yield a_side)) is not None:
                        ax = got_a[0]
                        b_side = self.frame(b_ctx, k2, b_lo, b_hi, max(0, lo - ax), hi - ax)
                        while (got_b := (yield b_side)) is not None:
                            yield (ax + got_b[0], (None, got_a[1], got_b[1]))

    def _union(self, start, k, e_lo, e_hi, lo, hi):
        cyc = self.tree.cycle_at[start]
        configs = self._cycle_configs.get(start)
        if configs is None:
            configs = [self.configs[(cyc, j)] for j in range(1, cyc.length)]
            self._cycle_configs[start] = configs
        found: dict = {}
        for j, state in enumerate(configs, start=1):
            for iv in state.get(k, ()):
                if e_lo <= iv[0] <= e_hi:
                    found.setdefault(iv, []).append(j)
        for (r_lo, r_hi), js in sorted(found.items()):
            if r_lo > hi or r_hi < lo:
                continue
            for j in js:
                absent = absent_cycle_edge(cyc, j)
                child = self.frame((start, j, None), k, r_lo, r_hi, lo, hi)
                while (got := (yield child)) is not None:
                    yield (got[0], (absent, got[1], None))


def reconstruct(run: AnnotatedRun, target=None) -> Partition:
    """Rebuild a partition from an annotated run.

    For the tuple solver ``target`` is a ``(weight, count)`` pair from the
    root set (defaulting to the feasible tuple with the smallest weight).
    For the interval solver it is an ``(low, high, count)`` triple of a
    stored root interval meeting the weight window (same default rule).
    Raises :class:`WitnessNotFoundError` when no target qualifies; for a
    feasible instance that indicates a solver bug.
    """
    params = run.params
    if run.algorithm == "tupleset":
        key = target
        if key is None:
            options = sorted(
                (x, k)
                for (x, k) in run.root_state
                if k == params.num_clusters and params.lower <= x <= params.upper
            )
            key = options[0] if options else None
        if key is None or key not in run.root_state:
            raise WitnessNotFoundError("no feasible root tuple to reconstruct")
        return canonicalize_partition(run.graph, _mask_witness_cuts(run, key))

    entries = run.root_state.get(params.num_clusters, ())
    if target is not None:
        lo, hi, _k = target
        entries = [e for e in entries if (e.lo, e.hi) == (lo, hi)]
    walk = _IntervalWalk(run)
    root_ctx = (run.tree.root, run.tree.full_index(run.tree.root))
    for entry in sorted(entries):
        if not entry.intersects(params.lower, params.upper):
            continue
        found = walk.first(walk.frame(
            root_ctx, params.num_clusters, entry.lo, entry.hi, params.lower, params.upper
        ))
        if found is not None:
            return canonicalize_partition(run.graph, _cut_edges(found[1]))
    raise WitnessNotFoundError("no feasible root interval to reconstruct")
