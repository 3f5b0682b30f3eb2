"""Rebuild actual partitions from annotated solver runs.

Reconstruction walks a solver run from the root downwards and collects
the edges cut along the way; deleting the collected edges from the graph
yields the clusters.  A task of one cluster ends its descent in both
walks: its whole partial subtree is the root cluster, so no edge below it
is cut.  (A cycle inside it would give its absent edge, which
``canonicalize_partition`` drops, as both ends lie in one cluster.)

``annotate`` keeps every partial state of the run, each cycle
configuration's state and, for the configurations a walk may enter, the
joined and chain states folded inside it.  Which those are is decided as
each configuration is folded (``_mask_entered``, ``_interval_entered``),
so the states of the others are freed at once.  No walk enters a cycle at
count 1, so the rules look at two or more clusters only.  The walks name
states by the contexts of :class:`~.dp_core.ContextMap`, which hands out
the two states and the edge each was combined from, so a walk combines
nothing.  States under a count cap above the walk's count (min / max use
the vertex count) serve it as they are: entries up to a count do not
depend on the cap.

The tuple-set engine keeps no records.  Its bitmask states are exact, so
any split of a stored tuple into achievable parts extends to a valid
partition, and the witness is read straight out of the states: at every
context the walk splits the tuple into a parent tuple, a child tuple and
a branch (cut or merge) with bit tests over the set bits of the child
state, and at a cycle it enters the lowest configuration holding the
tuple.  The split follows the order of ``TupleAlgebra``'s records
(smallest child tuple, then smallest parent tuple), so witnesses are the
same as a recorded run would give.  The walk keeps an explicit stack, so
the interpreter's recursion limit does not bound the depth of the tree.

The interval engine keeps no records either, and its states are
compressed, so the walk keeps a window of weights that would still
complete a valid partition and, at each context, takes the first
combination that produced the interval it needs and meets the window,
recomputed there: the lowest raw interval of the merge group, in ``(lo,
hi)`` order, and its first producing pair of parent and child intervals
(child count ascending, then child interval, cut before merge), or at a
cycle's start the lowest ``(interval, j)`` of the configurations.  The
walk only descends, and it adds a cycle's absent edge and a cut's edge
to the cut set as it picks them.  A cut child's cluster gets the window
``[lower, upper]`` and is walked on its own, as nothing above reads its
weight; the parent side goes on in place.  In a merge with child interval
``[b, b']`` the parent side gets ``[lo - b', hi - b]`` and, once its
weight x is fixed, the child side ``[lo - x, hi - x]`` (both clipped at
0), so a merge alone waits for a weight.  A run at count 1 is one weight,
its lower endpoint: a task at count 1 weighs ``e_lo``, which must lie in
its window, and a merge's one-cluster parent side weighs ``a_lo`` with
no task of its own.  A choice depends only on the task it is made for,
and only a merge's child window on a weight realised before it, so the
cut set is that of the first solution of a depth-first search in that
order, the one a recorded interval algebra's records give, found without
backing up.  Every window is ``[lower, upper]``, or another window
shifted or widened and then clipped at 0, so it is at least ``gap`` wide
or starts at 0.  The raw intervals of a merge group step at most ``gap``
apart from its lower end to its upper end, so a stored interval meeting
such a window has a raw interval meeting it, and the first one's parent
and child intervals meet the windows set for them; down to the tasks of
one cluster, whose one weight then meets its window, the first candidate
always has a realisation.  A state that breaks this raises
:class:`WitnessNotFoundError`.
"""

from __future__ import annotations

from collections import namedtuple

from .dp_core import (
    ContextMap,
    MaskAlgebra,
    ProblemParams,
    _check_leaf_weights,
    _mask_state_to_set,
    _prepare,
    _record_cells,
    run_tree_dp,
)
from .errors import WitnessNotFoundError
from .graph_model import CactusGraph, Partition, canonicalize_partition
from .interval_dp import IEntry, IntervalAlgebra
from .tree_rep import CactusTree, absent_cycle_edge, as_tree


class AnnotatedRun(namedtuple(
    "AnnotatedRun", "tree params algorithm states root_state folds"
)):
    """A solver run kept for backtracking, immutable.

    ``states`` holds every partial state (bitmasks or plain intervals),
    ``folds`` per cycle start its configurations' states and the folds a
    walk may enter (:class:`ContextMap`), and ``root_state`` the root's
    ``(x, k)`` tuples or, per count, its :class:`IEntry` intervals.  The
    states may come from a count cap above ``params.num_clusters``: min /
    max ``_replace`` the count they walk at.
    """

    __slots__ = ()

    @property
    def graph(self) -> CactusGraph:
        return self.tree.graph

    def feasible_counts(self) -> set[int]:
        """Cluster counts whose root entries meet ``[lower, upper]``."""
        lower, upper = self.params.lower, self.params.upper
        if self.algorithm == "interval":
            return {k for k, entries in self.root_state.items()
                    if any(e.intersects(lower, upper) for e in entries)}
        return {k for (x, k) in self.root_state if lower <= x <= upper}


def _engine(algorithm: str):
    """The algebra of engine ``algorithm`` ("tupleset" or "interval") and
    its walk's rule for the configurations it may enter."""
    if algorithm == "tupleset":
        return MaskAlgebra, _mask_entered
    if algorithm == "interval":
        return IntervalAlgebra, _interval_entered
    raise ValueError(f"unknown algorithm {algorithm!r}")


def annotate(
    graph: CactusGraph | CactusTree,
    params: ProblemParams,
    algorithm: str = "tupleset",
    root: str | None = None,
) -> AnnotatedRun:
    """Run the tuple-set or the interval engine (``algorithm``) and keep
    what :func:`reconstruct` needs.  An unknown ``algorithm`` raises
    ``ValueError`` before anything else is checked."""
    rule = _engine(algorithm)[1]
    tree = as_tree(graph, root)
    _check_leaf_weights(tree.graph, params)
    folds = {}
    return _run(tree, params, algorithm, _keeper(rule, folds), folds)


def _run(tree, params, algorithm, fold_sink=None, folds=None) -> AnnotatedRun:
    """The run of engine ``algorithm`` over ``tree``, with the folds
    ``fold_sink`` keeps in ``folds``: :func:`annotate`'s, or with neither
    a run that no walk reads (the CLI's decide), which keeps no fold."""
    states = run_tree_dp(tree, _engine(algorithm)[0](tree.graph, params), fold_sink=fold_sink)
    root = states[(tree.root, tree.full_index(tree.root))]
    root_state = _mask_state_to_set(root) if algorithm == "tupleset" else {
        k: tuple(IEntry(lo, hi) for lo, hi in ivs) for k, ivs in root.items()}
    return AnnotatedRun(tree, params, algorithm, states, root_state, folds)


def _walk_count(source, lower, upper, num_clusters=None, root=None, algorithm="interval",
                stats=None, pick=None, witness=True):
    """Run ``algorithm`` once and walk the witness at one feasible count:
    the one ``pick`` (``min`` or ``max``, for min / max) takes from the
    root's feasible counts, or with ``pick`` None the ``num_clusters``
    requested (the CLI's decide and solve).

    Returns ``(count, partition)``, the count None when it was requested
    and the partition None without ``witness``, or None when that count is
    not feasible.  ``stats`` gets ``dp_cells`` and an early ``reason``.
    """
    _engine(algorithm)  # an unknown engine is an error, also when answered early
    tree, params, reason = _prepare(source, root, lower, upper, num_clusters, stats=stats)
    if reason:
        return None
    run = annotate(tree, params, algorithm) if witness else _run(tree, params, algorithm)
    _record_cells(stats, run.states, algorithm)
    feasible = run.feasible_counts()
    count = params.num_clusters if pick is None else pick(feasible, default=None)
    if count not in feasible:
        return None
    # the count-cap-n states hold every smaller count's states unchanged
    partition = reconstruct(run._replace(params=params._replace(num_clusters=count))) if witness else None
    return (None if pick is None else count), partition


def _keeper(rule, folds: dict):
    """A ``fold_sink`` for :func:`run_tree_dp` that fills ``folds`` for a
    :class:`ContextMap`: every configuration's state, and the fold of
    those a walk may enter.  ``rule()`` gives a function that sees a
    cycle's configuration states in order of ``j`` and says which."""
    def open_cycle(start):
        states, kept = folds[start] = [], []
        may_enter = rule()

        def keep(state, chains):
            states.append(state)
            kept.append(chains if may_enter(state) else None)
        return keep
    return open_cycle


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
    tree = run.tree
    window = MaskAlgebra(tree.graph, run.params).window_mask
    contexts = ContextMap(tree, run.states, run.folds)
    cuts: set = set()
    stack = [(contexts.full(tree.root), key)]
    while stack:
        ctx, key = stack.pop()
        if key[1] == 1:  # one cluster: no edge below it is cut
            continue
        if len(ctx) == 2:
            cyc = tree.cycle_at.get(ctx)
            if cyc is not None:  # the lowest configuration holding the tuple
                x, k = key
                j = next(j for j, st in contexts.config_states(ctx) if st.get(k, 0) >> x & 1)
                cuts.add(absent_cycle_edge(cyc, j))
                stack.append(((ctx, j, None), key))
                continue
        a_ctx, a, b_ctx, b, edge = contexts.parts(ctx)
        a_key, b_key, cut = _split(a, b, *key, window)
        if cut:
            cuts.add(edge)
        stack += [(a_ctx, a_key), (b_ctx, b_key)]
    return cuts


def _mask_entered():
    """The tuple-set walk enters the lowest configuration holding its
    tuple, at two or more clusters: true for a configuration holding such
    a tuple that no lower one holds."""
    seen: dict = {}

    def holds_new(state):
        new = False
        for k, mask in state.items():
            if k > 1 and mask & ~seen.get(k, 0):
                seen[k] = seen.get(k, 0) | mask
                new = True
        return new
    return holds_new


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


def _first_candidate(a, b, k, e_lo, e_hi, lo, hi, lower, upper):
    """``(cut, k1, a_iv, k2, b_iv)``, the combination the walk takes at
    count ``k`` of ``combine(a, b)``: of the lowest raw interval in the
    merge group of stored interval ``[e_lo, e_hi]`` meeting the window
    ``[lo, hi]``, the first pair of parent and child intervals making it;
    None if there is none."""
    best = None
    top = min(e_hi, upper, hi)
    for k2, ivs_b in b.items():
        if k2 > k:
            break  # states are count-ascending
        cut_a = a.get(k - k2, ())
        merge_a = a.get(k - k2 + 1, ())
        for b_iv in ivs_b:  # per child interval, a's runs ascend: the first fit is its lowest
            b_lo, b_hi = b_iv
            if cut_a and b_lo <= upper and b_hi >= lower:
                for a_iv in cut_a:
                    if e_lo <= a_iv[0] <= top and a_iv[1] >= lo:
                        if best is None or a_iv < best[0]:
                            best = (a_iv, (True, k - k2, a_iv, k2, b_iv))
                        break
            for a_iv in merge_a:
                x = a_iv[0] + b_lo
                if e_lo <= x <= top and a_iv[1] + b_hi >= lo:
                    raw = (x, a_iv[1] + b_hi)
                    if best is None or raw < best[0]:
                        best = (raw, (False, k - k2 + 1, a_iv, k2, b_iv))
                    break
    return best and best[1]


def _interval_entered():
    """The interval walk enters the first ``(interval, j)`` meeting its
    window in a merge group, at two or more clusters: false for a
    configuration each of whose intervals ``[lo, hi]`` at such a count a
    lower one holds too, or covers with ``[lo', hi']``, ``lo' < lo <= hi
    <= hi'``.  That one comes first, in the same group, and meets every
    window ``[lo, hi]`` meets."""
    seen: dict = {}

    def holds_new(state):
        new = False
        for k, ivs in state.items():
            if k == 1:
                continue
            held = seen.get(k)
            if held is None:
                seen[k], new = set(ivs), True
            elif not held.issuperset(ivs):
                new = new or any(iv not in held and not any(a < iv[0] and b >= iv[1] for a, b in held)
                                 for iv in ivs)
                held.update(ivs)
        return new
    return holds_new


def _interval_witness(run: AnnotatedRun, task) -> set:
    """The cut edges of a partition realising ``task`` ``(ctx, k, e_lo,
    e_hi, lo, hi)``, a weight in ``[lo, hi]`` of stored interval ``[e_lo,
    e_hi]`` at count ``k`` of the state at ``ctx``: the first in the
    walk's order (module docstring)."""
    tree, params = run.tree, run.params
    cycle_at, lower, upper = tree.cycle_at, params.lower, params.upper
    contexts = ContextMap(tree, run.states, run.folds)
    cuts: set = set()
    clusters: list = []  # the tasks of cut-off clusters, whose weights nothing reads
    frames: list = []  # per merge under way: the weight to add, or the child side's task
    while True:
        ctx, k, e_lo, e_hi, lo, hi = task
        if k == 1:  # one cluster, so one weight, e_lo: no edge below it is cut
            found = lo <= e_lo <= hi
            if found:
                x = e_lo
                while frames and type(frames[-1]) is int:
                    x += frames.pop()
                if frames:  # a merge's parent side weighs x: that fixes the child side's window
                    b_ctx, k2, b_lo, b_hi, m_lo, m_hi = frames.pop()
                    frames.append(x)
                    task = (b_ctx, k2, b_lo, b_hi, max(0, m_lo - x), m_hi - x)
                elif clusters:
                    task = clusters.pop()
                else:
                    return cuts
        elif len(ctx) == 2 and ctx in cycle_at:
            found = min(((iv, j) for j, state in contexts.config_states(ctx) for iv in state.get(k, ())
                         if e_lo <= iv[0] <= min(e_hi, hi) and iv[1] >= lo), default=None)
            if found:
                (r_lo, r_hi), j = found
                cuts.add(absent_cycle_edge(cycle_at[ctx], j))
                task = ((ctx, j, None), k, r_lo, r_hi, lo, hi)
        else:
            a_ctx, a, b_ctx, b, edge = contexts.parts(ctx)
            found = _first_candidate(a, b, k, e_lo, e_hi, lo, hi, lower, upper)
            if found:
                cut, k1, (a_lo, a_hi), k2, (b_lo, b_hi) = found
                if cut:  # the child's cluster on its own; the parent side goes on here
                    cuts.add(edge)
                    clusters.append((b_ctx, k2, b_lo, b_hi, lower, upper))
                    task = (a_ctx, k1, a_lo, a_hi, lo, hi)
                elif k1 == 1:  # a one-cluster parent side weighs a_lo
                    frames.append(a_lo)
                    task = (b_ctx, k2, b_lo, b_hi, max(0, lo - a_lo), hi - a_lo)
                else:
                    frames.append((b_ctx, k2, b_lo, b_hi, lo, hi))
                    task = (a_ctx, k1, a_lo, a_hi, max(0, lo - b_hi), hi - b_lo)
        if not found:
            raise WitnessNotFoundError(f"interval {(e_lo, e_hi)!r} at {ctx!r} has no realisation "
                                       f"in [{lo}, {hi}]: the state breaks the endpoint contract")


def reconstruct(run: AnnotatedRun, target=None) -> Partition:
    """Rebuild a partition from an annotated run.

    For the tuple solver ``target`` is a ``(weight, count)`` pair from the
    root set (defaulting to the feasible tuple with the smallest weight).
    For the interval solver it is an ``(low, high, count)`` triple of a
    stored root interval meeting the weight window, at any count the run
    stored (same default rule).
    Raises ``ValueError`` for a target of the other engine's shape, and
    :class:`WitnessNotFoundError` when no target qualifies; for a feasible
    instance that indicates a solver bug.
    """
    params = run.params
    size, form = ((2, "a tuple-set run's target is a (weight, count) pair") if run.algorithm == "tupleset"
                  else (3, "an interval run's target is a (low, high, count) triple"))
    if target is not None and len(target) != size:
        raise ValueError(f"{form}, got {target!r}")
    if run.algorithm == "tupleset":
        key = target if target is not None else min(
            ((x, k) for x, k in run.root_state
             if k == params.num_clusters and params.lower <= x <= params.upper), default=None)
        if key is None or key not in run.root_state:
            raise WitnessNotFoundError("no feasible root tuple to reconstruct")
        cuts = _mask_witness_cuts(run, key)
    else:
        t_lo, t_hi, k = (None, None, params.num_clusters) if target is None else target
        root = min((iv for iv in run.root_state.get(k, ()) if (target is None or iv == (t_lo, t_hi))
                    and iv.lo <= params.upper and iv.hi >= params.lower), default=None)
        if root is None:
            raise WitnessNotFoundError("no feasible root interval to reconstruct")
        root_ctx = (run.tree.root, run.tree.full_index(run.tree.root))
        cuts = _interval_witness(run, (root_ctx, k, *root, params.lower, params.upper))
    return canonicalize_partition(run.graph, cuts)
