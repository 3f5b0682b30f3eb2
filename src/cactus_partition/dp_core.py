"""Bottom-up tuple-set dynamic program for fixed-count partitions.

The solver walks the rooted cactus tree from the leaves up, maintaining
for every partial subtree the set of pairs ``(x, k)``: there is a
partition of the subtree into ``k`` connected clusters where every
cluster except the one containing the subtree root fits the weight window
``[lower, upper]`` and the root cluster weighs ``x`` (at most ``upper``).
Such partitions are *extendable*: the root cluster may still grow.

Two subtree sets A (around the root ``v``) and B (a child subtree) are
combined edge by edge:

* keep the child cluster separate, which requires its weight to reach the
  lower bound, giving ``(x1, k1 + k2)``; the connecting edge is cut, or
* merge the two root clusters into ``(x1 + x2, k1 + k2 - 1)`` provided
  the sum stays within the upper bound.

Cycles need extra care because a cycle can be cut anywhere.  A cycle path
of m nodes is evaluated in m-1 *configurations*: configuration 1 is the
tree as built, and configuration j >= 2 removes the tree edge between the
path nodes at positions m-j and m-j+1 while re-attaching the lower part
of the path (reversed) underneath the start node through the closing
edge.  So configuration j lacks cycle edge j, counted from the start
node backwards: edge 1 is the closing edge, edge j >= 2 joins positions
m-j and m-j+1, and it holds exactly the partitions that cut that edge
or no cycle edge at all.

A partition that cuts the cycle cuts at least two of its edges.  Edges
1..J join the arc of the start node and path nodes m-1, ..., m-J, and
each bound can show that every partition cuts one of them, and so shows
up in one of configurations 1..J:

* upper: no cluster of two or more vertices, open or closed, weighs more
  than ``upper`` (merges check it).  Once the arc weighs more than
  ``upper``, no cluster holds all of it.
* lower: a partition cutting none of edges 1..J makes all its cuts on the
  path from the start node through node m-J.  Two such cuts close a
  cluster inside path nodes 1..m-J-1 and what hangs below them.  That
  cluster is not the start node's, so it must reach ``lower``: every
  cut branch checks it (the mask and interval windows, ``x2 >= lower``
  in the dict algebras).  Once those nodes and all below them weigh less
  than ``lower``, no such cluster exists.

The subtree set at the start node is the union of configurations 1..J,
J the first index at which either bound holds, or m-1 when neither does
(:func:`cycle_cutoff`).  A cycle then costs O(m * J) combines instead of
(m - 1)^2, folded in one pass (:func:`_fold_configurations`) that sets
up the path edges once and skips ``lift``/``strip`` for algebras whose
states ignore the configuration.  A partition in a configuration past J
is also in one of 1..J, with the same aux (cost, weight or capacity), so
the lowest configuration holding a key with its best aux lies in 1..J:
the tuple-set and dict-variant witnesses, which come from that
configuration, do not change.  The interval engine's stored upper
endpoints above ``upper`` may, and so may the witnesses of its walk,
which tries the intervals of every configuration.  The algebras name
what their window bounds in ``arc_limit``: ``(per-vertex quantity,
lower, upper)``, sizes for the size-weight algebra and vertex weights
for the others.

The same traversal drives several payload algebras: a bitmask algebra for
the tuple-set engine and the cost / size / capacity algebras of the
optimisation variants.  The bitmask and interval states keep no records:
``backtrack`` reads a witness out of them by walking the tree top-down.
:class:`ContextMap` is the one inverse of the traversal that both walks
use: it names every partial state, including the joined states and chain
states inside a cycle configuration, which ``annotate``'s run keeps for
the configurations a walk may enter, and hands out the two states and
the edge each was combined from.  ``TupleAlgebra``, a recorded algebra
whose entries remember one witness combination each, stays here as the
reference the tests compare the tuple-set witnesses with.  Every entry
point that may answer without the DP starts with :func:`_prepare`:
parameters, root, the reasons of :func:`trivially_infeasible` (such as
a total weight no ``p`` clusters in the window can make), then a tree.

The deciders read the root's state alone, so their runs keep only the
DP frontier, and a decide's memory follows that frontier, not the tree
(:func:`run_tree_dp`).  ``annotate``, the variants and
``interval_subtree_sets`` keep every partial state.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidParamsError, WeightExceedsUpperError, WitnessNotFoundError
from .graph_model import CactusGraph, edge_key
from .tree_rep import CactusTree, as_tree, graph_of


class ProblemParams(namedtuple("ProblemParams", "lower upper num_clusters")):
    """Parameters of a fixed-count partition problem.

    ``lower``/``upper`` bound every cluster weight and ``num_clusters``
    is the exact number of clusters requested.  ``gap`` (upper - lower)
    drives the interval compression of the polynomial solver.
    """

    __slots__ = ()

    def __new__(cls, lower: int, upper: int, num_clusters: int):
        for name, value in (("lower", lower), ("upper", upper), ("num_clusters", num_clusters)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
        if lower < 0 or upper < 0:
            raise InvalidParamsError("weight bounds must be non-negative")
        if lower > upper:
            raise InvalidParamsError(f"lower bound {lower} exceeds upper bound {upper}")
        if num_clusters < 1:
            raise InvalidParamsError("cluster count must be positive")
        return super().__new__(cls, lower, upper, num_clusters)

    @property
    def gap(self) -> int:
        return self.upper - self.lower


class CycleStep(namedtuple("CycleStep", "cycle j absent_edge")):
    """Context of one cycle configuration while folding its path."""

    __slots__ = ()


def trivially_infeasible(graph: CactusGraph, params: ProblemParams) -> str | None:
    """Why no partition into exactly ``p`` clusters exists, or None, from
    four checks: ``p`` exceeds the vertex count, a vertex outweighs
    ``upper``, ``p * lower > W`` or ``p * upper < W`` (``W`` the total
    weight).  The last two need an exact count: :func:`_prepare`, which
    runs these checks for every entry point, drops them where ``p`` is a
    cap."""
    return _infeasible(graph, "weight", params, exact=True)


def _infeasible(graph: CactusGraph, quantity: str, params: ProblemParams, exact: bool) -> str | None:
    """:func:`trivially_infeasible` over the vertices' ``quantity``
    ("weight" or "size"), the sum bounds only with an ``exact`` count."""
    values = getattr(graph, quantity).values()
    p = params.num_clusters
    if p > graph.num_vertices:
        return "more clusters requested than vertices"
    if max(values) > params.upper:
        return f"a vertex {quantity} exceeds the upper bound"
    if exact:
        total = sum(values)
        if p * params.lower > total:
            return f"the clusters' lower bounds add up to more than the total {quantity}"
        if p * params.upper < total:
            return f"the clusters' upper bounds add up to less than the total {quantity}"
    return None


def _prepare(source, root, lower, upper, num_clusters=None, quantity="weight", stats=None):
    """Check the parameters, then ``root``, then the reasons of
    :func:`trivially_infeasible` over the vertices' ``quantity`` ("size"
    for minmax/maxmin), and build the tree only when none applies.

    With ``num_clusters`` None the vertex count is a cap, which ``params``
    carries, and only a vertex above ``upper`` answers early: the sum
    bounds need an exact count.  Returns ``(tree, params, reason)``, the
    tree None when there is a reason, which also goes to
    ``stats["reason"]`` when ``stats`` is a dict.  ``annotate`` and
    ``interval_subtree_sets`` answer nothing early: they raise
    :class:`WeightExceedsUpperError` for a heavy vertex, and ``annotate``
    takes ``p > n``.
    """
    params = ProblemParams(lower, upper, 1 if num_clusters is None else num_clusters)
    graph = graph_of(source, root)
    if num_clusters is None:
        params = params._replace(num_clusters=graph.num_vertices)
    reason = _infeasible(graph, quantity, params, exact=num_clusters is not None)
    if reason and stats is not None:
        stats["reason"] = reason
    return None if reason else as_tree(source, root), params, reason


# ---------------------------------------------------------------------------
# shared traversal


def run_tree_dp(tree, alg, *, frontier=False, fold_sink=None):
    """Fold ``alg`` bottom-up over the tree, returning its partial states.

    The result maps ``(v, i)`` to the algebra state of the subtree made of
    ``v`` and its first ``i`` children, in postorder.  Each mode builds:

    * by default, every such state, as the witness walks, the variants
      and ``interval_subtree_sets`` need;
    * with ``frontier`` (the deciders), only the states still to be
      combined: a node's full state is dropped once its parent or its
      cycle takes it, and the result holds the root's context alone;
    * with ``fold_sink``, also the folds it keeps: it is called at each
      cycle with its tree context ``(v, i)`` and returns the ``keep``
      that :func:`_fold_configurations` hands each configuration
      ``1..cycle_cutoff(alg, cycle)``.  Without it, a fold builds no
      chain state but the one it is folding.

    Every mode makes the same ``combine`` and ``union_configs`` calls.
    When the tree has cycles, the loop also sums each node's full subtree
    in the quantity of ``alg.arc_limit``, the cycles starting at the node
    included, for :func:`cycle_cutoff`; a sum is dropped when its node's
    state is taken.
    """
    sets, full = {}, {}  # full: v's full subtree state, until it is combined
    take = full.pop if frontier else full.__getitem__
    cycle_at, on_cycle_child, combine = tree.cycle_at, tree.on_cycle_child, alg.combine
    quantity = alg.arc_limit[0] if cycle_at else None
    below = {}  # below[v]: v's full subtree in ``quantity``, until it is combined
    take_below = below.pop
    for v in tree.postorder():
        state = alg.base(v)
        kids = tree.children[v]
        if v in on_cycle_child:  # that last child joins at its cycle's start node instead
            kids = kids[:-1]
        if quantity is not None:
            total = quantity[v]
        for idx, child in enumerate(kids, start=1):
            if not frontier:
                sets[(v, idx - 1)] = state
            cyc = cycle_at.get((v, idx)) if cycle_at else None
            if cyc is not None:  # the union of configurations 1..J
                owns = [None, *map(take, cyc.path[1:])]
                hang = [0, *map(take_below, cyc.path[1:])]
                total += sum(hang)
                keep = None if fold_sink is None else fold_sink((v, idx))
                js = range(1, cycle_cutoff(alg, cyc, hang) + 1)
                state = alg.union_configs(_fold_configurations(alg, cyc, js, owns, state, keep), cyc)
            else:  # the edge is edge_key(v, child)
                state = combine(state, take(child), (v, child) if v <= child else (child, v), None)
                if quantity is not None:
                    total += take_below(child)
        full[v] = state
        if quantity is not None:
            below[v] = total
        if not frontier:
            sets[(v, len(kids))] = state
    return {(tree.root, tree.full_index(tree.root)): full[tree.root]} if frontier else sets


def cycle_cutoff(alg, cyc, hang):
    """Number J of configurations whose union is the cycle's state.

    J is the smaller of two indices, in the quantity ``alg.arc_limit``
    names (see the module docstring):

    * the first j at which the start node and path nodes m-1, ..., m-j
      together weigh more than the upper bound;
    * the first j >= 1 at which path nodes 1, ..., m-j-1, with all that
      hangs below them, weigh less than the lower bound;

    and m-1 when neither exists.  ``hang[i]`` is the quantity of path node
    i and all that hangs below it, the cycles starting at it included
    (``hang[0]`` is not read).
    """
    quantity, lower, upper = alg.arc_limit
    ws = cyc.path
    m = len(ws)
    limit = m - 1
    rest = 0  # path nodes 1..t and what hangs below them
    for t in range(1, m - 1):
        rest += hang[t]
        if rest >= lower:
            break
        limit = m - 1 - t
    arc = quantity[ws[0]]
    for j in range(1, limit):
        arc += quantity[ws[m - j]]
        if arc > upper:
            return j
    return limit


def _fold_configurations(alg, cyc, js, owns, start_state, keep=None):
    """Fold configurations ``js`` of ``cyc``: the package's one fold loop.

    In configuration j the cycle path splits in two chains, each folded
    from its deepest node upwards: the rest of the original path under the
    first path child, and (for j >= 2) the reversed tail hanging off the
    start node through the closing edge.  The chain bottoms are the two
    nodes of the absent edge; algebras that charge it (capacities) mark
    them via ``lift(..., charged=True)``.  The chain tops are then joined
    into the lifted start state, through the edge to the first path child
    and through the closing edge.  ``owns[i]`` is the full state of the
    path node at position i (None for the start node).  The chain edges
    and each configuration's absent edge come from one ``edges`` list.

    Returns ``(j, step, state)`` per configuration, its state joined and
    stripped; without ``keep`` a configuration builds nothing more.
    ``keep``, when given, gets ``(state, chains)`` as each configuration
    is folded (``state`` not yet stripped), so what it does not keep is
    freed at once.  ``chains`` is a tuple of ``(edge, positions, states,
    before)`` in joining order: ``edge`` joins the chain's top to
    ``before``, the start side's state (the lifted start state, then that
    joined with the first chain); ``positions`` are the chain's path
    positions from the bottom up, and the tuple ``states[t]`` is the
    chain folded up to ``positions[t]``.
    """
    m = len(cyc.path)
    edges = [edge_key(a, b) for a, b in zip(cyc.path, cyc.path[1:])]  # edges[i]: positions i, i + 1
    closing = cyc.closing_edge
    lifts = type(alg).lift is not IdentityLift.lift
    combine = alg.combine
    out = []
    for j in js:
        step = CycleStep(cyc, j, closing if j == 1 else edges[m - j])
        low, high = (m - 1 if j == 1 else m - j), m - j + 1  # chain bottoms; 0, m: no chain
        own, state = owns, start_state
        if lifts:
            own = [None] + [alg.lift(owns[i], step, i in (low, high)) for i in range(1, m)]
            state = alg.lift(start_state, step, j in (1, m))
        chains = [] if keep else None
        if low:  # the path under the first path child, bottom up
            top = own[low]
            states = [top] if keep else None
            for i in range(low - 1, 0, -1):
                top = combine(own[i], top, edges[i], step)
                if keep:
                    states.append(top)
            if keep:
                chains.append((edges[0], range(low, 0, -1), tuple(states), state))
            state = combine(state, top, edges[0], step)
        if high < m:  # the reversed tail off the closing edge, bottom up
            top = own[high]
            states = [top] if keep else None
            for i in range(high + 1, m):
                top = combine(own[i], top, edges[i - 1], step)
                if keep:
                    states.append(top)
            if keep:
                chains.append((closing, range(high, m), tuple(states), state))
            state = combine(state, top, closing, step)
        if keep:
            keep(state, tuple(chains))
        out.append((j, step, alg.strip(state, step) if lifts else state))
    return out


class ContextMap(namedtuple("ContextMap", "tree states folds")):
    """Every state of a finished run, named, with the parts it was combined from.

    A context is ``(v, i)`` for a tree state (the keys of
    :func:`run_tree_dp`), ``(start, j, n)`` for the start node's state
    after configuration ``j`` of the cycle at tree context ``start`` has
    joined ``n`` chains (``n`` None: all of them, the configuration's
    state), and ``(start, j, n, t)`` for chain ``n`` of that configuration
    folded up to its ``t``-th node.  Contexts that alias a tree state (a
    chain's bottom, the start state before any join) are named by the tree
    context.  :meth:`parts` inverts every context but a leaf ``(v, 0)``
    and a cycle's start, whose state is the union of
    :meth:`config_states`, the configurations 1..J the run folded
    (:func:`cycle_cutoff`).  Nothing is recomputed: ``folds`` maps each
    cycle's start context to ``(states, kept)``, lists in order of ``j``:
    the configurations' states, and the ``chains`` that
    :func:`_fold_configurations` gave for each, or None for one no walk
    enters.  ``lift`` and ``strip`` must be the identity.
    """

    __slots__ = ()

    def full(self, v):
        """The context of ``v``'s full subtree state."""
        return v, self.tree.full_index(v)

    def config_states(self, start):
        """``(j, state)`` of configurations 1..J of the cycle at ``start``."""
        return list(enumerate(self.folds[start][0], 1))

    def parts(self, ctx):
        """``(a_ctx, a, b_ctx, b, edge)`` of the combination that made ``ctx``.

        ``a`` is the side that keeps the root cluster, ``b`` the one
        joined to it through ``edge``.
        """
        if len(ctx) == 2:
            v, i = ctx
            child = self.full(self.tree.children[v][i - 1])
            edge = edge_key(v, child[0])
            return (v, i - 1), self.states[(v, i - 1)], child, self.states[child], edge
        start, j, n = ctx[:3]
        chains = self.folds[start][1][j - 1]
        if chains is None:
            raise WitnessNotFoundError(f"configuration {j} at {start!r} was not kept")
        path = self.tree.cycle_at[start].path
        if len(ctx) == 3:  # chain c's top joined into the start side
            c = len(chains) - 1 if n is None else n - 1
            edge, positions, chain, a = chains[c]
            a_ctx = (start[0], start[1] - 1) if c == 0 else (start, j, c)
            t = len(chain)
        else:  # the t-th node of chain c joined to the chain below it
            c, t = n, ctx[3]
            _edge, positions, chain, _a = chains[c]
            node = path[positions[t]]
            a_ctx = self.full(node)
            a = self.states[a_ctx]
            edge = edge_key(node, path[positions[t - 1]])
        b_ctx = self.full(path[positions[0]]) if t == 1 else (start, j, c, t - 1)
        return a_ctx, a, b_ctx, chain[t - 1], edge


class IdentityLift:
    """``lift`` and ``strip`` for algebras whose states ignore the cycle
    configuration they are folded in: both hand the state back."""

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state


# ---------------------------------------------------------------------------
# bitmask algebra: decisions only, no records


def _mask_values(mask: int) -> list[int]:
    values = []
    while mask:
        low = mask & -mask
        values.append(low.bit_length() - 1)
        mask ^= low
    return values


class MaskAlgebra(IdentityLift):
    """Subtree sets as per-count weight bitmasks.

    A state maps cluster count k to an integer whose bit x is set when
    (x, k) is achievable.  The merge branch of the combination becomes a
    batch of shift-or operations, which keeps the pseudo-polynomial
    solver fast for large weight bounds.

    Cost rule: a merge of counts k1 and k2 shifts the denser of the two
    masks once per set bit of the sparser one (ties shift the parent).
    Each mask's bits are listed at most once per ``combine`` call.  A
    bare-vertex parent (one count, one set bit ``x1``) takes a single pass
    over the child's counts that lists no bits: the merge is one
    ``(mb << x1) & full`` per count, and the output equals the general
    loop's, key order included.

    Mask width: masks keep bits 0..min(upper, W), W the graph's total
    weight.  No cluster outweighs the graph, so this truncates nothing,
    and a huge ``upper`` costs no memory.
    """

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.p = params.num_clusters
        self.arc_limit = (graph.weight, params.lower, params.upper)
        top = min(params.upper, graph.total_weight)
        self.full_mask = (1 << (top + 1)) - 1
        # clears the bits below ``lower`` without building a lower-wide mask
        self.window_mask = self.full_mask >> params.lower << params.lower

    def base(self, v):
        return {1: 1 << self.graph.weight[v]}

    def combine(self, a, b, edge, step):
        out: dict[int, int] = {}
        p = self.p
        window = self.window_mask
        full = self.full_mask
        if len(a) == 1:
            ((k1, ma),) = a.items()
            if ma.bit_count() == 1:  # a bare vertex: one pass, one shift per child count
                x1 = ma.bit_length() - 1
                for k2, mb in b.items():
                    k = k1 + k2
                    if k <= p and mb & window:
                        out[k] = out.get(k, 0) | ma
                    if k - 1 <= p:
                        acc = (mb << x1) & full
                        if acc:
                            out[k - 1] = out.get(k - 1, 0) | acc
                return out
        a_bits = None  # bits of a's masks by count, listed on first use
        for k2, mb in b.items():
            if mb & window:
                for k1, ma in a.items():
                    k = k1 + k2
                    if k <= p:
                        out[k] = out.get(k, 0) | ma
            # The merge sums {x1 + x2} are the same whichever operand is
            # shifted, so shift the denser mask by the sparser one's bits.
            nb = mb.bit_count()
            b_bits = None
            for k1, ma in a.items():
                k = k1 + k2 - 1
                if k > p:
                    continue
                acc = 0
                if nb <= ma.bit_count():
                    if b_bits is None:
                        b_bits = _mask_values(mb)
                    for x2 in b_bits:
                        acc |= ma << x2
                else:
                    if a_bits is None:
                        a_bits = {}
                    bits = a_bits.get(k1)
                    if bits is None:
                        bits = a_bits[k1] = _mask_values(ma)
                    for x1 in bits:
                        acc |= mb << x1
                acc &= full
                if acc:
                    out[k] = out.get(k, 0) | acc
        return out

    def union_configs(self, configs, cycle):
        out: dict[int, int] = {}
        for _j, _step, state in configs:
            for k, mask in state.items():
                out[k] = out.get(k, 0) | mask
        return out


# ---------------------------------------------------------------------------
# recorded algebra: one witness per tuple, the tests' reference


class TupleAlgebra(IdentityLift):
    """Subtree sets as ``{(x, k): (None, record)}`` dictionaries.

    Records point at the states and keys they were combined from, so a
    partition can be rebuilt by walking them with ``collect_cuts``.  One
    witness per tuple is enough: the sets are exact, hence any stored
    combination leads to a valid partition.  Iteration is sorted so the
    kept witness is the one with the smallest child tuple, then the
    smallest parent tuple, and the lowest cycle configuration.  No solver
    runs this algebra: the tuple-set engine reads the same witnesses out
    of the bitmask states, and the tests check that against this one.
    """

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.params = params
        self.arc_limit = (graph.weight, params.lower, params.upper)

    def base(self, v):
        return {(self.graph.weight[v], 1): (None, ("leaf", v))}

    def combine(self, a, b, edge, step):
        lower, upper = self.params.lower, self.params.upper
        p = self.params.num_clusters
        out = {}
        for (x2, k2) in sorted(b):
            feasible = x2 >= lower
            for (x1, k1) in sorted(a):
                if feasible and k1 + k2 <= p:
                    key = (x1, k1 + k2)
                    if key not in out:
                        out[key] = (None, ("step", "cut", a, (x1, k1), b, (x2, k2), edge))
                if x1 + x2 <= upper and k1 + k2 - 1 <= p:
                    key = (x1 + x2, k1 + k2 - 1)
                    if key not in out:
                        out[key] = (None, ("step", "merge", a, (x1, k1), b, (x2, k2), edge))
        return out

    def union_configs(self, configs, cycle):
        out = {}
        for j, step, state in configs:
            for key in sorted(state):
                if key not in out:
                    out[key] = (None, ("cfg", j, step.absent_edge, state, key))
        return out


# ---------------------------------------------------------------------------
# public operations


def _mask_state_to_set(state) -> frozenset:
    return frozenset(
        (x, k) for k, mask in state.items() for x in _mask_values(mask)
    )


def _record_cells(stats, states, algorithm=None) -> None:
    """Add the total size of a run's states to ``stats["dp_cells"]``, the
    one counter of the ``stats=`` dicts; nothing when ``stats`` is None.

    Counts set mask bits for the tuple-set engine, stored intervals for
    the interval engine (``algorithm`` "tupleset" / "interval") and keys
    for the dict algebras (``algorithm`` None).
    """
    if stats is None:
        return
    if algorithm == "tupleset":
        cells = sum(mask.bit_count() for st in states.values() for mask in st.values())
    elif algorithm == "interval":
        cells = sum(len(ivs) for st in states.values() for ivs in st.values())
    else:
        cells = sum(len(st) for st in states.values())
    stats["dp_cells"] = stats.get("dp_cells", 0) + cells


def _check_leaf_weights(graph: CactusGraph, params: ProblemParams) -> None:
    if graph.max_weight > params.upper:
        raise WeightExceedsUpperError(
            f"vertex weight {graph.max_weight} exceeds upper bound {params.upper}"
        )


def decide_p_partition(
    graph: CactusGraph | CactusTree, params: ProblemParams, root: str | None = None
) -> bool:
    """Decide whether the graph splits into exactly the requested clusters.

    True iff there is a partition into ``params.num_clusters`` connected
    clusters whose weights all lie in ``[lower, upper]``.  ``graph`` may
    be a :class:`CactusTree` (``root`` is then ignored).  The run keeps
    only its frontier (:func:`run_tree_dp`).
    """
    tree, params, reason = _prepare(graph, root, *params)
    if reason:
        return False
    alg = MaskAlgebra(tree.graph, params)
    (state,) = run_tree_dp(tree, alg, frontier=True).values()  # the root's alone
    mask = state.get(params.num_clusters, 0)
    return bool(mask & alg.window_mask)
