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
edge.  Every partition of the cycle shows up in at least one of these
configurations, so the subtree set at the start node is the union over
all of them.

The same traversal drives several payload algebras: a bitmask algebra for
the tuple-set engine and the cost / size / capacity algebras of the
optimisation variants.  The bitmask states are exact, so the tuple-set
engine keeps no records: ``backtrack`` reads a witness straight out of
them by walking the tree top-down, recomputing through
:func:`fold_configuration` only the chains of the cycle configurations
the witness passes through.  ``TupleAlgebra``, a recorded algebra whose
entries remember one witness combination each, stays here as the
reference the tests compare those witnesses with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParamsError, WeightExceedsUpperError
from .graph_model import CactusGraph, edge_key
from .tree_rep import CactusTree, CycleRecord, absent_cycle_edge, build_tree


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of a fixed-count partition problem.

    ``lower``/``upper`` bound every cluster weight and ``num_clusters``
    is the exact number of clusters requested.  ``gap`` (upper - lower)
    drives the interval compression of the polynomial solver.
    """

    lower: int
    upper: int
    num_clusters: int

    def __post_init__(self) -> None:
        for name in ("lower", "upper", "num_clusters"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
        if self.lower < 0 or self.upper < 0:
            raise InvalidParamsError("weight bounds must be non-negative")
        if self.lower > self.upper:
            raise InvalidParamsError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.num_clusters < 1:
            raise InvalidParamsError("cluster count must be positive")

    @property
    def gap(self) -> int:
        return self.upper - self.lower


@dataclass(frozen=True)
class CycleStep:
    """Context of one cycle configuration while folding its path."""

    cycle: CycleRecord
    j: int
    absent_edge: tuple[str, str]


def trivially_infeasible(graph: CactusGraph, params: ProblemParams) -> str | None:
    """Reason the instance cannot have a solution, or None.

    A single vertex heavier than the upper bound can never sit in a valid
    cluster, and more clusters than vertices are impossible.  The solvers
    answer "no" for these without running the dynamic program.
    """
    if params.num_clusters > graph.num_vertices:
        return "more clusters requested than vertices"
    if graph.max_weight > params.upper:
        return "a vertex weight exceeds the upper bound"
    return None


# ---------------------------------------------------------------------------
# shared traversal


def run_tree_dp(tree, alg, config_sink=None):
    """Fold ``alg`` bottom-up over the tree, returning all partial states.

    The result maps ``(v, i)`` to the algebra state of the subtree made of
    ``v`` and its first ``i`` children.  ``config_sink``, when given, is
    filled with the per-configuration states of every cycle, keyed by
    ``(cycle, j)``.
    """
    sets = {}
    for v in tree.postorder():
        state = alg.base(v)
        sets[(v, 0)] = state
        kids = tree.children[v]
        on_cyc = tree.on_cycle_child.get(v)
        for idx, child in enumerate(kids, start=1):
            cyc = tree.cycle_at.get((v, idx))
            if cyc is not None:
                state = _cycle_union(tree, alg, sets, cyc, state, config_sink)
            elif child == on_cyc:
                # combined at the cycle's start node instead; must be last
                assert idx == len(kids)
                continue
            else:
                child_state = sets[(child, tree.full_index(child))]
                state = alg.combine(state, child_state, edge_key(v, child), None)
            sets[(v, idx)] = state
    return sets


def _cycle_union(tree, alg, sets, cyc, start_state, config_sink):
    """Union of the per-configuration states at the cycle's start node."""
    owns = cycle_node_states(tree, sets, cyc)
    configs = []
    for j in range(1, cyc.length):
        step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
        joined, chains = fold_configuration(alg, step, owns, start_state, alg.combine)
        edge, _positions, top = chains[-1]
        state = alg.strip(alg.combine(joined[-1], top[-1], edge, step), step)
        configs.append((j, step, state))
        if config_sink is not None:
            config_sink[(cyc, j)] = state
    return alg.union_configs(configs, cyc)


def cycle_node_states(tree, sets, cyc):
    """Full subtree states of the cycle's path nodes, by path position.

    Position 0, the start node, is None: its state is what the cycle is
    being folded into.
    """
    return [None] + [sets[(node, tree.full_index(node))] for node in cyc.path[1:]]


def fold_configuration(alg, step, owns, start_state, combine):
    """Fold one cycle configuration into its start node's state.

    In configuration j the cycle path splits in two chains that are folded
    from their deepest node upwards: the remainder of the original path
    under the first path child, and (for j >= 2) the reversed tail hanging
    off the start node through the closing edge.  The two nodes incident
    to the configuration's absent edge sit at the bottoms of these chains;
    algebras that charge the absent edge (capacities) mark them via
    ``lift(..., charged=True)``.  The chain tops are then combined into
    the (lifted) start state, the first chain through the edge to the
    first path child and the second through the closing edge; the last
    of these joins is left to the caller, because the witness walks only
    read the states before it.

    ``owns`` comes from :func:`cycle_node_states`; ``combine`` is the
    algebra's combine or a function with its signature.  Returns
    ``(joined, chains)``.  ``chains`` lists ``(edge, positions, states)``
    in joining order: ``edge`` joins the chain top to the start node,
    ``positions`` are the chain's path positions from the bottom up, and
    ``states[t]`` is the chain folded up to ``positions[t]``.  ``joined``
    holds the lifted start state and the state after each chain but the
    last is joined: ``joined[n]`` is what chain n is joined into.
    Joining the last chain into ``joined[-1]`` and stripping the result
    gives the configuration's state.
    """
    cyc, j = step.cycle, step.j
    ws = cyc.path
    m = len(ws)
    spans = []  # (edge to the start node, positions, offset of the node below)
    if j < m:
        bottom = m - 1 if j == 1 else m - j
        spans.append((edge_key(ws[0], ws[1]), range(bottom, 0, -1), 1))
    if j >= 2:
        spans.append((cyc.closing_edge, range(m - j + 1, m), -1))
    chains = []
    for edge, positions, below in spans:
        states = []
        t = None
        for i in positions:
            own = alg.lift(owns[i], step, charged=t is None)
            t = own if t is None else combine(own, t, edge_key(ws[i], ws[i + below]), step)
            states.append(t)
        chains.append((edge, positions, states))
    joined = [alg.lift(start_state, step, charged=(j == 1 or j == m))]
    for edge, _positions, states in chains[:-1]:
        joined.append(combine(joined[-1], states[-1], edge, step))
    return joined, chains


# ---------------------------------------------------------------------------
# bitmask algebra: decisions only, no records


def _mask_values(mask: int) -> list[int]:
    values = []
    while mask:
        low = mask & -mask
        values.append(low.bit_length() - 1)
        mask ^= low
    return values


class MaskAlgebra:
    """Subtree sets as per-count weight bitmasks.

    A state maps cluster count k to an integer whose bit x is set when
    (x, k) is achievable.  The merge branch of the combination becomes a
    batch of shift-or operations, which keeps the pseudo-polynomial
    solver fast for large weight bounds.

    Cost rule: a merge of counts k1 and k2 shifts the denser of the two
    masks once per set bit of the sparser one (ties shift the parent), so
    a one-vertex parent costs one shift whatever the child holds.  Each
    mask's bits are listed at most once per ``combine`` call.

    Mask width: masks keep bits 0..min(upper, W), W the graph's total
    weight.  No cluster outweighs the graph, so this truncates nothing,
    and a huge ``upper`` costs no memory.
    """

    def __init__(self, graph: CactusGraph, params: ProblemParams):
        self.graph = graph
        self.p = params.num_clusters
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

    # The same function under a second name, for the witness walk, which
    # combines outside any DP run: wrappers installed on ``combine`` (the
    # per-run combine counters of perfbench's tracer) do not see its calls.
    join_states = combine

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        out: dict[int, int] = {}
        for _j, _step, state in configs:
            for k, mask in state.items():
                out[k] = out.get(k, 0) | mask
        return out


# ---------------------------------------------------------------------------
# recorded algebra: one witness per tuple, the tests' reference


class TupleAlgebra:
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

    def lift(self, state, step, charged):
        return state

    def strip(self, state, step):
        return state

    def union_configs(self, configs, cycle):
        out = {}
        for j, step, state in configs:
            for key in sorted(state):
                if key not in out:
                    out[key] = (None, ("cfg", j, step.absent_edge, state, key))
        return out


# ---------------------------------------------------------------------------
# public operations


def oplus(a, b, params: ProblemParams):
    """Combine two tuple sets across an edge (reference implementation).

    Returns exactly the pairs produced by keeping the child cluster
    separate (its weight must reach the lower bound) or merging the two
    root clusters (the sum must respect the upper bound), with cluster
    counts capped at the requested number.
    """
    lower, upper, p = params.lower, params.upper, params.num_clusters
    out = set()
    for (x1, k1) in a:
        for (x2, k2) in b:
            if x2 >= lower and k1 + k2 <= p:
                out.add((x1, k1 + k2))
            if x1 + x2 <= upper and k1 + k2 - 1 <= p:
                out.add((x1 + x2, k1 + k2 - 1))
    return out


def leaf_set(weight: int, params: ProblemParams):
    """Base set of a bare subtree root: one cluster holding just the vertex."""
    if weight > params.upper:
        raise WeightExceedsUpperError(
            f"vertex weight {weight} exceeds upper bound {params.upper}"
        )
    return {(weight, 1)}


def _mask_state_to_set(state) -> frozenset:
    return frozenset(
        (x, k) for k, mask in state.items() for x in _mask_values(mask)
    )


def state_cells(states, algorithm=None) -> int:
    """Total size of a run's states (the CLI's ``stats.dp_cells``).

    Counts set mask bits for the tuple-set engine, stored intervals for
    the interval engine (``algorithm`` "tupleset" / "interval") and keys
    for the dict algebras (``algorithm`` None).
    """
    if algorithm == "tupleset":
        return sum(mask.bit_count() for st in states.values() for mask in st.values())
    if algorithm == "interval":
        return sum(len(ivs) for st in states.values() for ivs in st.values())
    return sum(len(st) for st in states.values())


def _check_leaf_weights(graph: CactusGraph, params: ProblemParams) -> None:
    if graph.max_weight > params.upper:
        raise WeightExceedsUpperError(
            f"vertex weight {graph.max_weight} exceeds upper bound {params.upper}"
        )


def subtree_sets(tree: CactusTree, params: ProblemParams):
    """All tuple sets of the tree, keyed by ``(node, children_included)``."""
    _check_leaf_weights(tree.graph, params)
    states = run_tree_dp(tree, MaskAlgebra(tree.graph, params))
    return {ctx: _mask_state_to_set(state) for ctx, state in states.items()}


def cycle_config_sets(tree: CactusTree, params: ProblemParams, cycle: CycleRecord):
    """Per-configuration tuple sets of one cycle, keyed by configuration index."""
    _check_leaf_weights(tree.graph, params)
    sink: dict = {}
    run_tree_dp(tree, MaskAlgebra(tree.graph, params), config_sink=sink)
    return {
        j: _mask_state_to_set(state)
        for (cyc, j), state in sink.items()
        if cyc == cycle
    }


def cycle_config_set(tree: CactusTree, params: ProblemParams, cycle: CycleRecord, j: int):
    """Tuple set contributed by configuration ``j`` of ``cycle``."""
    if not 1 <= j <= cycle.length - 1:
        raise IndexError(f"configuration index {j} out of range 1..{cycle.length - 1}")
    return cycle_config_sets(tree, params, cycle)[j]


def root_set(tree: CactusTree, params: ProblemParams):
    """Tuple set of the whole tree."""
    _check_leaf_weights(tree.graph, params)
    states = run_tree_dp(tree, MaskAlgebra(tree.graph, params))
    return _mask_state_to_set(states[(tree.root, tree.full_index(tree.root))])


def decide_p_partition(
    graph: CactusGraph, params: ProblemParams, root: str | None = None
) -> bool:
    """Decide whether the graph splits into exactly the requested clusters.

    True iff there is a partition into ``params.num_clusters`` connected
    clusters whose weights all lie in ``[lower, upper]``.
    """
    if trivially_infeasible(graph, params):
        return False
    tree = build_tree(graph, root)
    alg = MaskAlgebra(graph, params)
    states = run_tree_dp(tree, alg)
    mask = states[(tree.root, tree.full_index(tree.root))].get(params.num_clusters, 0)
    return bool(mask & alg.window_mask)
