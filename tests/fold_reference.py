"""The cycle fold as it was before one loop folded every configuration of
a cycle.

Kept verbatim as the reference for ``cactus_partition.dp_core``:
``fold_configuration`` here builds a ``CycleStep`` from
``absent_cycle_edge``, looks up every chain edge with ``edge_key``, calls
``lift`` on every chain node and on the start state whatever the algebra,
and always keeps the chain lists; ``configuration_state`` adds the last
join and ``strip``; ``run_tree_dp`` unions configurations 1..J one
``configuration_state`` call at a time.  The tests run both versions over
the same trees and require the same states, configuration states and
chain lists.
"""

from __future__ import annotations

from cactus_partition.dp_core import CycleStep, cycle_cutoff
from cactus_partition.graph_model import edge_key
from cactus_partition.tree_rep import absent_cycle_edge

from dp_reference import cycle_node_states


def run_tree_dp(tree, alg, config_sink=None):
    """All partial states of ``alg`` over ``tree``, keyed by ``(v, i)``."""
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
    """Union of configurations 1..J at the cycle's start node."""
    owns = cycle_node_states(tree, sets, cyc)
    configs = []
    for j in range(1, cycle_cutoff(alg, cyc) + 1):
        step, state = configuration_state(alg, cyc, j, owns, start_state)
        configs.append((j, step, state))
        if config_sink is not None:
            config_sink[(cyc, j)] = state
    return alg.union_configs(configs, cyc)


def configuration_state(alg, cyc, j, owns, start_state):
    """``(step, state)`` of configuration ``j``: its fold, final join and
    ``strip``."""
    step = CycleStep(cyc, j, absent_cycle_edge(cyc, j))
    joined, chains = fold_configuration(alg, step, owns, start_state, alg.combine)
    edge, _positions, top = chains[-1]
    return step, alg.strip(alg.combine(joined[-1], top[-1], edge, step), step)


def fold_configuration(alg, step, owns, start_state, combine):
    """``(joined, chains)`` of one configuration, before its last join."""
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
