"""Rooted DFS-tree representation of a cactus graph.

Rooting the graph by depth-first search degenerates every cycle into a
tree path.  Each cycle is kept as a record of that path: the node closest
to the root is the cycle's start node, the deepest one its end node, and
the graph edge between them (absent from the tree) closes the cycle.

Two structural facts make the downstream dynamic programs work:

* every node is a non-start member of at most one cycle, and
* if a node lies strictly inside a cycle path, its on-cycle child is
  placed last among its children.

Both are established here, right after the DFS, which is
``graph_model.dfs_tree``: for the default root, the very search that
validated the graph, kept on it.
:func:`as_tree` lets an entry point take either a graph or a tree built
once for several solves, and :func:`graph_of` gives the graph of either.
"""

from __future__ import annotations

from collections import namedtuple

from .graph_model import CactusGraph, Edge, dfs_tree, edge_key, fields_repr


class CycleRecord(namedtuple("CycleRecord", "start end path closing_edge start_child_index")):
    """One cycle, stored as its root-to-descendant tree path.

    ``path`` runs from ``start`` to ``end``, ``closing_edge`` is the graph
    edge between them, and ``start_child_index`` the 1-based position of
    ``path[1]`` among start's children.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.path)


class CactusTree(namedtuple(
    "CactusTree", "graph root parent children cycles on_cycle_child cycle_at"
)):
    """DFS tree of a cactus graph with ordered children and cycle records.

    ``parent`` and ``children`` (tuples, in the order the DP folds them)
    describe the tree; ``on_cycle_child`` maps an interior cycle node to
    its (last) on-cycle child, and ``cycle_at`` maps (start node, 1-based
    child index) to the cycle starting there.  The repr shows only
    ``graph``, ``root`` and ``cycles``.
    """

    __slots__ = ()

    def __repr__(self):
        return fields_repr(self, ("graph", "root", "cycles"))

    def postorder(self) -> list[str]:
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        order.reverse()
        return order

    def full_index(self, v: str) -> int:
        """Number of children combined directly into this node's subtree set.

        For a node strictly inside a cycle path the last child is reached
        through the cycle machinery at the start node, not through a plain
        parent-child combination, so it is excluded here.
        """
        n = len(self.children[v])
        return n - 1 if v in self.on_cycle_child else n

    def to_data(self) -> dict:
        """JSON-friendly debug dump of the tree and its cycle records."""
        return {
            "root": self.root,
            "children": {v: list(cs) for v, cs in self.children.items()},
            "cycles": [
                {
                    "start": c.start,
                    "end": c.end,
                    "path": list(c.path),
                    "closing_edge": list(c.closing_edge),
                    "start_child_index": c.start_child_index,
                }
                for c in self.cycles
            ],
        }


def build_tree(graph: CactusGraph, root: str | None = None) -> CactusTree:
    """Build the rooted tree representation of ``graph``.

    The default root is the lexicographically smallest vertex id, which
    keeps trees (and therefore reconstructed partitions) deterministic;
    its DFS is the one ``validate_cactus`` ran and kept on the graph.
    Children follow the input adjacency order except for the on-cycle
    reordering described in the module docstring.
    """
    graph_of(graph, root)  # checks root
    default = min(graph.vertices)
    if root is None:
        root = default
    if root == default and graph.dfs is not None:
        parent, children, raw_cycles = graph.dfs
    else:
        parent, children, raw_cycles = dfs_tree(graph.adjacency, root)

    # Remark-style reordering: inside each cycle path, move the on-cycle
    # child to the last position.  A node can be a non-start member of at
    # most one cycle (``dfs_tree`` checks it), so the reorderings never
    # conflict.  The DFS result may be the graph's own, so it is copied,
    # not changed.
    children = dict(children)
    on_cycle_child: dict[str, str] = {}
    for path in raw_cycles:
        for node, nxt in zip(path[1:-1], path[2:]):
            on_cycle_child[node] = nxt
            children[node] = [c for c in children[node] if c != nxt] + [nxt]

    cycles = []
    cycle_at: dict[tuple[str, int], CycleRecord] = {}
    for path in raw_cycles:
        start, end = path[0], path[-1]
        idx = children[start].index(path[1]) + 1
        rec = CycleRecord(
            start=start,
            end=end,
            path=path,
            closing_edge=edge_key(start, end),
            start_child_index=idx,
        )
        cycles.append(rec)
        cycle_at[(start, idx)] = rec

    return CactusTree(
        graph=graph,
        root=root,
        parent=parent,
        children={v: tuple(cs) for v, cs in children.items()},
        cycles=tuple(cycles),
        on_cycle_child=on_cycle_child,
        cycle_at=cycle_at,
    )


def as_tree(graph: CactusGraph | CactusTree, root: str | None = None) -> CactusTree:
    """``graph`` itself if it is a :class:`CactusTree` (``root`` is then
    ignored), otherwise ``build_tree(graph, root)``."""
    return graph if isinstance(graph, CactusTree) else build_tree(graph, root)


def graph_of(source: CactusGraph | CactusTree, root: str | None = None) -> CactusGraph:
    """The graph of ``source``, a graph or a :class:`CactusTree`: what an
    early answer reads before :func:`as_tree` builds a tree.

    Raises ``ValueError`` when ``source`` is a graph and ``root`` names
    none of its vertices, as :func:`build_tree` does, so a bad root is an
    error whether or not the request is answered early.  A tree keeps its
    own root, and ``root`` is then ignored, as in :func:`as_tree`.
    """
    if isinstance(source, CactusTree):
        return source.graph
    if root is not None and root not in source.weight:
        raise ValueError(f"root {root!r} is not a vertex")
    return source


def absent_cycle_edge(cycle: CycleRecord, j: int) -> Edge:
    """The one cycle edge missing from configuration ``j`` (1 <= j <= m)."""
    m = cycle.length
    if j == 1:
        return cycle.closing_edge
    ws = cycle.path
    return edge_key(ws[m - j], ws[(m - j + 1) % m])
