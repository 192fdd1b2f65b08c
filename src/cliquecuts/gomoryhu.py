"""Gomory-Hu cut trees built by the classical contraction algorithm.

The tree is exact in both senses: every tree edge's weight equals the size
of its fundamental cut in the original graph, and the minimum weight on the
tree path between any two vertices equals their minimum cut.  Disconnected
inputs yield a forest, one tree per component.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .flow import min_cut
from .graphs import GraphError, MultiGraph


@dataclass(frozen=True)
class TreeEdge:
    a: int
    b: int
    weight: int


class GomoryHuTree:
    """Cut forest over the vertex set of the graph it was built from; each
    edge is stored with its ends ordered, a < b, however it was given.

    Each component is rooted at its smallest vertex.  Every vertex keeps
    its (parent, tree edge) link, None at a root, and its depth; each
    component its vertices, parents first.  So every query is one pass
    down that order or one climb up the links.  The pipeline reads only
    edges and blocks_without; fundamental_partition and min_cut_value stay
    as the Gomory-Hu content the tree's checks read."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[TreeEdge]):
        self.vertices = tuple(sorted(set(vertices)))
        adj: dict[int, list[tuple[int, TreeEdge]]] = {v: [] for v in self.vertices}
        norm = []
        for e in edges:
            if e.a not in adj or e.b not in adj or e.a == e.b:
                raise GraphError("tree edge outside the vertex set")
            if e.a > e.b:
                e = TreeEdge(e.b, e.a, e.weight)
            norm.append(e)
            adj[e.a].append((e.b, e))
            adj[e.b].append((e.a, e))
        self.edges = tuple(sorted(norm, key=lambda e: (e.a, e.b)))
        self._up: dict[int, tuple[int, TreeEdge] | None] = {}
        self._depth: dict[int, int] = {}
        self._comp: dict[int, int] = {}
        # Components are numbered 0, 1, ... in order of smallest member.
        self._members: list[tuple[int, ...]] = []
        for root in self.vertices:
            if root in self._up:
                continue
            self._up[root], self._depth[root] = None, 0
            order = [root]
            for x in order:
                self._comp[x] = len(self._members)
                for y, e in adj[x]:
                    if y not in self._up:
                        self._up[y], self._depth[y] = (x, e), self._depth[x] + 1
                        order.append(y)
            self._members.append(tuple(order))
        # The search takes one edge per non-root vertex; any edge beyond
        # those closes a cycle or repeats a pair.
        if len(self.edges) != len(self.vertices) - len(self._members):
            raise GraphError("tree edges contain a cycle or a repeated pair")

    def component_of(self, v: int) -> int:
        try:
            return self._comp[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def fundamental_partition(self, edge: TreeEdge) -> tuple[frozenset, frozenset]:
        """The two vertex sets separated by removing `edge`, restricted to
        its component; the first side contains the smaller end."""
        if edge.a > edge.b:
            edge = TreeEdge(edge.b, edge.a, edge.weight)
        if edge not in self.edges:
            raise GraphError("not an edge of this tree")
        block_of = {v: b for b in self.blocks_without([edge]) for v in b}
        return frozenset(block_of[edge.a]), frozenset(block_of[edge.b])

    def min_cut_value(self, u: int, v: int) -> int:
        """Smallest weight on the tree path between u and v; 0 when they sit
        in different components."""
        if u == v:
            raise GraphError("needs two distinct vertices")
        if self.component_of(u) != self.component_of(v):
            return 0
        # Climb from the deeper end until both meet at their common ancestor.
        lightest = float("inf")
        while u != v:
            if self._depth[u] < self._depth[v]:
                u, v = v, u
            u, e = self._up[u]
            lightest = min(lightest, e.weight)
        return lightest

    def blocks_without(self, removed: Iterable[TreeEdge]) -> tuple[tuple[int, ...], ...]:
        """Vertex classes of the forest after deleting `removed`, each sorted,
        ordered by smallest member."""
        gone = set(removed)
        head: dict[int, int] = {}
        blocks: dict[int, list[int]] = {}
        for members in self._members:
            for v in members:
                # A vertex joins its parent's block unless its own tree
                # edge is deleted or it is a root; then it heads a block.
                link = self._up[v]
                h = v if link is None or link[1] in gone else head[link[0]]
                head[v] = h
                blocks.setdefault(h, []).append(v)
        return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))

    def dump(self) -> str:
        """One line per tree edge, ``a b weight``, sorted by (a, b)."""
        return "".join(f"{e.a} {e.b} {e.weight}\n" for e in self.edges)


def _component_tree(g: MultiGraph, comp: tuple[int, ...]) -> list[TreeEdge]:
    # Tree of supernodes, each named by its index in `nodes`: repeatedly
    # split the multi-vertex node with the smallest member along a min cut
    # computed in the host with each subtree hanging off that node
    # contracted.  No flow leaves comp, so the other components need not be
    # cut away.  Each split adds one node, so there are len(comp) nodes
    # once every node is a single vertex.
    nodes = [frozenset(comp)]
    nbrs: list[dict[int, int]] = [{}]
    while len(nodes) < len(comp):
        nid = min((i for i, vs in enumerate(nodes) if len(vs) > 1),
                  key=lambda i: min(nodes[i]))
        u, v = sorted(nodes[nid])[:2]
        # Each hanging subtree is walked away from nid and contracted; its
        # supernode in gc keeps the subtree's smallest vertex.
        gc, reps = g, {}
        for b in sorted(nbrs[nid]):
            stack, union = [(b, nid)], set()
            while stack:
                x, parent = stack.pop()
                union |= nodes[x]
                for y in nbrs[x]:
                    if y != parent:
                        stack.append((y, x))
            gc = gc.contract(union)
            reps[b] = min(union)
        cut = min_cut(gc, u, v)
        nb = len(nodes)
        nodes.append(nodes[nid] - cut.side)
        nodes[nid] &= cut.side
        nbrs.append({})
        for b, rep in reps.items():
            if rep not in cut.side:
                nbrs[nb][b] = nbrs[b][nb] = nbrs[nid].pop(b)
                del nbrs[b][nid]
        nbrs[nid][nb] = nbrs[nb][nid] = cut.value
    ends = [v for (v,) in nodes]
    return [TreeEdge(ends[i], ends[j], w)
            for i, peers in enumerate(nbrs) for j, w in peers.items() if i < j]


def build_gomory_hu(g: MultiGraph) -> GomoryHuTree:
    if g.directed:
        raise GraphError("Gomory-Hu trees are built on undirected graphs")
    edges: list[TreeEdge] = []
    for comp in g.components():
        edges.extend(_component_tree(g, comp))
    return GomoryHuTree(g.vertices, edges)
