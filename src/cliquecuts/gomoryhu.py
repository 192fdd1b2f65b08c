"""Gomory-Hu cut trees built by the classical contraction algorithm.

The tree is exact in both senses: every tree edge's weight equals the size
of its fundamental cut in the original graph, and the minimum weight on the
tree path between any two vertices equals their minimum cut.  Disconnected
inputs yield a forest, one tree per component.
"""
from __future__ import annotations

from collections import deque
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
    """Cut forest over the vertex set of the graph it was built from."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[TreeEdge]):
        self.vertices = tuple(sorted(vertices))
        vset = set(self.vertices)
        norm = []
        for e in edges:
            if e.a not in vset or e.b not in vset or e.a == e.b:
                raise GraphError("tree edge outside the vertex set")
            norm.append(e if e.a < e.b else TreeEdge(e.b, e.a, e.weight))
        self.edges = tuple(sorted(norm, key=lambda e: (e.a, e.b)))
        self._adj: dict[int, list[tuple[int, TreeEdge]]] = {
            v: [] for v in self.vertices
        }
        for e in self.edges:
            self._adj[e.a].append((e.b, e))
            self._adj[e.b].append((e.a, e))
        # Components are numbered 0, 1, ... in order of smallest member.
        self._comp: dict[int, int] = {}
        cid = -1
        for v in self.vertices:
            if v in self._comp:
                continue
            cid += 1
            queue = deque([v])
            self._comp[v] = cid
            while queue:
                x = queue.popleft()
                for y, _ in self._adj[x]:
                    if y not in self._comp:
                        self._comp[y] = cid
                        queue.append(y)

    def component_of(self, v: int) -> int:
        try:
            return self._comp[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def _reachable(self, start: int, avoid: TreeEdge | None) -> frozenset:
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y, e in self._adj[x]:
                if e == avoid or y in seen:
                    continue
                seen.add(y)
                queue.append(y)
        return frozenset(seen)

    def fundamental_partition(self, edge: TreeEdge) -> tuple[frozenset, frozenset]:
        """The two vertex sets separated by removing `edge`, restricted to
        its component; the first side contains edge.a."""
        if edge.a > edge.b:
            edge = TreeEdge(edge.b, edge.a, edge.weight)
        if edge not in self.edges:
            raise GraphError("not an edge of this tree")
        side = self._reachable(edge.a, avoid=edge)
        comp = self._reachable(edge.b, avoid=None) | side
        return side, comp - side

    def min_cut_value(self, u: int, v: int) -> int:
        """Smallest weight on the tree path between u and v; 0 when they sit
        in different components."""
        if u == v:
            raise GraphError("needs two distinct vertices")
        if self.component_of(u) != self.component_of(v):
            return 0
        parent: dict[int, tuple[int, TreeEdge]] = {u: (u, None)}  # type: ignore
        queue = deque([u])
        while v not in parent:
            x = queue.popleft()
            for y, e in self._adj[x]:
                if y not in parent:
                    parent[y] = (x, e)
                    queue.append(y)
        best = None
        x = v
        while x != u:
            x, e = parent[x]
            best = e.weight if best is None else min(best, e.weight)
        return best

    def blocks_without(self, removed: Iterable[TreeEdge]) -> tuple[tuple[int, ...], ...]:
        """Vertex classes of the forest after deleting `removed`, each sorted,
        ordered by smallest member."""
        gone = set(removed)
        seen: set[int] = set()
        blocks = []
        for start in self.vertices:
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            block = []
            while queue:
                x = queue.popleft()
                block.append(x)
                for y, e in self._adj[x]:
                    if e in gone or y in seen:
                        continue
                    seen.add(y)
                    queue.append(y)
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    def dump(self) -> str:
        """One line per tree edge, ``a b weight``, sorted by (a, b)."""
        return "".join(f"{e.a} {e.b} {e.weight}\n" for e in self.edges)


def _component_tree(g: MultiGraph, comp: tuple[int, ...]) -> list[TreeEdge]:
    if len(comp) == 1:
        return []
    sub = g.induced_subgraph(comp)
    # Tree of supernodes: repeatedly split a multi-vertex node along a min cut
    # computed in the graph with every other subtree contracted.
    nodes: dict[int, frozenset] = {0: frozenset(comp)}
    nbrs: dict[int, dict[int, int]] = {0: {}}
    next_id = 1
    while True:
        multi = [i for i, vs in nodes.items() if len(vs) > 1]
        if not multi:
            break
        nid = min(multi, key=lambda i: min(nodes[i]))
        u, v = sorted(nodes[nid])[:2]
        groups: list[tuple[int, frozenset]] = []
        seen = {nid}
        for b in sorted(nbrs[nid]):
            if b in seen:
                continue
            stack, union = [b], set()
            seen.add(b)
            while stack:
                x = stack.pop()
                union |= nodes[x]
                for y in nbrs[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            groups.append((b, frozenset(union)))
        gc = sub
        for _, union in groups:
            gc = gc.contract(union)
        cut = min_cut(gc, u, v)
        nb = next_id
        next_id += 1
        nodes[nb] = nodes[nid] - cut.side
        nodes[nid] = nodes[nid] & cut.side
        nbrs[nb] = {}
        for b, union in groups:
            if min(union) not in cut.side:
                w_old = nbrs[nid].pop(b)
                del nbrs[b][nid]
                nbrs[nb][b] = w_old
                nbrs[b][nb] = w_old
        nbrs[nid][nb] = cut.value
        nbrs[nb][nid] = cut.value
    out = []
    for i, peers in nbrs.items():
        (vi,) = nodes[i]
        for j, w in peers.items():
            if i < j:
                (vj,) = nodes[j]
                out.append(TreeEdge(min(vi, vj), max(vi, vj), w))
    return out


def build_gomory_hu(g: MultiGraph) -> GomoryHuTree:
    if g.directed:
        raise GraphError("Gomory-Hu trees are built on undirected graphs")
    edges: list[TreeEdge] = []
    for comp in g.components():
        edges.extend(_component_tree(g, comp))
    return GomoryHuTree(g.vertices, edges)
