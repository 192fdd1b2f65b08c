"""Exact max-flow machinery for multigraphs.

One breadth-first search of the residual network finds the shortest
augmenting paths (Edmonds and Karp 1972) and the cut sides: after a maximum
flow, the vertices that the source reaches are the smallest source side of
a minimum cut, whichever maximum flow was found.

Parallel edges between the same endpoints are handled as one arc with
integer capacity and decomposed back to distinct edge ids afterwards.
Undirected edges become two opposite arcs sharing residual bookkeeping.
Loops never reach the solver.  All scans run in ascending edge-id order, so
every returned value, cut side and trail is deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import GraphError, MultiGraph


@dataclass(frozen=True)
class CutResult:
    value: int
    side: frozenset


@dataclass(frozen=True)
class Trail:
    start: int
    end: int
    edges: tuple[int, ...]


class FanInfeasible(GraphError):
    def __init__(self, cut: CutResult, required: int):
        super().__init__(
            f"fan infeasible: the cut at {sorted(cut.side)} "
            f"(size {cut.value}) blocks {required} required trails"
        )
        self.cut = cut
        self.required = required


class _Net:
    """Edmonds-Karp solver.  Arcs are stored in pairs; arc a's reverse is
    a ^ 1."""

    def __init__(self):
        self._index: dict[int, int] = {}
        self._verts: list[int] = []
        self._adj: list[list[int]] = []
        self._to: list[int] = []
        self._res: list[int] = []
        self._init: list[int] = []
        self._ids: list[tuple[int, ...]] = []

    def vertex(self, v: int) -> int:
        idx = self._index.get(v)
        if idx is None:
            idx = len(self._verts)
            self._index[v] = idx
            self._verts.append(v)
            self._adj.append([])
        return idx

    def add_group(self, u: int, v: int, cap_uv: int, cap_vu: int,
                  ids: tuple[int, ...]) -> None:
        ui, vi = self.vertex(u), self.vertex(v)
        a = len(self._to)
        self._to.append(vi)
        self._res.append(cap_uv)
        self._init.append(cap_uv)
        self._ids.append(ids)
        self._to.append(ui)
        self._res.append(cap_vu)
        self._init.append(cap_vu)
        self._ids.append(ids)
        self._adj[ui].append(a)
        self._adj[vi].append(a + 1)

    def reset(self) -> None:
        """Undo every flow pushed so far, so the network serves a new pair."""
        self._res[:] = self._init

    def _search(self, s: int, t: int | None) -> list[int | None]:
        """Breadth-first search of the residual network from s: the arc by
        which each vertex was first reached, -1 at s and None where
        unreached.  Stops as soon as t is labelled; with t None it labels
        every vertex that s reaches."""
        adj, to, res = self._adj, self._to, self._res
        via: list[int | None] = [None] * len(self._verts)
        via[s] = -1
        queue = deque([s])
        while queue:
            for a in adj[queue.popleft()]:
                y = to[a]
                if via[y] is None and res[a] > 0:
                    via[y] = a
                    if y == t:
                        return via
                    queue.append(y)
        return via

    def max_flow(self, s_id: int, t_id: int, limit: int | None = None) -> int:
        """Push shortest augmenting paths from s to t and return the amount
        pushed: a maximum flow, or exactly `limit` units when the residual
        network holds that many (the last path is pushed only in part)."""
        s, t = self.vertex(s_id), self.vertex(t_id)
        to, res = self._to, self._res
        total = 0
        while limit is None or total < limit:
            via = self._search(s, t)
            if via[t] is None:
                break
            path = []
            x = t
            while x != s:
                path.append(via[x])
                x = to[via[x] ^ 1]
            got = min(res[a] for a in path)
            if limit is not None and got > limit - total:
                got = limit - total
            for a in path:
                res[a] -= got
                res[a ^ 1] += got
            total += got
        return total

    def cut_side(self, s_id: int) -> frozenset:
        """The vertices that s reaches in the residual network."""
        via = self._search(self.vertex(s_id), None)
        return frozenset(v for v, a in zip(self._verts, via) if a is not None)

    def _flow_units(self):
        """Yield one (edge id or None, tail vertex, head vertex) per unit of
        net flow; ids within a bundle are consumed in ascending order."""
        for a in range(0, len(self._to), 2):
            for arc in (a, a + 1):
                pushed = self._init[arc] - self._res[arc]
                if pushed <= 0:
                    continue
                head = self._verts[self._to[arc]]
                tail = self._verts[self._to[arc ^ 1]]
                ids = self._ids[arc]
                for k in range(pushed):
                    yield (ids[k] if ids else None, tail, head)

    def extract_trails(self, s_id: int, count: int) -> list[Trail]:
        """Walk `count` edge-disjoint trails out of the flow, smallest edge id
        first at every step, each up to its hop on an id-less auxiliary arc,
        which is dropped.  Leftover flow (cycles) is discarded."""
        outgoing: dict[int, list[tuple[int | None, int]]] = {}
        for eid, tail, head in self._flow_units():
            outgoing.setdefault(tail, []).append((eid, head))
        for units in outgoing.values():
            units.sort(key=lambda u: (u[0] is None, u[0] if u[0] is not None else 0))
        cursor: dict[int, int] = {v: 0 for v in outgoing}
        trails = []
        for _ in range(count):
            here = s_id
            edges: list[int] = []
            while True:
                eid, nxt = outgoing[here][cursor[here]]
                cursor[here] += 1
                if eid is None:
                    break
                edges.append(eid)
                here = nxt
            trails.append(Trail(s_id, here, tuple(edges)))
        return trails


def _net_for(g: MultiGraph) -> _Net:
    """Non-loop edges bundled by (tail, head), bundles in ascending
    smallest-id order; undirected edges keep tail <= head, so their pairs
    are unordered.  Ids within a bundle ascend, as g.edges is in id order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        if not e.is_loop():
            groups.setdefault((e.tail, e.head), []).append(e.id)
    net = _Net()
    for (u, v), ids in groups.items():
        net.add_group(u, v, len(ids), 0 if g.directed else len(ids), tuple(ids))
    return net


def min_cut(g: MultiGraph, u: int, v: int) -> CutResult:
    """A minimum u-v edge cut (u->v arcs on a digraph); its value is the
    number of edge-disjoint u-v trails, 0 when no trail exists.  The side is
    the residual-reachable set around u, so the result is deterministic."""
    if u not in g.vertex_set or v not in g.vertex_set:
        raise GraphError(f"unknown vertex in pair ({u}, {v})")
    if u == v:
        raise GraphError("connectivity queries need two distinct vertices")
    net = _net_for(g)
    return CutResult(net.max_flow(u, v), net.cut_side(u))


def directed_edge_connectivity(d: MultiGraph, u: int, v: int) -> int:
    """Maximum number of edge-disjoint directed u->v trails."""
    if not d.directed:
        raise GraphError("directed_edge_connectivity applies to digraphs")
    return min_cut(d, u, v).value


def menger_fan(g: MultiGraph, source: int,
               demands: dict[int, int]) -> tuple[Trail, ...]:
    """Edge-disjoint trails from `source`, exactly demands[v] of them ending
    at each demanded vertex; directed trails on a digraph.

    Solved as one flow to an auxiliary vertex joined to each demanded vertex
    by demands[v] parallel edges; the auxiliary vertex never appears in the
    output.  Those edges cap the flow at the total demand, so the flow
    stops there instead of ending on a search that finds no path.  Raises
    FanInfeasible with the blocking cut when the demands cannot be met; on
    a digraph the cut counts the arcs leaving its side.
    """
    if source not in g.vertex_set:
        raise GraphError(f"unknown vertex {source}")
    total = 0
    for v, dem in demands.items():
        if v not in g.vertex_set:
            raise GraphError(f"unknown vertex {v}")
        if v == source:
            raise GraphError("source cannot carry a demand")
        if dem < 0:
            raise GraphError("demands must be non-negative")
        total += dem
    if total == 0:
        return ()
    aux = max(g.vertices) + 1
    net = _net_for(g)
    net.vertex(source)
    for v in sorted(demands):
        if demands[v] > 0:
            net.add_group(v, aux, demands[v], 0, ())
    value = net.max_flow(source, aux, limit=total)
    if value < total:
        side = net.cut_side(source)
        crossing = sum(
            1 for e in g.edges
            if (e.tail in side) != (e.head in side)
            and (e.tail in side or not g.directed)
        )
        raise FanInfeasible(CutResult(crossing, side), total)
    return tuple(net.extract_trails(source, total))
