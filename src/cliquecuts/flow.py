"""Exact max-flow machinery for multigraphs.

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
    """Dinic solver.  Arcs are stored in pairs; arc a's reverse is a ^ 1."""

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

    def _levels(self, s: int, t: int) -> list[int]:
        """BFS levels from s in the residual network, -1 where unreached.
        The search stops once t is labelled: a vertex at t's level or
        beyond is a dead end of the level graph, labelled or not, so the
        augmenting paths are the same as after a full search."""
        adj, to, res = self._adj, self._to, self._res
        level = [-1] * len(self._verts)
        level[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            nxt = level[x] + 1
            for a in adj[x]:
                y = to[a]
                if res[a] > 0 and level[y] < 0:
                    level[y] = nxt
                    if y == t:
                        return level
                    queue.append(y)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int],
                 room: int | None) -> int:
        """Push one augmenting path of the level graph, at most `room` units
        of it when `room` is given, and return the amount pushed, 0 once no
        path is left.  A depth-first walk on an explicit stack of arcs;
        it[x] moves past an arc only when that arc leaves the level graph or
        leads to a dead end, so paths come out in the order of a recursive
        search, with no recursion limit."""
        adj, to, res = self._adj, self._to, self._res
        path: list[int] = []
        x = s
        while x != t:
            arcs = adj[x]
            i, end, nxt = it[x], len(arcs), level[x] + 1
            while i < end:
                a = arcs[i]
                if res[a] > 0 and level[to[a]] == nxt:
                    break
                i += 1
            it[x] = i
            if i < end:
                path.append(arcs[i])
                x = to[arcs[i]]
            elif path:
                x = to[path.pop() ^ 1]
                it[x] += 1
            else:
                return 0
        got = min(res[a] for a in path)
        if room is not None and got > room:
            got = room
        for a in path:
            res[a] -= got
            res[a ^ 1] += got
        return got

    def max_flow(self, s_id: int, t_id: int, limit: int | None = None) -> int:
        """Augment from s to t and return the amount pushed: a maximum flow,
        or exactly `limit` units when the residual network holds that many
        (the last path is pushed only in part)."""
        s, t = self.vertex(s_id), self.vertex(t_id)
        total = 0
        while limit is None or total < limit:
            level = self._levels(s, t)
            if level[t] < 0:
                break
            it = [0] * len(self._verts)
            while limit is None or total < limit:
                room = None if limit is None else limit - total
                got = self._augment(s, t, level, it, room)
                if not got:
                    break
                total += got
        return total

    def cut_side(self, s_id: int) -> frozenset:
        s = self.vertex(s_id)
        seen = [False] * len(self._verts)
        seen[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for a in self._adj[x]:
                y = self._to[a]
                if self._res[a] > 0 and not seen[y]:
                    seen[y] = True
                    queue.append(y)
        return frozenset(self._verts[i] for i, ok in enumerate(seen) if ok)

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

    def extract_trails(self, s_id: int, t_id: int, count: int) -> list[Trail]:
        """Walk `count` edge-disjoint trails out of the flow, smallest edge id
        first at every step.  Leftover flow (cycles) is discarded.  A final
        hop on an id-less auxiliary arc is stripped from the trail."""
        outgoing: dict[int, list[tuple[int | None, int]]] = {}
        for eid, tail, head in self._flow_units():
            outgoing.setdefault(tail, []).append((eid, head))
        for units in outgoing.values():
            units.sort(key=lambda u: (u[0] is None, u[0] if u[0] is not None else 0))
        cursor: dict[int, int] = {v: 0 for v in outgoing}
        trails = []
        for _ in range(count):
            here = s_id
            prev = here
            last_eid: int | None = None
            edges: list[int] = []
            while here != t_id:
                eid, nxt = outgoing[here][cursor[here]]
                cursor[here] += 1
                prev = here
                last_eid = eid
                here = nxt
                if eid is not None:
                    edges.append(eid)
            end = prev if last_eid is None else t_id
            trails.append(Trail(s_id, end, tuple(edges)))
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
    at each demanded vertex.

    Solved as one flow to an auxiliary vertex joined to each demanded vertex
    by demands[v] parallel edges; the auxiliary vertex never appears in the
    output.  Raises FanInfeasible with the blocking cut when the demands
    cannot be met.
    """
    if g.directed:
        raise GraphError("menger_fan applies to undirected graphs")
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
    value = net.max_flow(source, aux)
    if value < total:
        side = net.cut_side(source)
        crossing = sum(
            1 for e in g.edges
            if not e.is_loop() and (e.tail in side) != (e.head in side)
        )
        raise FanInfeasible(CutResult(crossing, side), total)
    return tuple(net.extract_trails(source, aux, total))
