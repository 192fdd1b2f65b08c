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

A network is built from a graph in whole-list passes: one loop bundles
the edges, and one method writes arc pairs from per-bundle columns,
interleaving the arc and capacity lists by slices and then listing each
vertex's arcs.  It serves any number of flows, as reset() undoes the flow
pushed so far, so one network carries a decide's capped flows and then its
fan, whose auxiliary sink add_sink joins to it through that same method.
Flows and cut sides are asked only of vertices the network holds: any
other id raises KeyError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from itertools import compress
from operator import gt, itemgetter

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


def _interleave(out: list, even: list, odd: list) -> None:
    """Append even[0], odd[0], even[1], odd[1], ... to out."""
    base = len(out)
    out += even
    out += odd
    out[base::2] = even
    out[base + 1::2] = odd


class _Net:
    """Edmonds-Karp solver.  Arcs are stored in pairs; arc a's reverse is
    a ^ 1, and its edge ids are _ids[a >> 1].

    Built from a graph in whole-list passes: the vertex index follows
    g.vertices, and each non-loop (tail, head) bundle is one arc pair, the
    bundles in ascending smallest-id order.  Undirected edges keep
    tail <= head, so their pairs are unordered.  Ids within a bundle ascend,
    as g.edges is in id order."""

    def __init__(self, g: MultiGraph):
        bundles: dict[tuple[int, int], list[int]] = {}
        for eid, u, v in g.edges:
            if u != v:
                bundles.setdefault((u, v), []).append(eid)
        self._verts: list[int] = list(g.vertices)
        self._index: dict[int, int] = dict(
            zip(self._verts, range(len(self._verts))))
        self._adj: list[list[int]] = [[] for _ in self._verts]
        # Arc heads, capacities, residuals, and each pair's edge ids.
        self._to, self._init, self._res, self._ids = [], [], [], []
        caps = list(map(len, bundles.values()))
        self._add_pairs(map(itemgetter(0), bundles),
                        map(itemgetter(1), bundles), caps,
                        [0] * len(caps) if g.directed else caps,
                        list(bundles.values()))

    def _add_pairs(self, tails, heads, caps: list[int], back: list[int],
                   ids: list[Sequence[int]]) -> None:
        """Write every arc pair: one per bundle k, its first arc tails[k] ->
        heads[k] of capacity caps[k], its second back of capacity back[k],
        the pair carrying the edge ids ids[k]."""
        base = len(self._to)
        index = self._index.__getitem__
        _interleave(self._to, list(map(index, heads)), list(map(index, tails)))
        _interleave(self._init, caps, back)
        _interleave(self._res, caps, back)
        self._ids += ids
        # Each vertex lists the arcs leaving it in ascending order: arc a
        # enters to[a], so a ^ 1 leaves it.
        adj = self._adj
        for a, y in enumerate(self._to[base:], base):
            adj[y].append(a ^ 1)

    def add_sink(self, sink: int, demands: dict[int, int]) -> None:
        """Add the vertex `sink`, new to the network, and join each vertex
        v with demands[v] > 0 to it by one id-less pair of capacity
        demands[v] toward it and 0 back, in ascending order of v."""
        if sink in self._index:
            raise GraphError(f"vertex {sink} is already in the network")
        self._index[sink] = len(self._verts)
        self._verts.append(sink)
        self._adj.append([])
        tails = [v for v in sorted(demands) if demands[v] > 0]
        self._add_pairs(tails, [sink] * len(tails),
                        [demands[v] for v in tails], [0] * len(tails),
                        [()] * len(tails))

    def out_capacity(self, v: int) -> int:
        """Total capacity of the arcs leaving v: its non-loop degree on a
        graph, its out-degree on a digraph."""
        init = self._init
        return sum(init[a] for a in self._adj[self._index[v]])

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
        # The loop also visits the vertices appended while it runs.
        queue = [s]
        for x in queue:
            for a in adj[x]:
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
        s, t = self._index[s_id], self._index[t_id]
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
        via = self._search(self._index[s_id], None)
        return frozenset(v for v, a in zip(self._verts, via) if a is not None)

    def _flow_units(self):
        """Yield one (edge id or None, tail vertex, head vertex) per unit of
        net flow; ids within a bundle are consumed in ascending order."""
        verts, to, ids = self._verts, self._to, self._ids
        init, res = self._init, self._res
        # An arc carries net flow exactly when its residual fell below its
        # capacity; compress picks those few arcs out of the whole list.
        for arc in compress(range(len(to)), map(gt, init, res)):
            head, tail = verts[to[arc]], verts[to[arc ^ 1]]
            pair = ids[arc >> 1]
            for k in range(init[arc] - res[arc]):
                yield (pair[k] if pair else None, tail, head)

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


def min_cut(g: MultiGraph, u: int, v: int) -> CutResult:
    """A minimum u-v edge cut (u->v arcs on a digraph); its value is the
    number of edge-disjoint u-v trails, 0 when no trail exists.  The side is
    the residual-reachable set around u, so the result is deterministic."""
    if u not in g.vertex_set or v not in g.vertex_set:
        raise GraphError(f"unknown vertex in pair ({u}, {v})")
    if u == v:
        raise GraphError("connectivity queries need two distinct vertices")
    net = _Net(g)
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
    for v, dem in demands.items():
        if v not in g.vertex_set:
            raise GraphError(f"unknown vertex {v}")
        if v == source:
            raise GraphError("source cannot carry a demand")
        if dem < 0:
            raise GraphError("demands must be non-negative")
    return _fan(_Net(g), g, source, demands)


def _fan(net: _Net, g: MultiGraph, source: int,
         demands: dict[int, int]) -> tuple[Trail, ...]:
    """menger_fan on `net`, a network built from g that may carry flow: it
    is reset first, and the auxiliary sink's arcs stay in it afterwards."""
    total = sum(demands.values())
    if total == 0:
        return ()
    net.reset()
    aux = max(g.vertices) + 1
    net.add_sink(aux, demands)
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
