"""Exhaustive reference computations used as oracles by the test suite.

Everything here recomputes results from first principles (subset
enumeration, breadth-first search on explicit edge lists) so that the
library's flow, tree and packing code is checked against independent
logic.  Keep these functions dumb and obviously correct; speed only has
to cover desk-scale instances.
"""

from __future__ import annotations

from itertools import combinations

from cliquecuts import graphs
from cliquecuts import EdgeRecord, MultiGraph, ParseError, UnsupportedSizeError


def degree(g: MultiGraph, v: int):
    """Undirected: the edge ends at v, a loop counting twice.  Directed:
    (indegree, outdegree), a loop counting once in each."""
    din = sum(1 for e in g.edges if e.head == v)
    dout = sum(1 for e in g.edges if e.tail == v)
    return (din, dout) if g.directed else din + dout


def cut_size(g: MultiGraph, side) -> int:
    """Number of non-loop edges with exactly one end in ``side``.

    Directed graphs count crossings in both directions, matching the
    undirected boundary of the side.
    """
    side = frozenset(side)
    total = 0
    for e in g.edges:
        if e.is_loop():
            continue
        if (e.tail in side) != (e.head in side):
            total += 1
    return total


def out_arcs(d: MultiGraph, side) -> int:
    """Arcs leaving ``side``; loops never cross."""
    side = frozenset(side)
    return sum(
        1
        for e in d.edges
        if not e.is_loop() and e.tail in side and e.head not in side
    )


def _sides_separating(vertices, u: int, v: int):
    rest = [w for w in vertices if w not in (u, v)]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            yield frozenset((u, *extra))


def min_cut_undirected(g: MultiGraph, u: int, v: int) -> int:
    """Minimum |boundary| over all bipartitions with u inside, v outside."""
    return min(cut_size(g, side) for side in _sides_separating(g.vertices, u, v))


def min_cut_directed(d: MultiGraph, u: int, v: int) -> int:
    """Minimum number of arcs leaving a set containing u but not v."""
    return min(out_arcs(d, side) for side in _sides_separating(d.vertices, u, v))


def min_cut_sides(g: MultiGraph, u: int, v: int) -> list[frozenset]:
    """The u-side of every minimum u-v cut: every bipartition with u inside
    and v outside whose boundary (arcs leaving it, on a digraph) is least."""
    size = out_arcs if g.directed else cut_size
    sides = list(_sides_separating(g.vertices, u, v))
    best = min(size(g, side) for side in sides)
    return [side for side in sides if size(g, side) == best]


def strong_connectivity(d: MultiGraph) -> int:
    """Global minimum of out_arcs over nonempty proper vertex subsets.

    Equals the strong edge-connectivity for n >= 2; returns a large
    sentinel for single-vertex digraphs (no separating cut exists).
    """
    vs = d.vertices
    if len(vs) < 2:
        return len(d.edges) + 1
    best = None
    others = vs[1:]
    # Fixing vs[0] inside covers every cut: a set or its complement holds it.
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            if r == len(others):
                continue
            side = frozenset((vs[0], *extra))
            for s in (side, frozenset(vs) - side):
                val = out_arcs(d, s)
                if best is None or val < best:
                    best = val
    return best


def reachable(g: MultiGraph, start: int, edge_ids=None) -> frozenset:
    """Vertices reachable from start along (a subset of) the edges.

    Directed graphs follow arc direction; undirected edges go both ways.
    """
    allowed = None if edge_ids is None else set(edge_ids)
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for e in g.edges:
            if allowed is not None and e.id not in allowed:
                continue
            if e.is_loop():
                continue
            nxt = None
            if e.tail == x and e.head not in seen:
                nxt = e.head
            elif not g.directed and e.head == x and e.tail not in seen:
                nxt = e.tail
            if nxt is not None:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def is_arborescence(d: MultiGraph, root: int, edge_ids) -> bool:
    """Check that edge_ids spans d from root with unique in-edges."""
    ids = set(edge_ids)
    if len(ids) != len(d.vertices) - 1:
        return False
    indeg = {v: 0 for v in d.vertices}
    for eid in ids:
        e = d.edge(eid)
        if e.is_loop():
            return False
        indeg[e.head] += 1
    if indeg[root] != 0:
        return False
    if any(c != 1 for v, c in indeg.items() if v != root):
        return False
    return reachable(d, root, ids) == d.vertex_set


def trail_is_consistent(g: MultiGraph, trail, start: int, end: int) -> bool:
    """Edge ids chain from start to end; directed trails follow arcs."""
    at = start
    for eid in trail:
        e = g.edge(eid)
        if g.directed:
            if e.tail != at:
                return False
            at = e.head
        else:
            if at not in e.ends():
                return False
            at = e.other_end(at)
    return at == end


def _uncrossed(comp_sets: list[set], x: frozenset, y: frozenset) -> bool:
    # In every component, one of the four overlap quadrants must be empty.
    for c in comp_sets:
        a = x & c
        b = y & c
        if a <= b or b <= a or not (a & b) or (a | b) >= c:
            continue
        return False
    return True


def first_crossing_pair(g: MultiGraph, sides: list) -> tuple[int, int] | None:
    """Index pair of the first two cut sides that cross; None if the family
    is laminar."""
    comp_sets = [set(c) for c in g.components()]
    fs = [frozenset(s) for s in sides]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not _uncrossed(comp_sets, fs[i], fs[j]):
                return (i, j)
    return None


def parse_graph(text: str) -> MultiGraph:
    """The edge-list format read one line at a time: the reference that
    cliquecuts.parse_graph must match on every text, graph and error
    alike."""
    rows: list[tuple[int, str]] = []
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((no, line))
    if not rows:
        raise ParseError("empty document", 1)
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] not in ("graph", "digraph"):
        raise ParseError(f"malformed header {head!r}", head_no)
    if not all(p.isdigit() and p.isascii() for p in parts[1:]):
        raise ParseError(f"malformed header {head!r}", head_no)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:  # more digits than int() converts
        raise UnsupportedSizeError(f"line {head_no}: header count too large") from None
    if n > graphs.SIZE_LIMIT:
        raise UnsupportedSizeError(
            f"line {head_no}: more than {graphs.SIZE_LIMIT} vertices")
    body = rows[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}", head_no)
    directed = parts[0] == "digraph"
    edges = []
    for eid, (no, line) in enumerate(body):
        toks = line.split()
        if not (len(toks) == 2 and toks[0].isdigit() and toks[1].isdigit()
                and toks[0].isascii() and toks[1].isascii()):
            raise ParseError(f"expected 'u v', got {line!r}", no)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:  # more digits than int() converts: out of range
            u = v = n
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(f"vertex index out of range in {line!r}", no)
        if not directed and u > v:
            u, v = v, u
        edges.append(EdgeRecord(eid, u, v))
    return MultiGraph(range(n), edges, directed)


def graph_edges(vertices, edges, directed: bool):
    """The edges MultiGraph(vertices, edges, directed) holds, as
    (edges in id order, next edge id), by its rules applied one edge at a
    time in input order: convert to ints, order undirected ends, and raise
    GraphError at the first repeated id or unknown end."""
    vset = set(vertices)
    recs = {}
    for eid, tail, head in edges:
        eid, tail, head = int(eid), int(tail), int(head)
        if not directed and tail > head:
            tail, head = head, tail
        if eid in recs:
            raise graphs.GraphError(f"duplicate edge id {eid}")
        if tail not in vset or head not in vset:
            raise graphs.GraphError(f"edge {eid} touches unknown vertex")
        recs[eid] = EdgeRecord(eid, tail, head)
    return tuple(recs[i] for i in sorted(recs)), max(recs, default=-1) + 1
