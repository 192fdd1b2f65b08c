"""Multigraph and multidigraph values with stable edge identity.

Graphs are immutable: every rewrite (split_off, contract, induced_subgraph)
returns a new graph.  Edge ids are allocated append-only and never
reused across rewrites of the same graph, so provenance records and
certificates can name edges that no longer exist in the current graph.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class GraphError(Exception):
    """Invalid graph operation or malformed input."""


class ParseError(GraphError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NotEulerianError(GraphError):
    pass


class UnsupportedSizeError(GraphError):
    """Valid input beyond a deliberate size limit of an exact method."""


@dataclass(frozen=True)
class EdgeRecord:
    """One edge of a multigraph.  Undirected edges keep tail <= head."""

    id: int
    tail: int
    head: int

    def is_loop(self) -> bool:
        return self.tail == self.head

    def ends(self) -> tuple[int, int]:
        return (self.tail, self.head)

    def other_end(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise GraphError(f"vertex {v} is not an end of edge {self.id}")


class MultiGraph:
    """A finite multigraph (directed=False) or multidigraph (directed=True).

    Parallel edges and loops are allowed.  Vertex ids are arbitrary
    non-negative integers; parsing produces dense 0..n-1 ids but contraction
    and reduction leave gaps.
    """

    __slots__ = ("directed", "_vertex_set", "_vertices", "_edges", "_next_id")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[EdgeRecord | tuple[int, int, int]],
        directed: bool,
        next_edge_id: int | None = None,
    ):
        vset = frozenset(int(v) for v in vertices)
        if any(v < 0 for v in vset):
            raise GraphError("vertex ids must be non-negative")
        recs: dict[int, EdgeRecord] = {}
        for e in edges:
            if not isinstance(e, EdgeRecord):
                eid, tail, head = e
                e = EdgeRecord(int(eid), int(tail), int(head))
            if not directed and e.tail > e.head:
                e = EdgeRecord(e.id, e.head, e.tail)
            if e.id in recs:
                raise GraphError(f"duplicate edge id {e.id}")
            if e.tail not in vset or e.head not in vset:
                raise GraphError(f"edge {e.id} touches unknown vertex")
            recs[e.id] = e
        self.directed = directed
        self._vertex_set = vset
        self._vertices = tuple(sorted(vset))
        self._edges = dict(sorted(recs.items()))
        top = max(self._edges) + 1 if self._edges else 0
        if next_edge_id is None:
            next_edge_id = top
        elif next_edge_id < top:
            raise GraphError("next_edge_id collides with an existing edge id")
        self._next_id = next_edge_id

    # -- construction helpers -------------------------------------------------

    @classmethod
    def undirected(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        """Vertices 0..n-1, edge ids assigned in list order."""
        return cls(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)], False)

    @classmethod
    def directed_graph(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        return cls(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)], True)

    # -- basic queries --------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        return tuple(self._edges.values())

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def next_edge_id(self) -> int:
        return self._next_id

    def edge(self, eid: int) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"no edge with id {eid}") from None

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"MultiGraph({kind}, n={len(self._vertices)}, m={len(self._edges)})"

    def in_edges(self, v: int) -> list[EdgeRecord]:
        return [e for e in self._edges.values() if e.head == v and not e.is_loop()]

    def out_edges(self, v: int) -> list[EdgeRecord]:
        return [e for e in self._edges.values() if e.tail == v and not e.is_loop()]

    def is_eulerian(self) -> bool:
        """Every vertex has indegree == outdegree.  Directed graphs only;
        connectivity is not required."""
        if not self.directed:
            raise GraphError("is_eulerian applies to directed graphs")
        bal: dict[int, int] = {}
        for e in self._edges.values():
            bal[e.tail] = bal.get(e.tail, 0) + 1
            bal[e.head] = bal.get(e.head, 0) - 1
        return all(x == 0 for x in bal.values())

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted tuples, ordered by smallest
        member."""
        adj: dict[int, list[int]] = {v: [] for v in self._vertices}
        for e in self._edges.values():
            if not e.is_loop():
                adj[e.tail].append(e.head)
                adj[e.head].append(e.tail)
        seen: set[int] = set()
        out = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                x = queue.popleft()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            out.append(tuple(sorted(comp)))
        return tuple(out)

    # -- rewrites -------------------------------------------------------------

    def contract(self, block: Iterable[int]) -> "MultiGraph":
        """Identify the vertices of `block` into one supernode (the smallest
        member keeps its id).  All edge ids survive; edges inside the block
        become loops."""
        bset = set(block)
        if not bset or not bset <= self._vertex_set:
            raise GraphError("contract needs a non-empty subset of the vertices")
        rep = min(bset)
        remap = lambda v: rep if v in bset else v
        edges = [EdgeRecord(e.id, remap(e.tail), remap(e.head))
                 for e in self._edges.values()]
        vertices = (self._vertex_set - bset) | {rep}
        return MultiGraph(vertices, edges, self.directed, self._next_id)

    def induced_subgraph(self, vertices: Iterable[int]) -> "MultiGraph":
        keep = set(vertices)
        if not keep <= self._vertex_set:
            raise GraphError("induced_subgraph needs existing vertices")
        edges = [e for e in self._edges.values()
                 if e.tail in keep and e.head in keep]
        return MultiGraph(keep, edges, self.directed, self._next_id)

    def underlying(self) -> "MultiGraph":
        """Forget directions; edge ids are preserved."""
        if not self.directed:
            raise GraphError("underlying applies to directed graphs")
        return MultiGraph(self._vertex_set, self._edges.values(), False, self._next_id)


class ProvenanceMap:
    """Maps each current edge id to the ordered list of original edge ids it
    replaces.  Fresh split edges concatenate their parents' lists; every
    original id appears in at most one list."""

    __slots__ = ("_m",)

    def __init__(self, mapping: Mapping[int, Iterable[int]]):
        self._m = {int(k): tuple(v) for k, v in mapping.items()}

    @classmethod
    def identity(cls, g: MultiGraph) -> "ProvenanceMap":
        return cls({e.id: (e.id,) for e in g.edges})

    def of(self, eid: int) -> tuple[int, ...]:
        try:
            return self._m[eid]
        except KeyError:
            raise GraphError(f"no provenance for edge {eid}") from None

    def items(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        return iter(self._m.items())

    def merge_for_split(self, e1: int, e2: int, fresh: int) -> "ProvenanceMap":
        m = dict(self._m)
        first = m.pop(e1)
        second = m.pop(e2)
        m[fresh] = first + second
        return ProvenanceMap(m)

    def __len__(self) -> int:
        return len(self._m)


def split_off(
    g: MultiGraph, e1: int, e2: int, provenance: ProvenanceMap | None = None
) -> tuple[MultiGraph, ProvenanceMap]:
    """Replace the directed path u->v, v->w by one fresh arc u->w; a loop
    appears when u == w.  Returns the new digraph and the provenance map
    with the fresh arc mapped to the concatenation of its parents' trails.
    """
    if not g.directed:
        raise GraphError("split_off applies to digraphs")
    if e1 == e2:
        raise GraphError("split_off needs two distinct edges")
    r1, r2 = g.edge(e1), g.edge(e2)
    if r2.tail != r1.head:
        raise GraphError(
            f"edges {e1} and {e2} do not form a directed path of length two"
        )
    if provenance is None:
        provenance = ProvenanceMap.identity(g)
    fresh = g.next_edge_id
    edges = [e for e in g.edges if e.id not in (e1, e2)]
    edges.append(EdgeRecord(fresh, r1.tail, r2.head))
    g2 = MultiGraph(g.vertex_set, edges, True, fresh + 1)
    return g2, provenance.merge_for_split(e1, e2, fresh)


# -- edge-list text format ----------------------------------------------------

# The most vertices an edge-list header may declare, and the most vertices or
# edges `gen` makes: checked first, so a short input cannot exhaust memory.
SIZE_LIMIT = 10**6


def parse_graph(text: str) -> MultiGraph:
    """Read the edge-list format: a header line ``graph n m`` or
    ``digraph n m`` and then exactly m lines ``u v`` with 0-based endpoints.
    Every number is a run of ASCII digits.  ``#`` starts a comment that runs
    to the end of the line."""
    rows: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((no, line))
    if not rows:
        raise ParseError("empty document", 1)
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] not in ("graph", "digraph"):
        raise ParseError(f"malformed header {head!r}", head_no)
    # Numbers are runs of ASCII digits: int() alone would also take signs,
    # underscores and the digits of other scripts.
    if not all(p.isdigit() and p.isascii() for p in parts[1:]):
        raise ParseError(f"malformed header {head!r}", head_no)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:  # more digits than int() converts
        raise UnsupportedSizeError(f"line {head_no}: header count too large") from None
    if n > SIZE_LIMIT:
        raise UnsupportedSizeError(f"line {head_no}: more than {SIZE_LIMIT} vertices")
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
        edges.append((eid, u, v))
    return MultiGraph(range(n), edges, directed)


def serialize_graph(g: MultiGraph) -> str:
    """Canonical edge-list text: header plus one line per edge in ascending
    edge-id order.  Requires dense vertex ids 0..n-1."""
    n = len(g.vertices)
    if g.vertices != tuple(range(n)):
        raise GraphError("serialization needs dense vertex ids 0..n-1")
    kind = "digraph" if g.directed else "graph"
    lines = [f"{kind} {n} {g.edge_count}"]
    lines.extend(f"{e.tail} {e.head}" for e in g.edges)
    return "\n".join(lines) + "\n"
