"""Multigraph and multidigraph values with stable edge identity.

Graphs are immutable: every rewrite (split_off, contract) returns a new
graph.  Edge ids are allocated append-only and never reused across
rewrites of the same graph, so provenance records and certificates can
name edges that no longer exist in the current graph.
"""
from __future__ import annotations

import re
from itertools import repeat
from operator import ge, gt, itemgetter
from typing import Iterable, NamedTuple


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


class EdgeRecord(NamedTuple):
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
        vset = frozenset(map(int, vertices))
        if vset and min(vset) < 0:
            raise GraphError("vertex ids must be non-negative")
        edges = list(edges)
        if not set(map(type, edges)) <= {EdgeRecord}:
            edges = [EdgeRecord(int(eid), int(tail), int(head))
                     for eid, tail, head in edges]
        # Every rule is tested on whole columns; only a rejected collection
        # is scanned edge by edge, for its first fault.
        ids, tails, heads = list(zip(*edges)) or ((), (), ())
        ascending = not any(map(ge, ids, ids[1:]))
        if (not ascending and len(set(ids)) < len(ids)
                or not vset.issuperset(tails) or not vset.issuperset(heads)):
            raise GraphError(_first_fault(edges, vset))
        if not directed and any(map(gt, tails, heads)):
            edges = _records(ids, map(min, tails, heads),
                             map(max, tails, heads))
        recs = dict(zip(ids, edges))
        if not ascending:
            recs = dict(sorted(recs.items()))
        self.directed = directed
        self._vertex_set = vset
        self._vertices = tuple(sorted(vset))
        self._edges = recs
        top = next(reversed(recs)) + 1 if recs else 0
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
        connectivity is not required.  The tail column and the head column
        must count each vertex equally often, so they sort to one list."""
        if not self.directed:
            raise GraphError("is_eulerian applies to directed graphs")
        edges = self._edges.values()
        return (sorted(map(itemgetter(1), edges))
                == sorted(map(itemgetter(2), edges)))

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Weakly connected components as sorted tuples, ordered by smallest
        member."""
        # A loop lists its vertex as its own neighbour, which the search
        # has already seen, so loops need no test.
        adj: dict[int, list[int]] = {v: [] for v in self._vertices}
        for _, tail, head in self._edges.values():
            adj[tail].append(head)
            adj[head].append(tail)
        seen: set[int] = set()
        out = []
        for start in self._vertices:
            if start in seen:
                continue
            seen.add(start)
            # The loop also visits the vertices appended while it runs.
            comp = [start]
            for x in comp:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
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

    def underlying(self) -> "MultiGraph":
        """Forget directions; edge ids are preserved."""
        if not self.directed:
            raise GraphError("underlying applies to directed graphs")
        return MultiGraph(self._vertex_set, self._edges.values(), False, self._next_id)


def split_off(g: MultiGraph, e1: int, e2: int) -> MultiGraph:
    """Replace the directed path u->v, v->w by one fresh arc u->w, which
    takes g's next edge id; a loop appears when u == w."""
    if not g.directed:
        raise GraphError("split_off applies to digraphs")
    if e1 == e2:
        raise GraphError("split_off needs two distinct edges")
    r1, r2 = g.edge(e1), g.edge(e2)
    if r2.tail != r1.head:
        raise GraphError(
            f"edges {e1} and {e2} do not form a directed path of length two"
        )
    fresh = g.next_edge_id
    edges = [e for e in g.edges if e.id not in (e1, e2)]
    edges.append(EdgeRecord(fresh, r1.tail, r2.head))
    return MultiGraph(g.vertex_set, edges, True, fresh + 1)


# -- edge-list text format ----------------------------------------------------

# The most vertices an edge-list header may declare, and the most vertices or
# edges `gen` makes: checked first, so a short input cannot exhaust memory.
SIZE_LIMIT = 10**6


_COMMENT = re.compile(r"#[^\n]*")


def _records(ids, tails, heads) -> list[EdgeRecord]:
    """EdgeRecords from three columns, with no Python call per edge."""
    return list(map(tuple.__new__, repeat(EdgeRecord), zip(ids, tails, heads)))


def _first_fault(edges: list[EdgeRecord], vset: frozenset) -> str:
    """The complaint about the first edge, in list order, whose id repeats
    an earlier one or which touches a vertex outside vset."""
    seen = set()
    for eid, tail, head in edges:
        if eid in seen:
            return f"duplicate edge id {eid}"
        if tail not in vset or head not in vset:
            return f"edge {eid} touches unknown vertex"
        seen.add(eid)
    raise AssertionError("no faulty edge")


def _first_bad_row(rows: list[str], n: int) -> tuple[int, str]:
    """Index of the first edge row that is not two ASCII numerals below n,
    and the complaint about it."""
    for k, row in enumerate(rows):
        toks = row.split()
        digits = "".join(toks)
        if len(toks) != 2 or not (digits.isdigit() and digits.isascii()):
            return k, "expected 'u v', got {!r}"
        try:
            if max(map(int, toks)) < n:
                continue
        except ValueError:  # more digits than int() converts: out of range
            pass
        return k, "vertex index out of range in {!r}"
    raise AssertionError("no bad edge row")


def parse_graph(text: str) -> MultiGraph:
    """Read the edge-list format: a header line ``graph n m`` or
    ``digraph n m`` and then exactly m lines ``u v`` with 0-based endpoints.
    Every number is a run of ASCII digits.  Lines end at ``\\n`` only, and
    ``#`` starts a comment that runs to the end of its line.

    The body is read in whole-list passes and validated once; only a
    rejected body is searched row by row for its first bad line."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    lines = list(map(str.strip, text.split("\n")))
    rows = list(filter(None, lines))
    if not rows:
        raise ParseError("empty document", 1)
    head = rows[0]
    head_no = lines.index(head) + 1
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
    if not body:
        return MultiGraph(range(n), (), directed)
    tokens = " ".join(body).split()
    digits = "".join(tokens)
    ends = None
    if (set(map(len, map(str.split, body))) == {2} and digits.isdigit()
            and digits.isascii()):
        try:
            ends = list(map(int, tokens))
        except ValueError:  # more digits than int() converts: out of range
            pass
    if ends is None or max(ends) >= n:
        k, complaint = _first_bad_row(body, n)
        line_nos = [no for no, line in enumerate(lines, start=1) if line]
        raise ParseError(complaint.format(body[k]), line_nos[k + 1])
    tails, heads = ends[0::2], ends[1::2]
    if not directed:
        tails, heads = map(min, tails, heads), map(max, tails, heads)
    return MultiGraph(range(n), _records(range(m), tails, heads), directed)


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
