"""Connectivity-preserving rewrites of Eulerian digraphs.

Two rewrites feed the directed certificate pipeline: splitting off all edges
at non-terminal vertices while preserving directed connectivity between the
surviving terminals, and packing edge-disjoint spanning arborescences with
prescribed (possibly repeated) roots.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# directed_edge_connectivity stays a name of this module: perfbench/tracer.py
# wraps transform.directed_edge_connectivity by name.
from .flow import _bundle_flow, directed_edge_connectivity  # noqa: F401
from .graphs import (
    GraphError,
    MultiGraph,
    NotEulerianError,
    ProvenanceMap,
    UnsupportedSizeError,
    split_off,
)


class NoAdmissiblePairError(GraphError):
    def __init__(self, v: int):
        super().__init__(
            f"no admissible split pair at vertex {v}; "
            "the input violates the splitting precondition"
        )
        self.vertex = v


class PackInfeasible(GraphError):
    def __init__(self, violating_set: frozenset, indegree: int, required: int):
        super().__init__(
            f"arborescence packing infeasible: {sorted(violating_set)} has "
            f"indegree {indegree} but needs {required}"
        )
        self.violating_set = violating_set
        self.indegree = indegree
        self.required = required


@dataclass
class Arborescence:
    """A spanning out-tree: every vertex reachable from the root, each
    non-root vertex with exactly one incoming edge."""

    root: int
    edges: tuple[int, ...]
    parents: dict[int, tuple[int, int]]  # vertex -> (parent vertex, edge id)


@dataclass
class ReducedDigraph:
    digraph: MultiGraph
    provenance: ProvenanceMap


def _move_unit(bundles: dict[tuple[int, int], int], u: int, v: int,
               w: int) -> None:
    """Take one unit off the bundles u->v and v->w and, unless u == w (the
    split makes a loop, which carries no flow), put it on u->w."""
    for key in ((u, v), (v, w)):
        if bundles[key] == 1:
            del bundles[key]
        else:
            bundles[key] -= 1
    if u != w:
        bundles[(u, w)] = bundles.get((u, w), 0) + 1


class _SplitGuard:
    """Exact connectivity guard for splitting off arc pairs of an Eulerian
    digraph, kept across any number of splits.

    Splitting keeps a digraph Eulerian, and an Eulerian digraph has
    lambda(a, b) == lambda(b, a), so each unordered guard pair {a, b} keeps
    one maximum a->b flow over the arc bundles, of value lambda(a, b).  A
    split never raises lambda, so it is admissible exactly when every pair
    still has a flow of its value afterwards.  Most pairs show one without a
    flow solve: their flow leaves slack on both split bundles, or carries a
    unit over both, which moves onto the new arc.  The rest are solved
    again on the split capacities, stopping at lambda.
    """

    def __init__(self, d: MultiGraph, pairs):
        self._caps: dict[tuple[int, int], int] = {}
        for e in d.edges:
            if not e.is_loop():
                key = (e.tail, e.head)
                self._caps[key] = self._caps.get(key, 0) + 1
        self._pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs})
        self._values: list[int] = []
        self._flows: list[dict[tuple[int, int], int]] = []
        for a, b in self._pairs:
            value, flow = _bundle_flow(self._caps, a, b)
            self._values.append(value)
            self._flows.append(flow)

    def _try(self, u: int, v: int, w: int) -> bool:
        """Split one arc u->v and one arc v->w into u->w if that keeps every
        pair's connectivity; report whether it did."""
        caps = self._caps
        reroute, resolve = [], []
        for i, flow in enumerate(self._flows):
            f_uv, f_vw = flow.get((u, v), 0), flow.get((v, w), 0)
            if f_uv < caps[(u, v)] and f_vw < caps[(v, w)]:
                continue
            (reroute if f_uv and f_vw else resolve).append(i)
        split = dict(caps)
        _move_unit(split, u, v, w)
        solved = []
        for i in resolve:
            (a, b), want = self._pairs[i], self._values[i]
            value, flow = _bundle_flow(split, a, b, want)
            if value < want:
                return False
            solved.append((i, flow))
        self._caps = split
        for i in reroute:
            _move_unit(self._flows[i], u, v, w)
        for i, flow in solved:
            self._flows[i] = flow
        return True

    def split(self, d: MultiGraph, v: int) -> tuple[int, int]:
        """First in/out edge pair at v (ascending ids) whose split keeps
        every pair's connectivity; the guard then holds the split digraph.
        `d` must be the digraph the guard holds."""
        outs = d.out_edges(v)
        for ei in d.in_edges(v):
            for eo in outs:
                if self._try(ei.tail, v, eo.head):
                    return ei.id, eo.id
        raise NoAdmissiblePairError(v)


def admissible_split(
    d: MultiGraph,
    v: int,
    guard: list[tuple[int, int]],
) -> tuple[int, int]:
    """First in/out edge pair at v (ascending ids) whose split leaves the
    directed connectivity of every guard pair unchanged.

    The guard is a list of ordered vertex pairs not involving v; (a, b) and
    (b, a) guard the same connectivity, as the input is Eulerian.  For an
    Eulerian input a pair always exists; running out of candidates means
    the preconditions were violated and raises NoAdmissiblePairError.
    """
    if not d.directed:
        raise GraphError("admissible_split applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("admissible_split needs an Eulerian digraph")
    if v not in d.vertex_set:
        raise GraphError(f"unknown vertex {v}")
    for a, b in guard:
        if v in (a, b):
            raise GraphError("guard pairs must avoid the split vertex")
        if a == b or a not in d.vertex_set or b not in d.vertex_set:
            raise GraphError(f"bad guard pair ({a}, {b})")
    if not d.in_edges(v) or not d.out_edges(v):
        raise GraphError(f"vertex {v} has no non-loop edges to split")
    return _SplitGuard(d, guard).split(d, v)


def reduce_to_terminals(d: MultiGraph, terminals) -> ReducedDigraph:
    """Split off every non-terminal vertex of an Eulerian digraph.

    The result lives on exactly the terminal set, stays Eulerian, preserves
    the directed connectivity of every ordered terminal pair, and its
    provenance lifts each surviving edge to a directed trail of original
    edges.  Loops (original or created by splitting a digon) are dropped
    along with their provenance.  Each split is the first admissible pair
    at its vertex, as admissible_split would pick it.
    """
    if not d.directed:
        raise GraphError("reduce_to_terminals applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("reduce_to_terminals needs an Eulerian digraph")
    terms = sorted(set(terminals))
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if not set(terms) <= d.vertex_set:
        raise GraphError("terminals must be vertices of the digraph")
    g = d
    prov = ProvenanceMap.identity(d)
    loops = [e.id for e in g.edges if e.is_loop()]
    if loops:
        g = g.without_edges(loops)
        prov = prov.drop(loops)
    rest = sorted(g.vertex_set - set(terms))
    if rest:
        guard = _SplitGuard(g, combinations(terms, 2))
    for v in rest:
        while g.degree(v) != (0, 0):
            e_in, e_out = guard.split(g, v)
            fresh = g.next_edge_id
            g, prov = split_off(g, e_in, e_out, prov)
            if g.edge(fresh).is_loop():
                g = g.without_edges([fresh])
                prov = prov.drop([fresh])
        g = g.without_vertex(v)
    return ReducedDigraph(g, prov)


def _deficient_set(
    arcs: list[tuple[int, int, int]],
    covered_masks: list[int],
    full_mask: int,
) -> int | None:
    """First vertex subset (as a bitmask) whose unused indegree cannot feed
    every arborescence still missing it; None when the packing can finish.
    `arcs` holds (edge id, tail mask, head mask) for the unused edges."""
    x = 1
    while x <= full_mask:
        need = sum(1 for m in covered_masks if not m & x)
        if need:
            indeg = 0
            for _, tm, hm in arcs:
                if hm & x and not tm & x:
                    indeg += 1
                    if indeg >= need:
                        break
            if indeg < need:
                return x
        x += 1
    return None


def pack_arborescences(d: MultiGraph, roots) -> list[Arborescence]:
    """Edge-disjoint spanning arborescences, one per entry of `roots`
    (repeats allowed).

    Feasibility is the exact cut condition: every vertex subset must have at
    least as many incoming unused edges as there are arborescences not yet
    touching it.  Strongly len(roots)-edge-connected digraphs always pass.
    Growth is edge-by-edge in ascending id order, re-checking the condition
    before accepting each edge; instances are expected to be small.
    """
    if not d.directed:
        raise GraphError("pack_arborescences applies to digraphs")
    roots = list(roots)
    if not roots:
        raise GraphError("need at least one root")
    if not set(roots) <= d.vertex_set:
        raise GraphError("roots must be vertices of the digraph")
    verts = d.vertices
    n = len(verts)
    if n > 14:
        raise UnsupportedSizeError(
            f"packing is limited to 14 vertices, got {n}")
    bit = {v: 1 << i for i, v in enumerate(verts)}
    full = (1 << n) - 1
    arcs = [
        (e.id, bit[e.tail], bit[e.head])
        for e in d.edges
        if not e.is_loop()
    ]
    covered = [bit[r] for r in roots]
    violating = _deficient_set(arcs, covered, full)
    if violating is not None:
        vset = frozenset(v for v in verts if bit[v] & violating)
        indeg = sum(
            1 for e in d.edges
            if not e.is_loop() and e.head in vset and e.tail not in vset
        )
        need = sum(1 for r in roots if r not in vset)
        raise PackInfeasible(vset, indeg, need)
    k = len(roots)
    parents: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]
    tree_edges: list[list[int]] = [[] for _ in range(k)]
    unused = {eid for eid, _, _ in arcs}
    heads = {e.id: e.head for e in d.edges}
    tails = {e.id: e.tail for e in d.edges}
    while True:
        grow = next((i for i in range(k) if covered[i] != full), None)
        if grow is None:
            break
        accepted = False
        for eid, tm, hm in arcs:
            if eid not in unused or not tm & covered[grow] or hm & covered[grow]:
                continue
            unused.discard(eid)
            covered[grow] |= hm
            rest = [a for a in arcs if a[0] in unused]
            if _deficient_set(rest, covered, full) is None:
                parents[grow][heads[eid]] = (tails[eid], eid)
                tree_edges[grow].append(eid)
                accepted = True
                break
            unused.add(eid)
            covered[grow] &= ~hm
        if not accepted:
            raise GraphError(
                "internal: arborescence packing stalled although the cut "
                "condition held"
            )
    return [
        Arborescence(roots[i], tuple(sorted(tree_edges[i])), parents[i])
        for i in range(k)
    ]


def arborescence_path(arb: Arborescence, target: int) -> list[int]:
    """Edge ids of the unique root-to-target path, in travel order."""
    if target == arb.root:
        raise GraphError("path target must differ from the root")
    if target not in arb.parents:
        raise GraphError(f"vertex {target} is not covered by the arborescence")
    path = []
    x = target
    while x != arb.root:
        x, eid = arb.parents[x]
        path.append(eid)
    path.reverse()
    return path
