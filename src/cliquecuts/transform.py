"""Connectivity-preserving rewrites of Eulerian digraphs.

The classical route behind the directed threshold 2t(t-1), which the
directed pipeline does not run: splitting off all edges at non-terminal
vertices while preserving directed connectivity between the surviving
terminals (Mader), and packing edge-disjoint spanning arborescences with
prescribed (possibly repeated) roots (Edmonds).

Splitting is done the textbook way: each candidate arc pair is split off
into a new digraph and the guarded connectivities are solved on it from
scratch.  Exact and simple, not fast; the library's own pipeline never
calls this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .flow import directed_edge_connectivity
from .graphs import (
    GraphError,
    MultiGraph,
    NotEulerianError,
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


@dataclass
class ReducedDigraph:
    """The digraph left on the terminals, and for each of its arc ids the
    trail of original arc ids, in travel order, that the arc stands for."""

    digraph: MultiGraph
    provenance: dict[int, tuple[int, ...]]


def admissible_split(
    d: MultiGraph,
    v: int,
    guard: list[tuple[int, int]],
    baselines: dict[tuple[int, int], int] | None = None,
) -> tuple[int, int]:
    """First in/out edge pair at v (ascending ids) whose split leaves the
    directed connectivity of every guard pair unchanged.

    The guard is a list of ordered vertex pairs not involving v; (a, b) and
    (b, a) guard the same connectivity, as the input is Eulerian and so is
    every split of it.  `baselines`, when given, holds those connectivities
    on d, keyed by (min, max) of each pair; otherwise they are solved here.
    Each trial split is built with split_off and each pair solved afresh on
    it.  For an Eulerian input a pair always exists; running out of
    candidates means the preconditions were violated and raises
    NoAdmissiblePairError.
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
    ins, outs = d.in_edges(v), d.out_edges(v)
    if not ins or not outs:
        raise GraphError(f"vertex {v} has no non-loop edges to split")
    if baselines is None:
        baselines = {(a, b): directed_edge_connectivity(d, a, b)
                     for a, b in {(min(a, b), max(a, b)) for a, b in guard}}
    for ei in ins:
        for eo in outs:
            trial = split_off(d, ei.id, eo.id)
            if all(directed_edge_connectivity(trial, a, b) == value
                   for (a, b), value in baselines.items()):
                return ei.id, eo.id
    raise NoAdmissiblePairError(v)


def reduce_to_terminals(d: MultiGraph, terminals) -> ReducedDigraph:
    """Split off every non-terminal vertex of an Eulerian digraph.

    The result lives on exactly the terminal set, stays Eulerian, preserves
    the directed connectivity of every ordered terminal pair, and its
    provenance lifts each surviving edge to a directed trail of original
    edges.  Loops (original or created by splitting a digon) are dropped
    along with their provenance.  Non-terminals are split in ascending
    order, each split is the pair admissible_split picks, and split_off
    gives it the next edge id.
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
    g = MultiGraph(d.vertex_set, [e for e in d.edges if not e.is_loop()],
                   True, d.next_edge_id)
    prov = {e.id: (e.id,) for e in g.edges}
    guard = list(combinations(terms, 2))
    # Every admissible split keeps these values, so they are solved once.
    baselines = {(a, b): directed_edge_connectivity(g, a, b)
                 for a, b in guard}
    for v in sorted(d.vertex_set - set(terms)):
        while g.in_edges(v):
            e_in, e_out = admissible_split(g, v, guard, baselines)
            g = split_off(g, e_in, e_out)
            trail = prov.pop(e_in) + prov.pop(e_out)
            arc = g.edge(g.next_edge_id - 1)
            if not arc.is_loop():
                prov[arc.id] = trail
    edges = [e for e in g.edges if not e.is_loop()]
    return ReducedDigraph(MultiGraph(terms, edges, True, g.next_edge_id), prov)


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
    tree_edges: list[list[int]] = [[] for _ in range(k)]
    unused = {eid for eid, _, _ in arcs}
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
                tree_edges[grow].append(eid)
                accepted = True
                break
            unused.add(eid)
            covered[grow] &= ~hm
        if not accepted:
            raise RuntimeError(
                "arborescence packing stalled although the cut condition held")
    return [
        Arborescence(roots[i], tuple(sorted(tree_edges[i]))) for i in range(k)
    ]

