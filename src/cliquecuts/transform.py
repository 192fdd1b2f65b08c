"""Connectivity-preserving rewrites of Eulerian digraphs.

The classical route behind the directed threshold 2t(t-1), which the
directed pipeline does not run: splitting off all edges at non-terminal
vertices while preserving directed connectivity between the surviving
terminals (Mader), and packing edge-disjoint spanning arborescences with
prescribed (possibly repeated) roots (Edmonds).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .flow import _Net
from .graphs import GraphError, MultiGraph, NotEulerianError, UnsupportedSizeError

# directed_edge_connectivity and split_off stay names of this module:
# perfbench/tracer.py wraps transform.directed_edge_connectivity and
# transform.split_off by name.
from .flow import directed_edge_connectivity  # noqa: F401
from .graphs import split_off  # noqa: F401


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


class _SplitGuard:
    """Exact connectivity guard for splitting off arc pairs of an Eulerian
    digraph, kept across any number of splits.

    Splitting keeps a digraph Eulerian, and an Eulerian digraph has
    lambda(a, b) == lambda(b, a), so each unordered guard pair {a, b} keeps
    one maximum a->b flow, of value lambda(a, b).  All pairs share one
    network with an arc slot per (tail, head) bundle, and each pair owns a
    residual list for it, swapped in to augment.  A split never raises
    lambda, so it is admissible exactly when every pair still has a flow of
    its value afterwards.  A pair whose flow leaves slack on both split
    bundles, or carries a unit over both (the unit moves onto the new arc),
    has one as it is.  Otherwise one split bundle is saturated and the
    other unused, and the saturated bundle x->y gives up a unit.  The split
    keeps the pair's value exactly when that unit can be rerouted by a
    residual x->y path: if g is a flow of the old value on the split
    digraph and f the flow short of the unit, g - f sends one unit from x
    to y over residual arcs of f.
    """

    def __init__(self, vertices, arcs, pairs):
        self._net = _Net()
        for x in vertices:
            self._net.vertex(x)
        caps: dict[tuple[int, int], int] = {}
        for key in arcs:
            caps[key] = caps.get(key, 0) + 1
        # Bundle x->y with capacity c and flow f is the arc pair at
        # slots[(x, y)]: residual c - f forwards, f backwards.
        self._slots: dict[tuple[int, int], int] = {}
        for (x, y), c in caps.items():
            self._slots[(x, y)] = len(self._net._to)
            self._net.add_group(x, y, c, 0, ())
        init = self._net._res
        self._pairs = sorted({(min(a, b), max(a, b)) for a, b in pairs})
        self._flows: list[list[int]] = []  # per pair: its residual list
        for a, b in self._pairs:
            res = list(init)
            self._push(res, a, b, None)
            self._flows.append(res)

    def _slot(self, x: int, y: int) -> int:
        """The forward arc of bundle x->y, added with capacity 0 if new."""
        a = self._slots.get((x, y))
        if a is None:
            a = self._slots[(x, y)] = len(self._net._to)
            self._net.add_group(x, y, 0, 0, ())
            # add_group grew the residual list swapped in last; grow every
            # pair's list that it was not.
            for res in self._flows:
                if len(res) == a:
                    res += (0, 0)
        return a

    def _push(self, res: list[int], s: int, t: int, limit: int | None) -> int:
        self._net._res = res
        return self._net.max_flow(s, t, limit)

    def split(self, u: int, v: int, w: int) -> bool:
        """Split one arc u->v and one arc v->w into u->w if that keeps every
        pair's connectivity; report whether it did."""
        uv, vw = self._slot(u, v), self._slot(v, w)
        uw = self._slot(u, w) if u != w else None
        slack, carry, rerouted = [], [], []
        for i, res in enumerate(self._flows):
            if res[uv] and res[vw]:
                slack.append(res)
            elif res[uv + 1] and res[vw + 1]:
                carry.append(res)
            else:
                # Both bundles have an arc, so the saturated one carries
                # flow and the other none.  Take the split network's
                # residuals with one unit off the saturated x->y.
                x, y, sat, idle = (
                    (u, v, uv, vw) if res[uv + 1] else (v, w, vw, uv))
                trial = list(res)
                trial[sat + 1] -= 1
                trial[idle] -= 1
                if uw is not None:
                    trial[uw] += 1
                if not self._push(trial, x, y, 1):
                    return False
                rerouted.append((i, trial))
        for res in slack:
            res[uv] -= 1
            res[vw] -= 1
            if uw is not None:
                res[uw] += 1
        for res in carry:
            res[uv + 1] -= 1
            res[vw + 1] -= 1
            if uw is not None:
                res[uw + 1] += 1
        for i, trial in rerouted:
            self._flows[i] = trial
        return True

    def first_split(self, v: int, ins, outs) -> tuple[int, int]:
        """First arc of `ins`, (id, tail) pairs of the arcs into v, and of
        `outs`, (id, head) pairs of the arcs out of v, both in ascending
        ids, whose split keeps every pair's connectivity; the guard then
        holds the split digraph."""
        for ei, u in ins:
            for eo, w in outs:
                if self.split(u, v, w):
                    return ei, eo
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
    ins, outs = d.in_edges(v), d.out_edges(v)
    if not ins or not outs:
        raise GraphError(f"vertex {v} has no non-loop edges to split")
    arcs = [e.ends() for e in d.edges if not e.is_loop()]
    return _SplitGuard(d.vertices, arcs, guard).first_split(
        v, [(e.id, e.tail) for e in ins], [(e.id, e.head) for e in outs])


def reduce_to_terminals(d: MultiGraph, terminals) -> ReducedDigraph:
    """Split off every non-terminal vertex of an Eulerian digraph.

    The result lives on exactly the terminal set, stays Eulerian, preserves
    the directed connectivity of every ordered terminal pair, and its
    provenance lifts each surviving edge to a directed trail of original
    edges.  Loops (original or created by splitting a digon) are dropped
    along with their provenance.  Each split is the first admissible pair
    at its vertex, as admissible_split would pick it, and takes the next
    edge id, as split_off would give it.
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
    # The working digraph, split in place: per vertex, its arcs in and out
    # as {arc id: other end}, in ascending ids (a split's fresh id is the
    # largest yet).
    ins: dict[int, dict[int, int]] = {x: {} for x in d.vertices}
    outs: dict[int, dict[int, int]] = {x: {} for x in d.vertices}
    prov: dict[int, tuple[int, ...]] = {}
    arcs = []
    for e in d.edges:
        if not e.is_loop():
            outs[e.tail][e.id], ins[e.head][e.id] = e.head, e.tail
            prov[e.id] = (e.id,)
            arcs.append(e.ends())
    fresh = d.next_edge_id
    rest = sorted(d.vertex_set - set(terms))
    if rest:
        guard = _SplitGuard(d.vertices, arcs, combinations(terms, 2))
    for v in rest:
        while ins[v]:
            e_in, e_out = guard.first_split(
                v, ins[v].items(), outs[v].items())
            u, w = ins[v].pop(e_in), outs[v].pop(e_out)
            del outs[u][e_in], ins[w][e_out]
            trail = prov.pop(e_in) + prov.pop(e_out)
            if u != w:
                outs[u][fresh], ins[w][fresh] = w, u
                prov[fresh] = trail
            fresh += 1
    edges = [(i, x, y) for x in terms for i, y in outs[x].items()]
    g = MultiGraph(terms, edges, True, fresh)
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
            raise GraphError(
                "internal: arborescence packing stalled although the cut "
                "condition held"
            )
    return [
        Arborescence(roots[i], tuple(sorted(tree_edges[i]))) for i in range(k)
    ]

