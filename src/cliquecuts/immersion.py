"""Decompose-or-certify pipelines over multigraphs and Eulerian digraphs.

For a target clique order t, the undirected pipeline either returns a
laminar family of edge cuts all smaller than (t-1)^2 whose blocks have
fewer than t vertices, or an explicit immersion certificate for the
complete graph on t vertices: an injective vertex map plus pairwise
edge-disjoint trails.  The directed pipeline does the same on Eulerian
digraphs with threshold 2t(t-1) and the bidirected clique as pattern.

A returned decomposition never claims that no immersion exists; only the
certificate direction is definite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Mapping

from .flow import CutResult, menger_fan, min_cut
from .gomoryhu import build_gomory_hu
from .graphs import (
    GraphError,
    MultiGraph,
    NotEulerianError,
    UnsupportedSizeError,
)
from .transform import arborescence_path, pack_arborescences, reduce_to_terminals


def cut_threshold(t: int, directed: bool) -> int:
    """Cut sizes below this value go into the decomposition."""
    if t < 2:
        raise GraphError("t must be at least 2")
    return 2 * t * (t - 1) if directed else (t - 1) ** 2


def _pattern_pairs(t: int, directed: bool) -> Iterator[tuple[int, int]]:
    for i in range(t):
        for j in range(0 if directed else i + 1, t):
            if i != j:
                yield (i, j)


def pattern_edges(t: int, directed: bool) -> list[tuple[int, int]]:
    """Edges of the pattern clique on vertices 0..t-1; ordered pairs (both
    directions) in the directed case."""
    return list(_pattern_pairs(t, directed))


class TerminalCutTooSmall(GraphError):
    def __init__(self, pair: tuple[int, int], cut: CutResult, required: int):
        super().__init__(
            f"cut of size {cut.value} separates terminals {pair[0]} and "
            f"{pair[1]}; extraction needs {required}"
        )
        self.pair = pair
        self.cut = cut
        self.required = required


@dataclass(frozen=True)
class SelectedCut:
    tree_edge: tuple[int, int]
    side: frozenset
    other: frozenset
    size: int


@dataclass(frozen=True)
class LaminarDecomposition:
    t: int
    directed: bool
    threshold: int
    cuts: tuple[SelectedCut, ...]
    blocks: tuple[tuple[int, ...], ...]


@dataclass
class ImmersionCertificate:
    """phi maps pattern vertex i to host vertex phi[i]; trails maps each
    pattern edge to the edge-id sequence of its host trail."""

    t: int
    directed: bool
    phi: tuple[int, ...]
    trails: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    problem: str | None = None


@dataclass(frozen=True)
class ThickStar:
    """A star whose every spoke is a bundle of t-1 parallel edges.  Bundle
    label (j, i) names the copy in leaf j's bundle reserved for routing to
    pattern vertex i (1-based positions, leaf positions run 2..t)."""

    t: int
    graph: MultiGraph
    labels: Mapping[tuple[int, int], int]


def thick_star(t: int) -> ThickStar:
    """Center vertex 0, leaves 1..t-1, t-1 parallel edges per spoke."""
    if t < 2:
        raise GraphError("t must be at least 2")
    pairs = []
    labels: dict[tuple[int, int], int] = {}
    for j in range(2, t + 1):
        for i in range(1, t + 1):
            if i == j:
                continue
            labels[(j, i)] = len(pairs)
            pairs.append((0, j - 1))
    return ThickStar(t, MultiGraph.undirected(t, pairs), labels)


def thick_star_route(t: int) -> ImmersionCertificate:
    """The canonical clique immersion inside thick_star(t): spoke copies
    labelled for the far endpoint meet at the center, so pattern edge (p, q)
    with p >= 1 rides leaf p+1's copy for q+1 and leaf q+1's copy for p+1."""
    star = thick_star(t)
    trails: dict[tuple[int, int], tuple[int, ...]] = {}
    for q in range(1, t):
        trails[(0, q)] = (star.labels[(q + 1, 1)],)
    for p in range(1, t):
        for q in range(p + 1, t):
            trails[(p, q)] = (star.labels[(p + 1, q + 1)],
                              star.labels[(q + 1, p + 1)])
    return ImmersionCertificate(t, False, tuple(range(t)), trails)


def _trim_to_path(host: MultiGraph, edges: Iterable[int], start: int,
                  end: int) -> list[int]:
    """Drop closed sub-walks so the edge sequence becomes a vertex-simple
    path from start to end.  Only deletes edges, so disjointness across
    trails survives."""
    seq = [start]
    pos = {start: 0}
    kept: list[int] = []
    for eid in edges:
        e = host.edge(eid)
        here = seq[-1]
        if host.directed:
            if e.tail != here:
                raise GraphError("internal: trail breaks direction")
            nxt = e.head
        else:
            nxt = e.other_end(here)
        kept.append(eid)
        seq.append(nxt)
        p = pos.get(nxt)
        if p is None:
            pos[nxt] = len(seq) - 1
        else:
            for v in seq[p + 1:-1]:
                del pos[v]
            del seq[p + 1:]
            del kept[p:]
    if seq[-1] != end:
        raise GraphError("internal: trail endpoint mismatch")
    return kept


def _check_terminals(g: MultiGraph, terminals) -> list[int]:
    terms = list(terminals)
    if len(terms) < 2:
        raise GraphError("need at least two terminals")
    if len(set(terms)) != len(terms):
        raise GraphError("terminals must be distinct")
    if not set(terms) <= g.vertex_set:
        raise GraphError("terminals must be vertices of the host")
    return terms


def extract_clique_immersion(g: MultiGraph, terminals) -> ImmersionCertificate:
    """Clique immersion certificate with phi(i) = terminals[i].

    Builds the fan of (t-1)^2 edge-disjoint trails out of terminals[0],
    t-1 of them to each other terminal, and reads each fan trail as one
    edge of thick_star(t): centre terminals[0], leaf l terminals[l].  The
    pattern trails are thick_star_route(t) walked through that star, a
    star edge taken from the centre riding its fan trail forwards and one
    taken from the leaf riding it reversed.  Feasibility is re-checked by
    the fan itself; FanInfeasible carries the violated cut.
    """
    if g.directed:
        raise GraphError("extract_clique_immersion applies to undirected hosts")
    terms = _check_terminals(g, terminals)
    t = len(terms)
    source = terms[0]
    fan = menger_fan(g, source, {v: t - 1 for v in terms[1:]})
    per_end: dict[int, list[tuple[int, ...]]] = {v: [] for v in terms[1:]}
    for tr in fan:
        per_end[tr.end].append(tr.edges)
    if any(len(bundle) != t - 1 for bundle in per_end.values()):
        raise GraphError("internal: fan returned a wrong trail count")
    star = thick_star(t)
    # A leaf's spoke copies take its terminal's fan trails in fan order.
    bundles = {leaf: iter(per_end[terms[leaf]]) for leaf in range(1, t)}
    spoke = {e.id: next(bundles[e.head]) for e in star.graph.edges}
    trails: dict[tuple[int, int], tuple[int, ...]] = {}
    for (p, q), star_trail in thick_star_route(t).trails.items():
        here = p
        walk: list[int] = []
        for k in star_trail:
            walk.extend(spoke[k] if here == 0 else reversed(spoke[k]))
            here = star.graph.edge(k).other_end(here)
        trails[(p, q)] = tuple(_trim_to_path(g, walk, terms[p], terms[q]))
    return ImmersionCertificate(t, False, tuple(terms), trails)


def extract_directed_clique_immersion(d: MultiGraph, terminals) -> ImmersionCertificate:
    """Bidirected-clique immersion certificate on an Eulerian digraph.

    Re-verifies that every two terminals are separated only by cuts of at
    least 2t(t-1) edges (counting both directions), splits off all other
    vertices, packs t-1 spanning arborescences per terminal in the reduced
    digraph, reads one root-to-target path out of each, and lifts those
    paths back through the provenance of the splits.
    """
    if not d.directed:
        raise GraphError("extract_directed_clique_immersion applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("host digraph must be Eulerian")
    terms = _check_terminals(d, terminals)
    t = len(terms)
    required = cut_threshold(t, True)
    und = d.underlying()
    for a, b in combinations(sorted(terms), 2):
        cut = min_cut(und, a, b)
        if cut.value < required:
            raise TerminalCutTooSmall((a, b), cut, required)
    red = reduce_to_terminals(d, terms)
    roots = [v for v in terms for _ in range(t - 1)]
    arbs = pack_arborescences(red.digraph, roots)
    trails: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(t):
        others = sorted((j for j in range(t) if j != i), key=lambda j: terms[j])
        for k, j in enumerate(others):
            arb = arbs[i * (t - 1) + k]
            lifted: list[int] = []
            for eid in arborescence_path(arb, terms[j]):
                lifted.extend(red.provenance.of(eid))
            trails[(i, j)] = tuple(_trim_to_path(d, lifted, terms[i], terms[j]))
    return ImmersionCertificate(t, True, tuple(terms), trails)


def _pipeline(g: MultiGraph, t: int, directed: bool):
    tree = build_gomory_hu(g.underlying() if directed else g)
    threshold = cut_threshold(t, directed)
    selected = [e for e in tree.edges if e.weight < threshold]
    blocks = tree.blocks_without(selected)
    for block in blocks:
        if len(block) >= t:
            terminals = list(block[:t])
            if directed:
                return extract_directed_clique_immersion(g, terminals)
            return extract_clique_immersion(g, terminals)
    cuts = []
    for e in selected:
        side, other = tree.fundamental_partition(e)
        cuts.append(SelectedCut((e.a, e.b), side, other, e.weight))
    return LaminarDecomposition(t, directed, threshold, tuple(cuts), blocks)


def decompose_undirected(g: MultiGraph, t: int):
    """Laminar decomposition with cuts below (t-1)^2 and blocks below t
    vertices, or a clique immersion certificate extracted from the t
    lowest-id vertices of the first oversized block."""
    if g.directed:
        raise GraphError("decompose_undirected applies to undirected graphs")
    cut_threshold(t, False)
    return _pipeline(g, t, False)


def decompose_directed(d: MultiGraph, t: int):
    """Same dichotomy for Eulerian digraphs: cuts below 2t(t-1) (both
    directions counted) or a bidirected-clique immersion certificate."""
    if not d.directed:
        raise GraphError("decompose_directed applies to digraphs")
    if not d.is_eulerian():
        raise NotEulerianError("decompose_directed needs an Eulerian digraph")
    cut_threshold(t, True)
    return _pipeline(d, t, True)


# -- verification -------------------------------------------------------------

def _first(pairs: Iterator[tuple[int, int]], shown: int = 5) -> str:
    """The first `shown` pairs as a list, with "..." when more follow."""
    head = list(islice(pairs, shown + 1))
    text = ", ".join(map(repr, head[:shown]))
    return f"[{text}, ...]" if len(head) > shown else f"[{text}]"


def verify_certificate(host: MultiGraph, cert: ImmersionCertificate) -> VerificationReport:
    """Recheck a certificate from scratch: injective phi into the host, the
    full pattern present, every trail walking real host edges end to end in
    the right direction, and global edge-disjointness.  Returns the first
    violated condition with a witness."""

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg)

    def in_pattern(key) -> bool:
        i, j = key
        return 0 <= i < t and 0 <= j < t and (i != j if cert.directed else i < j)

    t = cert.t
    if t < 2:
        return fail(f"pattern size {t} is below 2")
    if cert.directed != host.directed:
        return fail("certificate directedness does not match the host")
    if len(cert.phi) != t:
        return fail(f"phi has {len(cert.phi)} entries, expected {t}")
    if len(set(cert.phi)) != t:
        return fail("phi is not injective")
    for v in cert.phi:
        if v not in host.vertex_set:
            return fail(f"phi maps to unknown host vertex {v}")
    # t comes from the artifact, so the pattern is counted, not built: a
    # mismatch costs a scan of the trails and of the pattern up to the
    # first pairs it reports.
    size = t * (t - 1) if cert.directed else t * (t - 1) // 2
    if len(cert.trails) != size or not all(map(in_pattern, cert.trails)):
        missing = _first(
            k for k in _pattern_pairs(t, cert.directed) if k not in cert.trails)
        extra = _first(k for k in cert.trails if not in_pattern(k))
        return fail(f"pattern edges mismatch: missing {missing}, extra {extra}")
    used: dict[int, tuple[int, int]] = {}
    for key in sorted(cert.trails):
        trail = cert.trails[key]
        if not trail:
            return fail(f"empty trail for pattern edge {key}")
        here = cert.phi[key[0]]
        goal = cert.phi[key[1]]
        for eid in trail:
            if not host.has_edge(eid):
                return fail(f"trail for {key} uses unknown edge {eid}")
            if eid in used:
                return fail(
                    f"edge-disjointness violated: edge {eid} appears in "
                    f"{used[eid]} and {key}"
                )
            used[eid] = key
            e = host.edge(eid)
            if host.directed:
                if e.tail != here:
                    return fail(f"direction broken at edge {eid} in trail {key}")
                here = e.head
            else:
                if here not in e.ends():
                    return fail(f"trail for {key} is not connected at edge {eid}")
                here = e.other_end(here)
        if here != goal:
            return fail(f"trail for {key} ends at {here}, expected {goal}")
    return VerificationReport(True)


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


def verify_decomposition(g: MultiGraph, t: int, mode: str,
                         dec: LaminarDecomposition) -> VerificationReport:
    """Recheck a decomposition from scratch: threshold arithmetic, exact cut
    recounts below threshold, pairwise laminarity, blocks partitioning the
    vertex set with fewer than t vertices each, and the blocks being exactly
    the classes left after all the cuts."""

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg)

    if mode not in ("undirected", "directed"):
        raise GraphError(f"unknown mode {mode!r}")
    directed = mode == "directed"
    if g.directed != directed:
        return fail("mode does not match the graph")
    if t < 2:
        return fail(f"t {t} is below 2")
    if dec.t != t or dec.directed != directed:
        return fail("decomposition was produced for different parameters")
    want = cut_threshold(t, directed)
    if dec.threshold != want:
        return fail(f"threshold {dec.threshold} should be {want}")
    comps = [set(c) for c in g.components()]
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    vset = g.vertex_set
    for idx, cut in enumerate(dec.cuts):
        x, y = cut.side, cut.other
        if not x or not y or x & y or not (x | y) <= vset:
            return fail(f"cut {idx} has a malformed bipartition")
        ci = comp_of[next(iter(x))]
        if (x | y) != comps[ci]:
            return fail(f"cut {idx} does not split a single component")
        size = sum(
            1 for e in g.edges
            if not e.is_loop() and (e.tail in x) != (e.head in x)
        )
        if size != cut.size:
            return fail(
                f"cut {idx} recount mismatch: recorded {cut.size}, actual {size}"
            )
        if size >= want:
            return fail(f"cut {idx} has size {size}, not below {want}")
    crossing = first_crossing_pair(g, [c.side for c in dec.cuts])
    if crossing is not None:
        return fail(f"cuts {crossing[0]} and {crossing[1]} cross")
    seen: set[int] = set()
    for block in dec.blocks:
        if len(block) >= t:
            return fail(f"block {block} has {len(block)} vertices, limit {t - 1}")
        for v in block:
            if v not in vset or v in seen:
                return fail(f"blocks do not partition the vertex set (at {v})")
            seen.add(v)
    if seen != vset:
        return fail("blocks do not cover the vertex set")
    keys: dict[int, tuple] = {
        v: (comp_of[v],) + tuple(v in c.side for c in dec.cuts) for v in vset
    }
    classes: dict[tuple, set] = {}
    for v, key in keys.items():
        classes.setdefault(key, set()).add(v)
    if {frozenset(b) for b in dec.blocks} != {frozenset(c) for c in classes.values()}:
        return fail("blocks do not match the classes induced by the cuts")
    return VerificationReport(True)


# -- exhaustive oracle --------------------------------------------------------

def brute_force_immersion(t: int, host: MultiGraph, *,
                          max_edges: int = 12) -> ImmersionCertificate | None:
    """Exhaustive immersion search, independent of the pipelines: try every
    injective placement and assign vertex-simple, pairwise edge-disjoint
    paths by backtracking.  Guarded to hosts with at most `max_edges`
    non-loop edges."""
    if t < 2:
        raise GraphError("t must be at least 2")
    real = [e for e in host.edges if not e.is_loop()]
    if len(real) > max_edges:
        raise UnsupportedSizeError(
            f"oracle refuses hosts with more than {max_edges} non-loop edges"
        )
    pattern = pattern_edges(t, host.directed)
    if len(pattern) > len(real):
        return None
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in host.vertices}
    din: dict[int, int] = {v: 0 for v in host.vertices}
    dout: dict[int, int] = {v: 0 for v in host.vertices}
    for e in real:
        adj[e.tail].append((e.id, e.head))
        dout[e.tail] += 1
        din[e.head] += 1
        if not host.directed:
            adj[e.head].append((e.id, e.tail))
    for v in adj:
        adj[v].sort()
    if host.directed:
        cand = [v for v in host.vertices
                if din[v] >= t - 1 and dout[v] >= t - 1]
    else:
        cand = [v for v in host.vertices if din[v] + dout[v] >= t - 1]
    if len(cand) < t:
        return None
    used: set[int] = set()

    def paths(v, goal, visited, acc):
        # Among unused parallels to the same next vertex only the lowest id
        # is tried; parallels are interchangeable across any solution.
        tried: set[int] = set()
        for eid, w in adj[v]:
            if eid in used or w in tried or w in visited:
                continue
            tried.add(w)
            if w == goal:
                yield acc + [eid]
            else:
                visited.add(w)
                acc.append(eid)
                yield from paths(w, goal, visited, acc)
                acc.pop()
                visited.discard(w)

    def place(combo, k, trails):
        if k == len(pattern):
            return True
        i, j = pattern[k]
        for path in paths(combo[i], combo[j], {combo[i]}, []):
            used.update(path)
            trails[(i, j)] = tuple(path)
            if place(combo, k + 1, trails):
                return True
            used.difference_update(path)
        trails.pop((i, j), None)
        return False

    for combo in combinations(cand, t):
        trails: dict[tuple[int, int], tuple[int, ...]] = {}
        used.clear()
        if place(combo, 0, trails):
            return ImmersionCertificate(t, host.directed, tuple(combo), trails)
    return None


# -- serialization ------------------------------------------------------------

def outcome_to_json(outcome) -> dict:
    """JSON-compatible form of a pipeline outcome; a ``kind`` field
    discriminates the two."""
    if isinstance(outcome, ImmersionCertificate):
        return {
            "kind": "certificate",
            "t": outcome.t,
            "directed": outcome.directed,
            "phi": list(outcome.phi),
            "trails": [
                {"u": u, "v": v, "edges": list(outcome.trails[(u, v)])}
                for u, v in sorted(outcome.trails)
            ],
        }
    if isinstance(outcome, LaminarDecomposition):
        return {
            "kind": "decomposition",
            "t": outcome.t,
            "directed": outcome.directed,
            "threshold": outcome.threshold,
            "cuts": [
                {
                    "tree_edge": list(c.tree_edge),
                    "size": c.size,
                    "side": sorted(c.side),
                    "other": sorted(c.other),
                }
                for c in outcome.cuts
            ],
            "blocks": [list(b) for b in outcome.blocks],
        }
    raise GraphError(f"cannot serialize {type(outcome).__name__}")


def _int(x) -> int:
    # int() would accept 2.7, "3" and True; a JSON integer must be an int.
    if type(x) is not int:
        raise GraphError(f"malformed artifact document: {x!r} is not an integer")
    return x


def _bool(x) -> bool:
    if type(x) is not bool:
        raise GraphError(f"malformed artifact document: {x!r} is not a boolean")
    return x


def outcome_from_json(obj) -> ImmersionCertificate | LaminarDecomposition:
    """Inverse of outcome_to_json.  Strict: integer fields must be JSON
    integers, ``directed`` a JSON boolean, and no pattern edge may carry two
    trails; anything else raises GraphError."""
    try:
        kind = obj["kind"]
        if kind == "certificate":
            trails = {}
            for row in obj["trails"]:
                key = (_int(row["u"]), _int(row["v"]))
                if key in trails:
                    raise GraphError(
                        f"malformed artifact document: two trails for {key}"
                    )
                trails[key] = tuple(map(_int, row["edges"]))
            return ImmersionCertificate(
                _int(obj["t"]), _bool(obj["directed"]),
                tuple(map(_int, obj["phi"])), trails,
            )
        if kind == "decomposition":
            cuts = tuple(
                SelectedCut(
                    (_int(c["tree_edge"][0]), _int(c["tree_edge"][1])),
                    frozenset(map(_int, c["side"])),
                    frozenset(map(_int, c["other"])),
                    _int(c["size"]),
                )
                for c in obj["cuts"]
            )
            blocks = tuple(tuple(map(_int, b)) for b in obj["blocks"])
            return LaminarDecomposition(
                _int(obj["t"]), _bool(obj["directed"]), _int(obj["threshold"]),
                cuts, blocks,
            )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise GraphError(f"malformed artifact document: {exc}") from None
    raise GraphError(f"unknown artifact kind {obj.get('kind')!r}")
