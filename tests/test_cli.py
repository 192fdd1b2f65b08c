"""End-to-end command-line behaviour through main()."""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import cliquecuts.cli
import cliquecuts.immersion
from cliquecuts import (
    LaminarDecomposition,
    MultiGraph,
    SelectedCut,
    TreeEdge,
    build_gomory_hu,
    decompose_undirected,
    outcome_from_json,
    outcome_to_json,
    parse_graph,
    serialize_graph,
    verify_decomposition,
)
from cliquecuts.cli import main
from cliquecuts.graphs import SIZE_LIMIT
from test_flow import bridge_of_triangles, complete_graph

BRIDGE = serialize_graph(bridge_of_triangles())
K5 = serialize_graph(complete_graph(5))
BIDIRECTED_TRIANGLE = serialize_graph(
    MultiGraph.directed_graph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
)

# Hand-written t=2 certificates: K5 edge 0 is 0-1; bidirected triangle
# arcs 0 and 1 are 0->1 and 1->0.
K5_T2 = {"kind": "certificate", "t": 2, "directed": False, "phi": [0, 1],
         "trails": [{"u": 0, "v": 1, "edges": [0]}]}
TRIANGLE2_T2 = {"kind": "certificate", "t": 2, "directed": True, "phi": [0, 1],
                "trails": [{"u": 0, "v": 1, "edges": [0]},
                           {"u": 1, "v": 0, "edges": [1]}]}

BRIDGE_T3 = outcome_to_json(decompose_undirected(bridge_of_triangles(), 3))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "bridge.txt").write_text(BRIDGE)
    (tmp_path / "k5.txt").write_text(K5)
    (tmp_path / "triangle2.txt").write_text(BIDIRECTED_TRIANGLE)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestDecompose:
    def test_decomposition_document(self, workdir, capsys):
        out = workdir / "out.json"
        code = run("decompose", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "bridge.txt", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "decomposition"
        assert doc["threshold"] == 4
        assert len(doc["blocks"]) == 6

    def test_artifact_is_one_line_of_json(self, workdir):
        out = workdir / "out.json"
        run("decompose", "--t", 3, "--mode", "undirected",
            "--in", workdir / "bridge.txt", "--out", out)
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        outcome = decompose_undirected(bridge_of_triangles(), 3)
        assert json.loads(text) == outcome_to_json(outcome)

    def test_certificate_document(self, workdir):
        out = workdir / "out.json"
        code = run("decompose", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "k5.txt", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "certificate"
        assert doc["phi"] == [0, 1, 2]

    def test_directed_pipeline(self, workdir):
        out = workdir / "out.json"
        code = run("decompose", "--t", 2, "--mode", "directed",
                   "--in", workdir / "triangle2.txt", "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["kind"] == "certificate"

    def test_stdout_default(self, workdir, capsys):
        code = run("decompose", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "k5.txt")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "certificate"

    def test_mode_mismatch(self, workdir, capsys):
        code = run("decompose", "--t", 2, "--mode", "directed",
                   "--in", workdir / "bridge.txt")
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_not_eulerian(self, workdir, capsys):
        (workdir / "arc.txt").write_text("digraph 2 1\n0 1\n")
        code = run("decompose", "--t", 2, "--mode", "directed",
                   "--in", workdir / "arc.txt")
        assert code == 2
        assert "Eulerian" in capsys.readouterr().err

    def test_small_t(self, workdir, capsys):
        code = run("decompose", "--t", 1, "--mode", "undirected",
                   "--in", workdir / "k5.txt")
        assert code == 2
        assert "at least 2" in capsys.readouterr().err

    def test_parse_failure(self, workdir, capsys):
        (workdir / "junk.txt").write_text("graph 2 9\n0 1\n")
        code = run("decompose", "--t", 2, "--mode", "undirected",
                   "--in", workdir / "junk.txt")
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, workdir, capsys):
        code = run("decompose", "--t", 2, "--mode", "undirected",
                   "--in", workdir / "absent.txt")
        assert code == 2

    @pytest.mark.parametrize("text", [
        "graph 1_0 1\n0 9\n", "graph +3 1\n0 1\n", "graph \uff13 1\n0 1\n"])
    def test_integers_int_would_coerce(self, workdir, capsys, text):
        (workdir / "odd.txt").write_text(text, encoding="utf-8")
        code = run("decompose", "--t", 2, "--mode", "undirected",
                   "--in", workdir / "odd.txt")
        assert code == 2
        assert "malformed header" in capsys.readouterr().err


class TestFind:
    def test_certificate_exits_zero(self, workdir):
        code = run("find", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "k5.txt", "--out", workdir / "o.json")
        assert code == 0

    def test_decomposition_exits_one(self, workdir, capsys):
        code = run("find", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "bridge.txt", "--out", workdir / "o.json")
        assert code == 1
        assert "no certificate" in capsys.readouterr().err
        assert json.loads((workdir / "o.json").read_text())["kind"] == (
            "decomposition"
        )


class TestVerify:
    def _decompose(self, workdir, source, t, mode):
        out = workdir / "artifact.json"
        assert run("decompose", "--t", t, "--mode", mode,
                   "--in", source, "--out", out) == 0
        return out

    def test_certificate_round_trip(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "k5.txt", 3, "undirected")
        code = run("verify-cert", "--in", workdir / "k5.txt", "--artifact", art)
        assert code == 0
        assert "certificate OK" in capsys.readouterr().out

    def test_decomposition_round_trip(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "bridge.txt", 3, "undirected")
        code = run("verify-dec", "--in", workdir / "bridge.txt",
                   "--artifact", art)
        assert code == 0
        assert "decomposition OK" in capsys.readouterr().out

    def test_directed_round_trip(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "triangle2.txt", 2, "directed")
        code = run("verify-cert", "--in", workdir / "triangle2.txt",
                   "--artifact", art)
        assert code == 0

    def test_tampered_certificate(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "k5.txt", 3, "undirected")
        doc = json.loads(art.read_text())
        doc["trails"][1]["edges"] = doc["trails"][0]["edges"]
        art.write_text(json.dumps(doc))
        code = run("verify-cert", "--in", workdir / "k5.txt", "--artifact", art)
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_tampered_cut_size(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "bridge.txt", 3, "undirected")
        doc = json.loads(art.read_text())
        doc["cuts"][0]["size"] -= 1
        art.write_text(json.dumps(doc))
        code = run("verify-dec", "--in", workdir / "bridge.txt",
                   "--artifact", art)
        assert code == 1
        assert "recount" in capsys.readouterr().out

    @pytest.mark.parametrize("tree_edge, code", [
        ([999, 12345], 1), ([999, 12345, 7], 2),
    ], ids=["forged-pair", "three-entry"])
    def test_tree_edge_checked(self, workdir, capsys, tree_edge, code):
        art = self._decompose(workdir, workdir / "bridge.txt", 3, "undirected")
        doc = json.loads(art.read_text())
        doc["cuts"][0]["tree_edge"] = tree_edge
        art.write_text(json.dumps(doc))
        assert run("verify-dec", "--in", workdir / "bridge.txt",
                   "--artifact", art) == code
        assert "decomposition OK" not in capsys.readouterr().out

    def test_overlapping_blocks_invalid(self, workdir, capsys):
        # The path 0-1-2 with blocks (0, 1) and (1, 2) sharing vertex 1.
        (workdir / "path.txt").write_text(
            serialize_graph(MultiGraph.undirected(3, [(0, 1), (1, 2)])))
        dec = LaminarDecomposition(3, False, 4, (SelectedCut((0, 2), 1),),
                                   ((0, 1), (1, 2)))
        art = workdir / "overlap.json"
        art.write_text(json.dumps(outcome_to_json(dec)))
        code = run("verify-dec", "--in", workdir / "path.txt", "--artifact", art)
        assert code == 1
        assert capsys.readouterr().out == (
            "decomposition INVALID: blocks do not partition the vertex set "
            "(at 1)\n")

    def test_path_artifact_is_linear(self, workdir, capsys):
        # A 2000-vertex path with two parallel edges per step, at t = 3:
        # each of its 1999 cuts writes one tree edge and one size, so the
        # artifact holds n + 3 * cuts integers, t and the threshold aside.
        n = 2000
        g = MultiGraph.undirected(n, [(v, v + 1) for v in range(n - 1)] * 2)
        cuts = tuple(SelectedCut((v, v + 1), 2) for v in range(n - 1))
        dec = LaminarDecomposition(3, False, 4, cuts,
                                   tuple((v,) for v in range(n)))
        text = json.dumps(outcome_to_json(dec))
        assert len(re.findall(r"\d+", text)) <= n + 3 * len(cuts) + 10
        assert len(text) < 100_000
        start = time.perf_counter()
        report = verify_decomposition(g, outcome_from_json(json.loads(text)))
        elapsed = time.perf_counter() - start
        assert report.ok, report.problem
        assert elapsed < 0.1
        (workdir / "path.txt").write_text(serialize_graph(g))
        (workdir / "path.json").write_text(text)
        start = time.perf_counter()
        code = run("verify-dec", "--in", workdir / "path.txt",
                   "--artifact", workdir / "path.json")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.5

    def test_artifact_kind_must_match_command(self, workdir, capsys):
        art = self._decompose(workdir, workdir / "k5.txt", 3, "undirected")
        code = run("verify-dec", "--in", workdir / "k5.txt", "--artifact", art)
        assert code == 2
        assert "not a decomposition" in capsys.readouterr().err

    def test_malformed_artifact(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        code = run("verify-cert", "--in", workdir / "k5.txt", "--artifact", bad)
        assert code == 2


class TestStrictArtifacts:
    """Values that int() or bool() would coerce into a valid certificate
    are bad input (exit 2), not "certificate OK"."""

    def _verify(self, workdir, host, doc):
        art = workdir / "cert.json"
        art.write_text(json.dumps(doc))
        return run("verify-cert", "--in", workdir / host, "--artifact", art)

    def test_exact_documents_verify(self, workdir, capsys):
        assert self._verify(workdir, "k5.txt", K5_T2) == 0
        assert self._verify(workdir, "triangle2.txt", TRIANGLE2_T2) == 0

    @pytest.mark.parametrize("host, doc", [
        ("k5.txt", {**K5_T2, "t": 2.7}),
        ("k5.txt", {**K5_T2, "phi": [0, 1.9]}),
        ("k5.txt", {**K5_T2, "trails": [{"u": 0, "v": 1, "edges": [0.4]}]}),
        ("triangle2.txt", {**TRIANGLE2_T2, "directed": "no"}),
        ("k5.txt", {**K5_T2, "trails": [{"u": 0, "v": 1, "edges": [5]},
                                        {"u": 0, "v": 1, "edges": [0]}]}),
    ], ids=["t-float", "phi-float", "edges-float", "directed-string",
            "duplicate-trail"])
    def test_coercible_documents_rejected(self, workdir, capsys, host, doc):
        assert self._verify(workdir, host, doc) == 2
        assert "malformed artifact" in capsys.readouterr().err

    @staticmethod
    def _verify_dec(workdir, path=(), value=None):
        doc = copy.deepcopy(BRIDGE_T3)
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        art = workdir / "dec.json"
        art.write_text(json.dumps(doc))
        return run("verify-dec", "--in", workdir / "bridge.txt",
                   "--artifact", art)

    def test_exact_decomposition_verifies(self, workdir, capsys):
        assert self._verify_dec(workdir) == 0

    # A cut's tree edge [a, b] has a on its side and b on its other side:
    # the ids name the end written over.
    @pytest.mark.parametrize("bad", [True, 1.0, "1", None],
                             ids=["true", "float", "string", "null"])
    @pytest.mark.parametrize("path", [
        ("cuts", 2, "tree_edge", 0), ("cuts", 0, "tree_edge", 1),
        ("cuts", 1, "size"), ("blocks", 4, 0),
    ], ids=["side", "other", "size", "block"])
    def test_coercible_vertex_lists_rejected(self, workdir, capsys, path, bad):
        assert self._verify_dec(workdir, path, bad) == 2
        err = capsys.readouterr().err
        assert f"malformed artifact document: {bad!r} is not an integer" in err

    def test_first_bad_vertex_named(self, workdir, capsys):
        assert self._verify_dec(workdir, ("blocks", 0), [0, "1", 2.0]) == 2
        err = capsys.readouterr().err
        assert "'1' is not an integer" in err and "2.0" not in err

    @pytest.mark.parametrize("path", [
        ("cuts", 2, "size"), ("threshold",), ("cuts", 2, "tree_edge", 1),
    ], ids=["size", "threshold", "tree-edge"])
    def test_float_decomposition_fields_rejected(self, workdir, capsys, path):
        doc = BRIDGE_T3
        for key in path:
            doc = doc[key]
        assert self._verify_dec(workdir, path, float(doc)) == 2
        assert "malformed artifact" in capsys.readouterr().err

    @pytest.mark.parametrize("forge", [
        None,
        lambda cut: cut.update(side=cut["other"], other=cut["side"]),
        lambda cut: cut.update(side=[999], other="not a side"),
    ], ids=["exact", "swapped", "garbage"])
    def test_older_format_verifies_on_its_tree_edges(self, workdir, capsys,
                                                      forge):
        # Older artifacts also list each cut's two vertex sides.  Those are
        # neither read nor trusted: forging them changes no verdict.
        doc = copy.deepcopy(BRIDGE_T3)
        tree = build_gomory_hu(bridge_of_triangles())
        for cut in doc["cuts"]:
            side, other = tree.fundamental_partition(
                TreeEdge(*cut["tree_edge"], cut["size"]))
            cut["side"], cut["other"] = sorted(side), sorted(other)
            if forge:
                forge(cut)
        assert self._verify_dec(workdir, ("cuts",), doc["cuts"]) == 0
        doc["cuts"][2]["size"] += 1
        assert self._verify_dec(workdir, ("cuts",), doc["cuts"]) == 1
        assert "cut 2 recount mismatch" in capsys.readouterr().out


# (command, host text, valid artifact) for the fuzzing below.
FUZZ_SEEDS = {
    "undirected-certificate": (
        "verify-cert", K5,
        outcome_to_json(decompose_undirected(complete_graph(5), 3))),
    "directed-certificate": ("verify-cert", BIDIRECTED_TRIANGLE, TRIANGLE2_T2),
    "decomposition": ("verify-dec", BRIDGE, BRIDGE_T3),
}


def _locations(doc, path=()):
    """(path, value) of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


def _wrong_types(value):
    if type(value) is bool:
        return [int(value), str(value).lower()]
    if type(value) is int:
        return [float(value), value + 0.5, str(value), True, False]
    if type(value) is str:
        return [0, None, [value]]
    return []


@st.composite
def mutated_artifacts(draw):
    """A valid artifact with one defect, and the exit codes that may
    answer it: a type-broken document is bad input (2); one that is only
    cut short may also be an invalid artifact (1); none verifies."""
    name = draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    command, host, doc = FUZZ_SEEDS[name]
    doc = copy.deepcopy(doc)
    places = list(_locations(doc))
    kinds = ["retype", "drop", "truncate"]
    if doc["kind"] == "certificate":
        kinds.append("duplicate")
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        path, value = draw(st.sampled_from(
            [(p, v) for p, v in places if _wrong_types(v)]))
        new = draw(st.sampled_from(_wrong_types(value)))
        expect = {2}
    elif kind == "drop":
        path = draw(st.sampled_from(
            [p for p, _ in places if isinstance(p[-1], str)]))
        expect = {2}
    elif kind == "truncate":
        path, value = draw(st.sampled_from(
            [(p, v) for p, v in places if isinstance(v, list) and v]))
        new = value[:draw(st.integers(0, len(value) - 1))]
        expect = {1, 2}
    else:
        path = ("trails",)
        new = doc["trails"] + [copy.deepcopy(
            draw(st.sampled_from(doc["trails"])))]
        expect = {2}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return command, host, doc, expect, f"{kind} {path}"


class TestArtifactFuzzing:
    @given(mutated_artifacts())
    @settings(max_examples=200, deadline=None)
    def test_broken_documents_never_verify(self, case):
        command, host, doc, expect, what = case
        with tempfile.TemporaryDirectory() as tmp:
            host_path = Path(tmp) / "host.txt"
            host_path.write_text(host)
            art = Path(tmp) / "artifact.json"
            art.write_text(json.dumps(doc))
            code = main([command, "--in", str(host_path),
                         "--artifact", str(art)])
        assert code in expect, what

    def test_seeds_verify(self, workdir, capsys):
        for command, host, doc in FUZZ_SEEDS.values():
            (workdir / "host.txt").write_text(host)
            (workdir / "artifact.json").write_text(json.dumps(doc))
            assert run(command, "--in", workdir / "host.txt",
                       "--artifact", workdir / "artifact.json") == 0


ODD_TOKENS = ["1_0", "+3", "\uff13", "\u0663", "\u00b2", "-1", "-0", "1e3",
              "0x3", "3.0", "", "00", "#", "graph", "digraph", "0 1"]


@st.composite
def mutated_edge_lists(draw):
    """A valid edge list with one defect, or two: a header or edge token
    replaced (numbers stay below 1000), a line dropped, repeated or
    inserted.  Returns the text, the --mode of the original, and what was
    done."""
    lines = draw(st.sampled_from([BRIDGE, K5, BIDIRECTED_TRIANGLE])).splitlines()
    mode = "directed" if lines[0].startswith("digraph") else "undirected"
    token = st.one_of(st.sampled_from(ODD_TOKENS),
                      st.integers(0, 999).map(str), st.text(max_size=3))
    done = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["token", "drop", "repeat", "insert"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(token)
            lines[i] = " ".join(parts)
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, " ".join(draw(st.lists(token, max_size=3))))
        done.append(f"{kind} line {i}")
        if not lines:
            break
    return "\n".join(lines) + "\n", mode, ", ".join(done)


class TestEdgeListFuzzing:
    def test_non_utf8_bytes_are_bad_input(self, workdir, capsys):
        (workdir / "bytes.txt").write_bytes(b"graph 2 1\n0 \xff\n")
        (workdir / "bytes.json").write_bytes(b'{"kind": "\xff"}')
        code = run("decompose", "--t", 2, "--mode", "undirected",
                   "--in", workdir / "bytes.txt")
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err
        code = run("verify-cert", "--in", workdir / "k5.txt",
                   "--artifact", workdir / "bytes.json")
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    @given(mutated_edge_lists(), st.integers(2, 4))
    @settings(max_examples=200, deadline=None)
    def test_decompose_accepts_or_rejects(self, case, t):
        # A mutated edge list is either still a valid host (exit 0) or bad
        # input (exit 2): never an internal error, never a traceback.
        text, mode, what = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            host = Path(tmp) / "host.txt"
            host.write_text(text, encoding="utf-8")
            with contextlib.redirect_stderr(err):
                code = main(["decompose", "--t", str(t), "--mode", mode,
                             "--in", str(host),
                             "--out", str(Path(tmp) / "out.json")])
        assert code in (0, 2), (what, text, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestExitCodes:
    def test_internal_error_is_one_line(self, workdir, capsys, monkeypatch):
        def broken(g):
            raise RuntimeError("cut tree lost an edge")
        monkeypatch.setattr(cliquecuts.cli, "build_gomory_hu", broken)
        code = run("gomory-hu", "--in", workdir / "bridge.txt")
        assert code == 3
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: cut tree lost an edge\n")

    def test_broken_fan_is_internal_error(self, workdir, capsys, monkeypatch):
        # Trails that stop one edge short are the program's fault, not the
        # input's: the path trimming check reports them with exit 3.  The
        # lowest three vertices of K5 share a block, so the pipeline runs
        # the fan on its own network through _fan.
        fan = cliquecuts.immersion._fan

        def short_fan(net, g, source, demands):
            return tuple(dataclasses.replace(tr, edges=tr.edges[:-1])
                         for tr in fan(net, g, source, demands))
        monkeypatch.setattr(cliquecuts.immersion, "_fan", short_fan)
        code = run("decompose", "--t", 3, "--mode", "undirected",
                   "--in", workdir / "k5.txt")
        assert code == 3
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: trail endpoint mismatch\n")

    def test_directed_t15_certifies(self, workdir, capsys):
        # t = 15 passes the cut test only with 15 parallel arcs per ordered
        # pair of a 15-vertex host; directed extraction has no vertex limit.
        pairs = [(a, b) for a in range(15) for b in range(15) if a != b]
        host = workdir / "k15.txt"
        host.write_text(serialize_graph(
            MultiGraph.directed_graph(15, pairs * 15)))
        art = workdir / "k15.json"
        assert run("decompose", "--t", 15, "--mode", "directed", "--in", host,
                   "--out", art) == 0
        assert json.loads(art.read_text())["kind"] == "certificate"
        assert run("verify-cert", "--in", host, "--artifact", art) == 0
        assert "certificate OK" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("decompose", "--t", 3, "--mode", "undirected"),
        ("find", "--t", 3, "--mode", "undirected"),
        ("verify-cert", "--artifact", "k5.txt"),
        ("verify-dec", "--artifact", "k5.txt"),
        ("gomory-hu",),
    ], ids=lambda argv: argv[0])
    def test_vertex_count_over_limit(self, workdir, capsys, argv):
        host = workdir / "huge.txt"
        host.write_text(f"graph {SIZE_LIMIT + 1} 0\n")
        argv = [workdir / a if str(a).endswith(".txt") else a for a in argv]
        assert run(*argv, "--in", host) == 4
        assert capsys.readouterr().err == (
            f"unsupported size: line 1: more than {SIZE_LIMIT} vertices\n")

    @pytest.mark.parametrize("family, sizes", [
        ("random-multigraph", ("--n", SIZE_LIMIT + 1, "--m", 0)),
        ("random-multigraph", ("--n", 2, "--m", SIZE_LIMIT + 1)),
        ("random-eulerian-digraph", ("--n", SIZE_LIMIT + 1, "--m", 0)),
        ("random-eulerian-digraph", ("--n", 2, "--m", SIZE_LIMIT + 1)),
        # 2000 vertices of outdegree 501 make 1,002,000 arcs.
        ("simple-eulerian-min-outdeg", ("--n", 2000, "--floor", 501)),
        # The last cycle may overshoot --m by up to --n - 1 arcs.
        ("random-eulerian-digraph", ("--n", 1000, "--m", SIZE_LIMIT)),
    ])
    def test_gen_over_limit(self, workdir, capsys, family, sizes):
        out = workdir / "gen.txt"
        assert run("gen", "--family", family, *sizes, "--out", out) == 4
        assert capsys.readouterr().err.startswith("unsupported size: ")
        assert not out.exists()


    @pytest.mark.parametrize("command", ["verify-cert", "verify-dec"])
    @pytest.mark.parametrize("text", [
        "[" * 100_000,
        '{"kind": "certificate", "t": ' + "9" * 5000 + "}",
    ], ids=["nested-too-deep", "integer-too-long"])
    def test_unparsable_artifact_is_bad_input(self, workdir, capsys,
                                              command, text):
        # Raw text: json.dumps cannot write a 5000-digit integer.
        art = workdir / "artifact.json"
        art.write_text(text)
        assert run(command, "--in", workdir / "k5.txt",
                   "--artifact", art) == 2
        assert capsys.readouterr().err.startswith(
            "error: artifact is not valid JSON: ")


class TestParserReuse:
    def test_later_calls_build_no_parser(self, workdir, monkeypatch, capsys):
        host = workdir / "bridge.txt"
        assert run("gomory-hu", "--in", host) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run("gomory-hu", "--in", host) == 0
        assert run("gomory-hu", "--in", host) == 0
        assert built == []

    def test_no_state_kept_between_calls(self, workdir, capsys):
        host, art = workdir / "bridge.txt", workdir / "artifact.json"
        assert run("decompose", "--t", 3, "--mode", "undirected",
                   "--in", host, "--out", art) == 0
        with pytest.raises(SystemExit) as exc:
            run("verify-cert", "--in", host)
        assert exc.value.code == 2
        assert run("verify-dec", "--in", host, "--artifact", art) == 0
        assert "decomposition OK" in capsys.readouterr().out


class TestModuleEntryPoint:
    def run_module(self, *argv):
        src = str(Path(cliquecuts.cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run(
            [sys.executable, "-m", "cliquecuts", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=60)

    def test_runs_the_command_line(self, workdir):
        done = self.run_module("gomory-hu", "--in", workdir / "bridge.txt")
        assert done.returncode == 0
        assert done.stdout == build_gomory_hu(bridge_of_triangles()).dump()

    def test_bad_input_exits_two(self, workdir):
        (workdir / "junk.txt").write_text("graph +2 1\n0 1\n")
        done = self.run_module("gomory-hu", "--in", workdir / "junk.txt")
        assert done.returncode == 2
        assert "malformed header" in done.stderr


class TestGomoryHu:
    def test_dump_format(self, workdir, capsys):
        code = run("gomory-hu", "--in", workdir / "bridge.txt")
        assert code == 0
        assert capsys.readouterr().out == "0 2 2\n1 2 2\n2 3 1\n3 5 2\n4 5 2\n"

    def test_digraph_uses_underlying(self, workdir, capsys):
        code = run("gomory-hu", "--in", workdir / "triangle2.txt")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.split()[2] == "4" for line in lines)


class TestGen:
    def test_multigraph_family(self, workdir):
        out = workdir / "g.txt"
        assert run("gen", "--family", "random-multigraph", "--n", 6,
                   "--m", 10, "--seed", 7, "--out", out) == 0
        g = parse_graph(out.read_text())
        assert not g.directed
        assert len(g.vertices) == 6
        assert g.edge_count == 10

    def test_eulerian_family_balanced(self, workdir):
        out = workdir / "d.txt"
        assert run("gen", "--family", "random-eulerian-digraph", "--n", 6,
                   "--m", 12, "--seed", 1, "--out", out) == 0
        d = parse_graph(out.read_text())
        assert d.directed
        assert d.is_eulerian()
        assert d.edge_count >= 12

    def test_min_outdeg_family(self, workdir):
        out = workdir / "s.txt"
        assert run("gen", "--family", "simple-eulerian-min-outdeg", "--n", 8,
                   "--floor", 6, "--seed", 3, "--out", out) == 0
        d = parse_graph(out.read_text())
        assert d.is_eulerian()
        seen = set()
        for e in d.edges:
            assert not e.is_loop()
            assert (e.tail, e.head) not in seen
            seen.add((e.tail, e.head))
        assert all(brute.degree(d, v)[1] >= 6 for v in d.vertices)

    def test_same_seed_same_bytes(self, workdir):
        a, b = workdir / "a.txt", workdir / "b.txt"
        args = ("gen", "--family", "random-eulerian-digraph", "--n", 7,
                "--m", 15, "--seed", 42)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_usually_differs(self, workdir):
        a, b = workdir / "a.txt", workdir / "b.txt"
        assert run("gen", "--family", "random-multigraph", "--n", 7, "--m", 14,
                   "--seed", 1, "--out", a) == 0
        assert run("gen", "--family", "random-multigraph", "--n", 7, "--m", 14,
                   "--seed", 2, "--out", b) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_infeasible_floor(self, workdir, capsys):
        code = run("gen", "--family", "simple-eulerian-min-outdeg", "--n", 5,
                   "--floor", 5)
        assert code == 2

    def test_missing_parameters(self, workdir, capsys):
        code = run("gen", "--family", "random-multigraph", "--n", 5)
        assert code == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family", ["random-multigraph", "random-eulerian-digraph"])
    def test_negative_edge_count(self, workdir, capsys, family):
        out = workdir / "gen.txt"
        assert run("gen", "--family", family, "--n", 7, "--m", -5,
                   "--out", out) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_vertex_count(self, workdir, capsys):
        out = workdir / "gen.txt"
        assert run("gen", "--family", "random-eulerian-digraph", "--n", -3,
                   "--m", 0, "--out", out) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_two_negatives_are_not_a_size(self, workdir, capsys):
        # -2000000 vertices times outdegree -1 must not read as 2 * 10**6
        # arcs, over the size limit (exit 4): a negative value is bad input.
        out = workdir / "gen.txt"
        assert run("gen", "--family", "simple-eulerian-min-outdeg",
                   "--n", -2000000, "--floor", -1, "--out", out) == 2
        assert "non-negative" in capsys.readouterr().err
        assert not out.exists()
