"""End-to-end command-line behaviour through main()."""

from __future__ import annotations

import json

import pytest

from cliquecuts import MultiGraph, parse_graph, serialize_graph
from cliquecuts.cli import main
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
        assert all(d.degree(v)[1] >= 6 for v in d.vertices)

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
