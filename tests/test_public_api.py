"""The package's public names: `__all__` lists each once, a star import
binds every one of them, and each is read by the package itself unless it
is paper content or an oracle that the acceptance suite imports."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import cliquecuts

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquecuts"

# Exported for the acceptance suite, though no module of the package reads
# them: the paper's thick star and its route, the classical directed route
# (splitting and packing), and the exhaustive oracle.
PAPER_AND_ORACLES = {
    "brute_force_immersion",
    "pack_arborescences",
    "reduce_to_terminals",
    "thick_star",
    "thick_star_route",
}


def test_star_import_binds_all():
    names = cliquecuts.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from cliquecuts import *", namespace)
    assert [name for name in names if name not in namespace] == []


def test_verifiers_take_graph_and_artifact():
    # The command line calls either verifier as verify(graph, artifact).
    for verify in (cliquecuts.verify_certificate,
                   cliquecuts.verify_decomposition):
        assert len(inspect.signature(verify).parameters) == 2


def unread_names(names, sources) -> list[str]:
    """The names among `names` that none of `sources` reads, as a bare name
    or as an attribute.  Defining, importing or assigning a name does not
    read it."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in names if name not in read]


def test_finds_unread_names():
    sources = [
        "from .graphs import MultiGraph, split_off\n"
        "def helper(g: MultiGraph): ...\n"
        "def unused(): ...\n"
        "parse = graphs.parse_graph\n",
        "helper = 1\n",
    ]
    names = ["MultiGraph", "split_off", "helper", "unused", "parse_graph"]
    assert unread_names(names, sources) == ["split_off", "helper", "unused"]


def test_no_export_only_for_tests():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    unread = set(unread_names(cliquecuts.__all__, sources))
    assert PAPER_AND_ORACLES <= set(cliquecuts.__all__)
    assert unread <= PAPER_AND_ORACLES, (
        f"exported but never read by the package: "
        f"{sorted(unread - PAPER_AND_ORACLES)}")
