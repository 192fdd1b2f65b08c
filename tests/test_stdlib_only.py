"""The library stays stdlib-only: every module of src/cliquecuts imports
nothing but the standard library and the package itself, every module
but __init__.py uses each name it imports, and every private function,
method or class is referenced somewhere in the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquecuts"


def top_level_imports(source: str) -> list[str]:
    """Top-level module of every absolute import in `source`; relative
    imports stay inside the package and are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that the module
    never reads.  ``__future__`` imports and statements marked
    ``# noqa: F401`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound.extend(alias.asname or alias.name.split(".")[0]
                     for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_imports_at_any_depth():
    source = (
        "import os.path, numpy as np\n"
        "from .flow import min_cut\n"
        "def f():\n"
        "    from hypothesis import given\n"
    )
    assert top_level_imports(source) == ["os", "numpy", "hypothesis"]


def test_package_found():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_imports_only_stdlib(path):
    foreign = {
        name
        for name in top_level_imports(path.read_text(encoding="utf-8"))
        if name not in sys.stdlib_module_names and name != "cliquecuts"
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from .flow import (  # noqa: F401\n"
        "    min_cut,\n"
        ")\n"
        "from .graphs import MultiGraph, split_off\n"
        "def f(g: MultiGraph):\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["js", "split_off"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_module_uses_its_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports {unused} without using them"


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``module:name`` of every function, method or class in `sources` whose
    name has one leading underscore and is never read, as a bare name or
    as an attribute, by any of the sources."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in read)


def test_finds_unreferenced_private_defs():
    sources = {
        "a": (
            "class _Net:\n"
            "    def _levels(self): ...\n"
            "    def _search(self): ...\n"
            "    def max_flow(self):\n"
            "        return self._search()\n"
            "def _unused(): ...\n"
            "def __getattr__(name): ...\n"
        ),
        "b": "from .a import _Net\nnet = _Net()\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_levels", "a:_unused"]


def test_private_defs_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unused = unreferenced_private_defs(sources)
    assert not unused, f"private definitions never referenced: {unused}"
