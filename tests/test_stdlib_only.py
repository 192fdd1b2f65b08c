"""The library stays stdlib-only: every module of src/cliquecuts imports
nothing but the standard library and the package itself, every module
but __init__.py uses each name it imports or re-imports it only for the
benchmark's tracer to wrap, and every private function, method or class
is referenced somewhere in the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from test_trace_targets import TARGETS

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


def module_imports(source: str) -> list[tuple[str, bool]]:
    """(name bound, statement marked ``# noqa: F401``) for every name that
    a module-level import of `source` binds, ``__future__`` aside."""
    lines = source.splitlines()
    bound = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno])
        bound.extend((alias.asname or alias.name.split(".")[0], noqa)
                     for alias in node.names)
    return bound


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that the module
    never reads.  Statements marked ``# noqa: F401`` are skipped."""
    read = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return [name for name, noqa in module_imports(source)
            if not noqa and name not in read]


def unpinned_reimports(module: str, source: str, targets) -> list[str]:
    """Names bound by the ``# noqa: F401`` imports of `source` that no
    tracer target, a (module, attribute, span) triple, pins in `module`."""
    pinned = {attr for owner, attr, _ in targets if owner == module}
    return [name for name, noqa in module_imports(source)
            if noqa and name not in pinned]


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
    source = path.read_text(encoding="utf-8")
    unused = unused_imports(source)
    assert not unused, f"{path.name} imports {unused} without using them"
    # A name kept bound only for perfbench/tracer.py must go once the
    # tracer stops wrapping it.
    unpinned = unpinned_reimports(f"cliquecuts.{path.stem}", source, TARGETS)
    assert not unpinned, f"{path.name} re-imports {unpinned} for no tracer target"


def test_finds_unpinned_reimports():
    source = (
        "from .flow import min_cut  # noqa: F401\n"
        "from .graphs import (  # noqa: F401\n"
        "    MultiGraph,\n"
        "    split_off,\n"
        ")\n"
        "from .gomoryhu import build_gomory_hu\n"
    )
    targets = (
        ("cliquecuts.transform", "split_off", "graphs.split_off"),
        ("cliquecuts.immersion", "min_cut", "flow.min_cut"),
        ("cliquecuts.transform", "build_gomory_hu", "gomoryhu.build"),
    )
    assert unpinned_reimports("cliquecuts.transform", source, targets) == [
        "min_cut", "MultiGraph"]


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
