"""The library stays stdlib-only: every module of src/cliquecuts imports
nothing but the standard library and the package itself."""

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
