"""The package's public names: `__all__` lists each once, and a star import
binds every one of them."""

from __future__ import annotations

import cliquecuts


def test_star_import_binds_all():
    names = cliquecuts.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from cliquecuts import *", namespace)
    assert [name for name in names if name not in namespace] == []
