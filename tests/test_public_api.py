"""The package's public names: `__all__` lists each once, and a star import
binds every one of them."""

from __future__ import annotations

import inspect

import cliquecuts


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
