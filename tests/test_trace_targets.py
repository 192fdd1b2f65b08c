"""The benchmark's tracer (perfbench/tracer.py) wraps functions by the name
their callers look up; every such name must still exist, or a traced
benchmark run stops with "cannot trace ... no longer exists"."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = tracer_targets()


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in TARGETS],
    ids=[f"{m}.{a}" for m, a, _ in TARGETS],
)
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert leaf in vars(owner), f"{module}.{attr} no longer exists"
