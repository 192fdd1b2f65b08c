"""Seeded instance corpora, one per benchmark workload.

Every instance is derived from ``(workload name, seed, index)`` alone, so
the same seed gives byte-identical host files on every machine.  A corpus
cycles through its size classes in a fixed order, so that the last,
partial pass of a run that is cut by its time budget still holds every
class in its share.
No class reaches 1000 vertices: see README.md for why.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # name of the generator in cliquecuts.generate
    mode: str            # --mode of the decompose command
    t: int
    classes: tuple       # generator keyword arguments, one dict per slot
    size: int            # instances in the corpus
    cert_only: bool      # a decomposition contradicts the paper's claim


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "und-multi-t4", "random_multigraph", "undirected", 4,
            # Decide times of the six classes are spread evenly on a log
            # scale, so with equal draws the median would sit where the
            # instances are sparse and jump with every seed.  (45, 90) is
            # drawn three times per cycle, so the median falls inside it.
            tuple({"n": n, "m": m} for n, m in (
                (30, 60), (30, 75), (45, 90), (45, 90), (45, 90),
                (45, 112), (60, 120), (60, 150))),
            size=80, cert_only=False,
        ),
        Workload(
            "dir-simple-t3", "simple_eulerian_min_outdeg", "directed", 3,
            # n = 26 drawn twice per cycle, so the median falls inside it.
            tuple({"n": n, "floor": 6} for n in (18, 26, 26, 34)),
            size=32, cert_only=True,
        ),
        Workload(
            "dir-multi-t5", "random_eulerian_digraph", "directed", 5,
            # n = 11 drawn three times per cycle, so the median falls at
            # the middle of it.
            tuple({"n": n, "m": 25 * n} for n in (10, 11, 11, 11, 12)),
            size=15, cert_only=False,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    ident: str           # "<workload>/<seed>/<index>", unique in a run
    index: int           # position in the corpus; -1 for the warm-up
    host: Path


def build_corpus(cliquecuts, w: Workload, seed: int, workdir: Path):
    """Generate the corpus and the warm-up instance and write their host
    files under ``workdir``.  Returns ``(instances, warmup)``."""
    workdir.mkdir(parents=True, exist_ok=True)

    def make(index: int, params: dict, tag: str) -> Instance:
        rng = random.Random(f"{w.name}:{seed}:{tag}")
        g = getattr(cliquecuts.generate, w.family)(rng=rng, **params)
        host = workdir / f"host_{tag}.txt"
        host.write_text(cliquecuts.graphs.serialize_graph(g))
        return Instance(f"{w.name}/{seed}/{tag}", index, host)

    instances = [
        make(i, w.classes[i % len(w.classes)], str(i)) for i in range(w.size)
    ]
    return instances, make(-1, w.classes[0], "warmup")
