"""Outside-in tracing: wrap the public functions of each cliquecuts module
and record one span per call.

A span is ``[name, start, end, parent, instance, ok]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``ok`` is False when the
call raised.  Spans stay in memory until the run ends.  Wrappers are put in
place only for the calls being traced, so untimed and untraced calls run the
unwrapped program.
"""
from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute, span name).  Each attribute is the name the caller
# actually looks up, so the wrapper sits on the path the program takes.
TARGETS = (
    ("cliquecuts.cli", "main", "cli.main"),
    ("cliquecuts.cli", "parse_graph", "graphs.parse"),
    ("cliquecuts.cli", "decompose_undirected", "immersion.pipeline"),
    ("cliquecuts.cli", "decompose_directed", "immersion.pipeline"),
    ("cliquecuts.cli", "verify_certificate", "immersion.verify"),
    ("cliquecuts.cli", "verify_decomposition", "immersion.verify"),
    ("cliquecuts.cli", "outcome_to_json", "immersion.json"),
    ("cliquecuts.cli", "outcome_from_json", "immersion.json"),
    ("cliquecuts.immersion", "build_gomory_hu", "gomoryhu.build"),
    ("cliquecuts.immersion", "extract_clique_immersion", "immersion.extract"),
    ("cliquecuts.immersion", "extract_directed_clique_immersion",
     "immersion.extract"),
    ("cliquecuts.immersion", "min_cut", "flow.min_cut"),
    ("cliquecuts.immersion", "menger_fan", "flow.menger_fan"),
    ("cliquecuts.immersion", "reduce_to_terminals", "transform.reduce"),
    ("cliquecuts.immersion", "pack_arborescences", "transform.pack"),
    ("cliquecuts.gomoryhu", "min_cut", "flow.min_cut"),
    ("cliquecuts.graphs", "MultiGraph.contract", "graphs.contract"),
    ("cliquecuts.transform", "admissible_split", "transform.admissible_split"),
    ("cliquecuts.transform", "directed_edge_connectivity", "flow.dir_conn"),
    ("cliquecuts.transform", "split_off", "graphs.split_off"),
)

# Per-layer metric -> (span name, what to total).
_TOTALS = {
    "gomoryhu.build_s": ("gomoryhu.build", "time"),
    "gomoryhu.build_self_s": ("gomoryhu.build", "self"),
    "graphs.contract_s": ("graphs.contract", "time"),
    "graphs.contract_calls": ("graphs.contract", "calls"),
    "flow.min_cut_s": ("flow.min_cut", "time"),
    "flow.min_cut_calls": ("flow.min_cut", "calls"),
    "flow.dir_conn_s": ("flow.dir_conn", "time"),
    "flow.dir_conn_calls": ("flow.dir_conn", "calls"),
    "flow.menger_fan_s": ("flow.menger_fan", "time"),
    "transform.reduce_s": ("transform.reduce", "time"),
    "transform.reduce_self_s": ("transform.reduce", "self"),
    "graphs.split_off_s": ("graphs.split_off", "time"),
    "graphs.split_off_calls": ("graphs.split_off", "calls"),
    "transform.pack_s": ("transform.pack", "time"),
    "immersion.pipeline_self_s": ("immersion.pipeline", "self"),
    "immersion.extract_self_s": ("immersion.extract", "self"),
    "immersion.verify_s": ("immersion.verify", "time"),
    "immersion.json_s": ("immersion.json", "time"),
    "graphs.parse_s": ("graphs.parse", "time"),
    "graphs.parse_calls": ("graphs.parse", "calls"),
    "cli.self_s": ("cli.main", "self"),
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self.instance, False]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
            rec[5] = True
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.  A target that
        no longer exists is an error, never a silent zero."""
        patched = []
        try:
            for module, attr, name in TARGETS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if leaf not in vars(owner):
                    raise RuntimeError(
                        f"cannot trace {module}.{attr}: it no longer exists")
                original = vars(owner)[leaf]
                setattr(owner, leaf, self._wrap(name, original))
                patched.append((owner, leaf, original))
            yield
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-run totals of every per-layer metric the spans give."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    time_by: dict[str, float] = {}
    self_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        time_by[name] = time_by.get(name, 0.0) + (end - start)
        self_by[name] = self_by.get(name, 0.0) + (end - start - child[i])
        calls_by[name] = calls_by.get(name, 0) + 1
    pick = {"time": time_by, "self": self_by, "calls": calls_by}
    out = {metric: pick[kind].get(name, 0)
           for metric, (name, kind) in _TOTALS.items()}

    def under_split(name: str) -> int:
        return sum(1 for s in spans if s[0] == name and s[3] >= 0
                   and spans[s[3]][0] == "transform.admissible_split")

    trials = under_split("graphs.split_off")
    accepted = sum(1 for s in spans
                   if s[0] == "transform.admissible_split" and s[5])
    out["transform.split_trials"] = trials
    out["transform.splits_accepted"] = accepted
    out["transform.split_accept_ratio"] = accepted / trials if trials else 0.0
    out["transform.conn_calls_per_trial"] = (
        under_split("flow.dir_conn") / trials if trials else 0.0)
    return out


def decide_shares(spans: list[list], root: str = "decide") -> dict[str, float]:
    """Each span name's inclusive time as a share of the time of the root
    spans called ``root``."""
    root_of = []
    for name, _, _, parent, _, _ in spans:
        root_of.append(root_of[parent] if parent >= 0 else name)
    total = sum(s[2] - s[1] for s in spans if s[3] < 0 and s[0] == root)
    shares: dict[str, float] = {}
    for (name, start, end, parent, _, _), r in zip(spans, root_of):
        if parent >= 0 and r == root:
            shares[name] = shares.get(name, 0.0) + (end - start)
    return {k: v / total for k, v in sorted(shares.items())} if total else {}


def layer_unit(metric: str) -> str:
    if metric.endswith(("_calls", "_trials", "_accepted")):
        return "count"
    return "ratio" if metric.endswith(("_ratio", "_per_trial")) else "s"
