#!/usr/bin/env python3
"""cliquecuts benchmark: seeded corpora through the real command line.

    python3 perfbench/run.py --workload und-multi-t4 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  Each instance is decided with
``cliquecuts.cli.main(["decompose", ...])``, and the artifact it writes is
re-verified with ``verify-cert`` or ``verify-dec``, all in this process.

``--trace 0`` cycles through the corpus until ``--seconds`` have passed and
reports the end-to-end metrics, each time the median over instances of
that instance's mean.  ``--trace 1`` makes exactly one pass over the
corpus, deciding each instance once untraced and once with every public
function wrapped, and reports per-layer totals; spans are written to
``.perfbench_out/`` when the run ends.  The last line of stdout is one JSON
object; the lines before it give every metric by name and unit for a
reader.  See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import WORKLOADS, Instance, Workload, build_corpus
from tracer import Recorder, decide_shares, layer_metrics, layer_unit

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
SETUPS = 5          # set-ups per run; setup_s is their median
FAILED_S = 1e9      # the time a failed run counts as: slower than any
VERIFY_REPEATS = 3  # verify calls per artifact in untraced runs: each takes a
                    # few milliseconds, where the host's jitter is widest


class Failure(Exception):
    """An instance that ran but gave a wrong or unverified answer."""


def load_package():
    """Import cliquecuts afresh from ``src/`` of this checkout."""
    for name in [n for n in sys.modules
                 if n == "cliquecuts" or n.startswith("cliquecuts.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("cliquecuts")
    importlib.import_module("cliquecuts.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"cliquecuts came from {pkg.__file__}, not {src}")
    return pkg


def _call(cli, argv, recorder, root):
    """Time one ``cli.main`` call; stdout is captured, not printed."""
    sink = io.StringIO()
    gc.collect()
    span = recorder.span(root) if recorder else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        with span:
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def decide(cli, w: Workload, host: Path, artifact: Path, recorder=None):
    artifact.unlink(missing_ok=True)    # never verify a stale artifact
    code, elapsed, _ = _call(
        cli, ["decompose", "--t", str(w.t), "--mode", w.mode,
              "--in", str(host), "--out", str(artifact)], recorder, "decide")
    if code != 0:
        raise Failure(f"decompose exited with {code}")
    return elapsed


def verify(cli, w: Workload, host: Path, artifact: Path, recorder=None,
           repeats=1):
    """Re-verify the artifact ``repeats`` times with the matching command;
    returns the times and the outcome summary the same-behaviour check
    compares."""
    doc = json.loads(artifact.read_text())
    kind = doc.get("kind")
    if kind not in ("certificate", "decomposition"):
        raise Failure(f"artifact has kind {kind!r}")
    if doc.get("t") != w.t or doc.get("directed") != (w.mode == "directed"):
        raise Failure("artifact was made for other parameters")
    command = "verify-cert" if kind == "certificate" else "verify-dec"
    times = []
    for _ in range(repeats):
        code, elapsed, out = _call(
            cli, [command, "--in", str(host), "--artifact", str(artifact)],
            recorder, "verify")
        if code != 0 or out != f"{kind} OK\n":
            raise Failure(f"{command} exited with {code}: {out.strip()}")
        times.append(elapsed)
    if kind == "certificate":
        return times, {"kind": kind, "phi": doc["phi"]}
    return times, {"kind": kind, "blocks": doc["blocks"]}


@dataclass
class Result:
    ident: str
    decide_s: float = FAILED_S
    verify_s: tuple = (FAILED_S,)   # one time per verify call
    summary: dict | None = None   # kind, and phi or blocks
    problem: str | None = None


def run_instance(cli, w: Workload, inst: Instance, artifact: Path,
                 expected=None, recorder=None, repeats=1) -> Result:
    """Decide and verify one instance; every exception and every failed
    check becomes the result's ``problem``, never a crash of the run."""
    res = Result(inst.ident)
    try:
        res.decide_s = decide(cli, w, inst.host, artifact, recorder)
        res.verify_s, summary = verify(cli, w, inst.host, artifact, recorder,
                                       repeats)
        res.summary = summary
        if w.cert_only and summary["kind"] != "certificate":
            raise Failure("a decomposition, where the paper's claim "
                          "promises a certificate")
        if expected is not None and summary != expected[inst.index]:
            raise Failure(f"outcome changed: expected {expected[inst.index]}")
    except (Exception, SystemExit) as exc:  # RecursionError included
        res.problem = f"{type(exc).__name__}: {exc}"
        res.decide_s, res.verify_s = FAILED_S, (FAILED_S,) * repeats
    return res


def setup(w: Workload, seed: int, workdir: Path):
    """Import, generate and write the corpus, and run the untimed warm-up
    instance; returns the set-up time, the package and the corpus."""
    start = time.perf_counter()
    pkg = load_package()
    instances, warmup = build_corpus(pkg, w, seed, workdir)
    res = run_instance(pkg.cli, w, warmup, workdir / "warmup.json")
    if res.problem:
        raise RuntimeError(f"warm-up {warmup.ident} failed: {res.problem}")
    return time.perf_counter() - start, pkg, instances


def load_expected(w: Workload, seed: int):
    if seed != DEFAULT_SEED:
        return None
    table = json.loads(EXPECTED.read_text())
    if table["seed"] != DEFAULT_SEED:
        raise RuntimeError(f"{EXPECTED.name} was recorded for another seed")
    return table["workloads"][w.name]


def tail(values: list[float]):
    """The highest nearest-rank percentile with at least ten samples above
    it, as ``(percentile, value)``.  With under 20 samples that percentile
    would lie below the median, so the maximum stands in for it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < (len(ordered) + 1) // 2:
        rank = len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def measure(pkg, w, instances, seconds, expected, workdir):
    """Cycle through the corpus until ``seconds`` have passed, and at least
    once through all of it; returns the results and the wall time of the
    loop."""
    results = []
    start = time.perf_counter()
    while (len(results) < len(instances)
           or time.perf_counter() - start < seconds):
        inst = instances[len(results) % len(instances)]
        results.append(run_instance(pkg.cli, w, inst, workdir / "out.json",
                                    expected, repeats=VERIFY_REPEATS))
    return results, time.perf_counter() - start


def per_instance(results, times):
    """The mean of ``times(result)`` over every run of each instance, one
    value per instance.  The host this runs on switches between a fast and
    a slow state for seconds to minutes at a time; the runs of one instance
    are spread over the whole measuring loop, so its mean blends the two
    states in the share the loop saw them, instead of taking one or the
    other."""
    runs = {}
    for r in results:
        runs.setdefault(r.ident, []).extend(times(r))
    return [statistics.mean(v) for v in runs.values()]


def _untraced_decide(pkg, w, inst, artifact):
    try:
        return decide(pkg.cli, w, inst.host, artifact), None
    except (Exception, SystemExit) as exc:
        return FAILED_S, f"untraced {type(exc).__name__}: {exc}"


def measure_traced(pkg, w, instances, expected, workdir):
    """One pass: each instance decided untraced and traced, in alternating
    order, and the traced artifact verified under tracing too.  Returns the
    traced results, the untraced decide times and the recorder."""
    recorder = Recorder()
    results, plain_s = [], []
    plain_art, traced_art = workdir / "plain.json", workdir / "traced.json"
    for inst in instances:
        recorder.instance = inst.ident
        if inst.index % 2:
            plain, problem = _untraced_decide(pkg, w, inst, plain_art)
        with recorder.installed():
            res = run_instance(pkg.cli, w, inst, traced_art, expected,
                               recorder)
        if not inst.index % 2:
            plain, problem = _untraced_decide(pkg, w, inst, plain_art)
        if problem is None and not res.problem and (
                not plain_art.exists()
                or plain_art.read_bytes() != traced_art.read_bytes()):
            problem = "Failure: traced and untraced artifacts differ"
        if problem and not res.problem:
            res.problem = problem
            res.decide_s, res.verify_s = FAILED_S, (FAILED_S,)
        plain_s.append(plain)
        results.append(res)
    return results, plain_s, recorder


def write_spans(recorder: Recorder, w: Workload, seed: int) -> Path:
    out = ROOT / ".perfbench_out" / f"spans-{w.name}-{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        fh.write("# name start end parent instance ok\n")
        for span in recorder.spans:
            fh.write(json.dumps(span) + "\n")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            elapsed, pkg, instances = setup(w, args.seed, workdir)
            setups.append(elapsed)
        expected = load_expected(w, args.seed)
        if args.trace:
            results, plain_s, recorder = measure_traced(
                pkg, w, instances, expected, workdir)
        else:
            results, loop_s = measure(pkg, w, instances, args.seconds,
                                      expected, workdir)
    except (ImportError, OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = [r for r in results if r.problem]
    for r in failed:
        print(f"FAILED {r.ident}: {r.problem}", file=sys.stderr)
    decide_s = [r.decide_s for r in results]
    info = {"runs": (len(results), "count"),
            "failed_ratio": (len(failed) / len(results), "ratio")}
    if args.trace:
        metrics = {k: (v, layer_unit(k))
                   for k, v in layer_metrics(recorder.spans).items()}
        certs = sum(not r.problem and r.summary["kind"] == "certificate"
                    for r in results)
        metrics["immersion.cert_share"] = (certs / len(results), "ratio")
        metrics["trace.overhead_ratio"] = (
            statistics.median(decide_s) / statistics.median(plain_s), "ratio")
        for name, share in decide_shares(recorder.spans).items():
            info[f"share_of_decide.{name}"] = (share, "ratio")
        spans = write_spans(recorder, w, args.seed).relative_to(ROOT)
        info["spans_file"] = (str(spans), "path")
    else:
        decide_s = per_instance(results, lambda r: (r.decide_s,))
        pct, tail_s = tail(decide_s)
        passed = len(results) - len(failed)
        metrics = {
            "decide_p50_s": (statistics.median(decide_s), "s"),
            "decide_tail_s": (tail_s, "s"),
            "verify_p50_s": (statistics.median(
                per_instance(results, lambda r: r.verify_s)), "s"),
            "instances_per_s": (passed / loop_s, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "passed_ratio": (passed / len(results), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }
        info["instances"] = (len(decide_s), "count")
        info["decide_tail_percentile"] = (pct, "%")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
