"""Command-line front end.

Exit codes:

0  success (both pipeline outcomes count as success for ``decompose``)
1  a verification fails, or ``find`` yields no certificate
2  bad input or usage
3  internal error: a fault of the program, not of the input
4  unsupported size: valid input beyond a deliberate size limit
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .generate import (
    random_eulerian_digraph,
    random_multigraph,
    simple_eulerian_min_outdeg,
)
from .gomoryhu import build_gomory_hu
from .graphs import (
    GraphError,
    MultiGraph,
    UnsupportedSizeError,
    parse_graph,
    serialize_graph,
)
from .immersion import (
    ImmersionCertificate,
    LaminarDecomposition,
    decompose_directed,
    decompose_undirected,
    outcome_from_json,
    outcome_to_json,
    verify_certificate,
    verify_decomposition,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(
            f"{path} is not UTF-8 text (byte {exc.start})") from None


def _read_graph(path: str) -> MultiGraph:
    return parse_graph(_read_text(path))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_mode(g: MultiGraph, mode: str) -> None:
    if (mode == "directed") != g.directed:
        kind = "digraph" if g.directed else "graph"
        raise GraphError(f"--mode {mode} does not match the {kind} header")


def _run_pipeline(args):
    g = _read_graph(getattr(args, "in"))
    _check_mode(g, args.mode)
    if args.mode == "directed":
        outcome = decompose_directed(g, args.t)
    else:
        outcome = decompose_undirected(g, args.t)
    _write(args.out, json.dumps(outcome_to_json(outcome), indent=2) + "\n")
    return outcome


def _cmd_decompose(args) -> int:
    _run_pipeline(args)
    return 0


def _cmd_find(args) -> int:
    outcome = _run_pipeline(args)
    if isinstance(outcome, ImmersionCertificate):
        return 0
    print("no certificate found; wrote the decomposition instead",
          file=sys.stderr)
    return 1


def _load_artifact(path: str):
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise GraphError(f"artifact is not valid JSON: {exc}") from None
    return outcome_from_json(obj)


def _cmd_verify_cert(args) -> int:
    g = _read_graph(getattr(args, "in"))
    artifact = _load_artifact(args.artifact)
    if not isinstance(artifact, ImmersionCertificate):
        raise GraphError("artifact is not a certificate")
    report = verify_certificate(g, artifact)
    if report.ok:
        print("certificate OK")
        return 0
    print(f"certificate INVALID: {report.problem}")
    return 1


def _cmd_verify_dec(args) -> int:
    g = _read_graph(getattr(args, "in"))
    artifact = _load_artifact(args.artifact)
    if not isinstance(artifact, LaminarDecomposition):
        raise GraphError("artifact is not a decomposition")
    mode = "directed" if artifact.directed else "undirected"
    report = verify_decomposition(g, artifact.t, mode, artifact)
    if report.ok:
        print("decomposition OK")
        return 0
    print(f"decomposition INVALID: {report.problem}")
    return 1


def _cmd_gomory_hu(args) -> int:
    g = _read_graph(getattr(args, "in"))
    if g.directed:
        g = g.underlying()
    _write(args.out, build_gomory_hu(g).dump())
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.family == "random-multigraph":
        if args.n is None or args.m is None:
            raise GraphError("random-multigraph needs --n and --m")
        g = random_multigraph(args.n, args.m, rng)
    elif args.family == "random-eulerian-digraph":
        if args.n is None or args.m is None:
            raise GraphError("random-eulerian-digraph needs --n and --m")
        g = random_eulerian_digraph(args.n, args.m, rng)
    elif args.family == "simple-eulerian-min-outdeg":
        if args.n is None or args.floor is None:
            raise GraphError("simple-eulerian-min-outdeg needs --n and --floor")
        g = simple_eulerian_min_outdeg(args.n, args.floor, rng)
    else:  # pragma: no cover - argparse restricts choices
        raise GraphError(f"unknown family {args.family!r}")
    _write(args.out, serialize_graph(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquecuts",
        description="Laminar cut decompositions and clique immersion "
                    "certificates for multigraphs and Eulerian digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--t", type=int, required=True,
                       help="target clique order (at least 2)")
        p.add_argument("--mode", choices=("undirected", "directed"),
                       required=True)
        p.add_argument("--in", required=True, metavar="PATH",
                       help="edge-list input file")
        p.add_argument("--out", metavar="PATH",
                       help="output file (default stdout)")
        return p

    add_pipeline("decompose",
                 "run the pipeline; exit 0 on either outcome").set_defaults(
        func=_cmd_decompose)
    add_pipeline("find",
                 "run the pipeline but demand a certificate").set_defaults(
        func=_cmd_find)

    for name, fn, what in (
        ("verify-cert", _cmd_verify_cert, "an immersion certificate"),
        ("verify-dec", _cmd_verify_dec, "a laminar decomposition"),
    ):
        p = sub.add_parser(name, help=f"verify {what} against its host graph")
        p.add_argument("--in", required=True, metavar="PATH",
                       help="edge-list input file")
        p.add_argument("--artifact", required=True, metavar="PATH",
                       help="JSON artifact to verify")
        p.set_defaults(func=fn)

    p = sub.add_parser("gomory-hu", help="dump the Gomory-Hu tree "
                                         "(underlying graph for digraphs)")
    p.add_argument("--in", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_gomory_hu)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--family", required=True, choices=(
        "random-multigraph",
        "random-eulerian-digraph",
        "simple-eulerian-min-outdeg",
    ))
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--m", type=int, help="edge count target")
    p.add_argument("--floor", type=int, help="minimum outdegree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedSizeError as exc:
        print(f"unsupported size: {exc}", file=sys.stderr)
        return 4
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # One line, no traceback: the user gets the code and the cause.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
