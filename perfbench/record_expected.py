#!/usr/bin/env python3
"""Record the outcome of every default-seed instance in expected.json.

    python3 perfbench/record_expected.py

The benchmark compares each default-seed outcome with this file: the kind,
plus ``blocks`` for a decomposition or ``phi`` for a certificate.  Both are
independent of which valid cut tree the program builds, so a change that
only makes the program faster leaves the file as it is.  Re-record it only
for a change that is meant to alter outcomes, and say why.
"""
from __future__ import annotations

import json
import shutil
import sys

from corpus import WORKLOADS
from run import DEFAULT_SEED, EXPECTED, ROOT, run_instance, setup


def main() -> int:
    table = {"seed": DEFAULT_SEED, "workloads": {}}
    workdir = ROOT / ".perfbench_work" / "record"
    try:
        for w in WORKLOADS.values():
            _, pkg, instances = setup(w, DEFAULT_SEED, workdir)
            rows = []
            for inst in instances:
                res = run_instance(pkg.cli, w, inst, workdir / "out.json")
                if res.problem:
                    print(f"{inst.ident}: {res.problem}", file=sys.stderr)
                    return 1
                rows.append(res.summary)
            table["workloads"][w.name] = rows
            print(f"{w.name}: {len(rows)} outcomes", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(
            "    " + json.dumps(row) for row in rows) + "\n  ]"
        for name, rows in table["workloads"].items())
    EXPECTED.write_text(
        f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
