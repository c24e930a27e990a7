#!/usr/bin/env python3
"""Record the reference outputs that run.py compares results against.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 layerbench/make_reference.py

For seeds 0-9 and every workload it runs the first REFERENCE_OPS
operations of the batch, and for each simulate workload its anchor
scenario.  Every output must pass the reference-free checks.  It stores
the analyze p-values (6 decimals) and the simulate decision counts in
layerbench/reference.json, with the commit they were recorded at.
Runs with other seeds, or past the stored operations, are checked
without a reference, apart from the anchors.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEEDS = range(10)
REFERENCE_OPS = 60


def record(bench, ops) -> list:
    """The stored form of each op's output; exits if an op fails a check."""
    stored = []
    for i in ops:
        result = bench.run(i)
        problems = bench.check(i, result)
        if problems:
            sys.exit(f"{bench.workload} op {i}: {problems}")
        if bench.workload == "analyze":
            ps = bench.wl.analyze_pvalues(json.loads(result[1]))
            stored.append([round(p, 6) for p in ps])
        else:
            stored.append(bench.wl.decision_counts(result))
    return stored


def main() -> int:
    out = {"commit": run.git_commit(), "anchors": {}}
    for workload in run.WORKLOADS:
        out[workload] = {}
        for seed in REFERENCE_SEEDS:
            bench, _ = run.set_up(workload, seed, quick=False)
            bench.reference = {}
            batch = [i for ops in bench.rounds for i in ops][:REFERENCE_OPS]
            out[workload][str(seed)] = record(bench, batch)
            print(f"{workload} seed {seed}: {len(batch)} ops", file=sys.stderr)
        if bench.anchors:
            (out["anchors"][workload],) = record(bench, bench.anchors)
    run.REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
