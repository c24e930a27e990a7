#!/usr/bin/env python3
"""Layered benchmark of trendcomp: analyze latency and simulate throughput.

Run from the root of a checkout; the library is imported from its
``src`` directory, never from an installed copy:

    python3 layerbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``analyze``, ``simulate_power``,
``simulate_null``.  Each is a closed loop at parallelism 1 over a fixed
number of rounds, sized from ``--seconds`` (see ROUND_SECONDS).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh processes), per-operation latency p50 and
p90 (Harrell-Davis estimates), throughput and peak resident memory.
``--trace 1`` instead takes a fixed list of operations, runs it
untraced and then traced (spans.py), and reports per-layer metrics and
the tracing overhead.  Either way every output is checked, each
simulate workload also runs a fixed anchor scenario against its stored
reference, and a short scenario must give the same result at
parallelism 1 and 2.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the error rate,
failed over attempted, is printed on the line before.  ``--quick`` runs
the same at reduced size, for the benchmark's own tests
(test_layerbench.py).

Outputs go under ``.bench_out/`` in the checkout: the analyze input
tables, the spans of traced runs and a run record per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("analyze", "simulate_power", "simulate_null")
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernel.qmc_shift_means.calls": "count",
    "kernel.qmc_shift_means.s": "s",
    "kernel.points": "count",
    "kernel.evals": "count",
    "kernel.evals_per_s": "1/s",
    "mvn.adjust_maxt.calls": "count",
    "mvn.adjust_maxt.self_s": "s",
    "mvn.adjusted_p_below.calls": "count",
    "mvn.mvn_upper_orthant_complement.calls": "count",
    "mvn.mvn_upper_orthant_complement.self_s": "s",
    "mvn.points": "count",
    "mvn.settled_ratio": "ratio",
    "mvn.MvnSpec.calls": "count",
    "mvn.MvnSpec.s": "s",
    "contrasts.contrast_moments.calls": "count",
    "contrasts.contrast_moments.s": "s",
    "contrasts.contrast_test.calls": "count",
    "contrasts.contrast_test.self_s": "s",
    "simulate.run_scenario.calls": "count",
    "simulate.run_scenario.self_s": "s",
    "simulate.n_boundary": "count",
    "simulate.n_degenerate": "count",
    "ctp.closed_analysis.calls": "count",
    "ctp.closed_analysis.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "data.read_counts_csv.calls": "count",
    "data.read_counts_csv.s": "s",
    "model.fit_saturated_logit.calls": "count",
    "model.fit_saturated_logit.s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_SAMPLES = 3  # this process plus fresh ones; setup_s is their median
MIN_OPS = 100  # so that ten latency samples lie beyond p90
# A run does a fixed number of rounds, sized so that it lasts about
# --seconds on a 2-core x86 VM at the commit that defined the benchmark
# (rounds differ in cost, so a time limit that cut the run at a round
# boundary changed which tables were measured when the machine sped up
# or slowed down).  A traced run does half as many, twice over.
ROUND_SECONDS = {"analyze": 6.0, "simulate_power": 0.21, "simulate_null": 0.195}
QUICK_OPS = {"analyze": 6, "simulate_power": 3, "simulate_null": 3}
QUICK_MAX_K = 3


class Bench:
    """Inputs of one workload and how to run and check one operation.

    Operations come in rounds, each a complete sample of the workload's
    mix: a round of analyze tables, or a single simulate scenario.
    Anchors are ops with a stored reference on every seed, run after the
    timed ops; analyze needs none, as liarozole is its op 0.
    """

    def __init__(self, workload: str, seed: int, quick: bool):
        import workloads as wl  # imports trendcomp; timed as set-up

        self.wl = wl
        self.workload = workload
        refs = json.loads(REFERENCE.read_text())
        self.reference = dict(enumerate(refs[workload].get(str(seed), [])))
        self.anchors = []
        if workload == "analyze":
            tables = wl.analyze_tables(seed)
            folder = OUT / "inputs" / f"analyze-{seed}"
            folder.mkdir(parents=True, exist_ok=True)
            self.inputs = []
            for i, table in enumerate(tables):
                path = folder / f"t{i:03d}.csv"
                wl.write_csv(path, table)
                self.inputs.append((table, path))
            self.unit = 1
            self.warm_up = lambda: wl.run_analyze(self.inputs[0][1])
            size = sum(wl.ROUND_MIX.values())
            # liarozole, op 0, belongs to the first round
            self.rounds = [[0] + list(range(1, 1 + size))]
            self.rounds += [list(range(1 + r * size, 1 + (r + 1) * size))
                            for r in range(1, wl.ANALYZE_ROUNDS)]
        else:
            self.inputs = wl.scenarios(seed, workload)
            self.unit = wl.SCENARIOS[workload]["replicates"]
            small = wl.simulate.Scenario(pi=wl.SCENARIOS[workload]["pi"], n=wl.GROUP_N,
                                         replicates=10, seed=seed)
            self.warm_up = lambda: wl.run_simulate(small)
            self.rounds = [[i] for i in range(len(self.inputs))]
        if quick:
            ops = [i for i in range(len(self.inputs)) if self._cheap(i)]
            self.rounds = [ops[: QUICK_OPS[workload]]]
        if workload != "analyze":
            self.anchors = [len(self.inputs)]
            self.reference[len(self.inputs)] = refs["anchors"][workload]
            self.inputs.append(wl.anchor_scenario(workload))

    def _cheap(self, i) -> bool:
        return self.workload != "analyze" or len(self.inputs[i][0]["n"]) <= QUICK_MAX_K + 1

    def run(self, i):
        if self.workload == "analyze":
            return self.wl.run_analyze(self.inputs[i][1])
        return self.wl.run_simulate(self.inputs[i])

    def check(self, i, output) -> list:
        ref = self.reference.get(i)
        if self.workload == "analyze":
            return self.wl.check_analyze(self.inputs[i][0], output, ref)
        return self.wl.check_simulate(self.inputs[i], output, ref)


def set_up(workload, seed, quick):
    t0 = time.perf_counter()
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    import trendcomp

    if not Path(trendcomp.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"trendcomp imported from {trendcomp.__file__}, not {src}")
    bench = Bench(workload, seed, quick)
    bench.warm_up()
    return bench, time.perf_counter() - t0


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def plan(bench, args, share=1.0, min_ops=0) -> list:
    """The ops of a run: whole rounds, cycling through the batch if needed."""
    if args.quick:
        return bench.rounds[0]
    n = max(math.ceil(min_ops / len(bench.rounds[-1])),
            round(share * args.seconds / ROUND_SECONDS[args.workload]))
    return [i for r in range(n) for i in bench.rounds[r % len(bench.rounds)]]


def timed_loop(bench, ops, tracer=None):
    """Closed loop over ``ops``: records (op, output or exception, latency), wall time."""
    records = []
    start = time.perf_counter()
    for i in ops:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = bench.run(i)
        except Exception as exc:  # an op that raises counts as failed
            out = exc
        records.append((i, out, time.perf_counter() - t0))
    return records, time.perf_counter() - start


def count_failures(bench, records, problems) -> int:
    failed = 0
    for i, out, _ in records:
        if isinstance(out, Exception):
            found = ["".join(traceback.format_exception_only(out)).strip()]
        else:
            try:
                found = bench.check(i, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"malformed output: {exc!r}"]
        if found:
            failed += 1
            problems.append(f"op {i}: " + "; ".join(found))
    return failed


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_record(args, bench) -> dict:
    import numpy
    import scipy

    import trendcomp

    return {
        "workload": args.workload,
        "why": bench.wl.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": trendcomp.BACKEND,
        "commit": git_commit(),
    }


def measure(args, bench, setup_s, problems):
    """Tracing off: the end-to-end metrics."""
    records, wall = timed_loop(bench, plan(bench, args, min_ops=MIN_OPS))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Harrell-Davis estimates weigh neighbouring order statistics, so a
    # quantile does not jump when one slow table trades ranks with another
    from scipy.stats.mstats import hdquantiles

    p50, p90 = hdquantiles([r[2] for r in records], prob=(0.5, 0.9))
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * float(p50),
        "latency_p90_ms": 1e3 * float(p90),
        "throughput_per_s": len(records) * bench.unit / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = count_failures(bench, records, problems)
    return metrics, records, failed


def trace(args, bench, problems):
    """A fixed list of ops untraced, then traced: the per-layer metrics."""
    from spans import Tracer

    ops = plan(bench, args, share=0.5)
    plain, plain_wall = timed_loop(bench, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = timed_loop(bench, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = count_failures(bench, plain + traced, problems)
    for (i, a, _), (_, b, _) in zip(plain, traced):
        if not isinstance(a, Exception) and a != b:
            failed += 1
            problems.append(f"op {i}: traced output differs from untraced output")
    m = tracer.metrics()
    kernel_s = m["kernel.qmc_shift_means.s"]
    below = m["mvn.adjusted_p_below.calls"]
    m["kernel.evals_per_s"] = m["kernel.evals"] / kernel_s if kernel_s > 0 else 0.0
    m["mvn.settled_ratio"] = (
        1.0 - m["mvn.mvn_upper_orthant_complement.calls"] / below if below else 0.0
    )
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = {name: m[name] for name in PER_LAYER}
    return metrics, plain + traced, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced size, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "trendcomp" / "__init__.py").is_file():
        print(f"error: no trendcomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    bench, setup_s = set_up(args.workload, args.seed, args.quick)
    if args.setup_probe:
        print(setup_s)
        return 0
    problems = []
    if args.trace:
        metrics, records, failed = trace(args, bench, problems)
        units = PER_LAYER
    else:
        probes = 1 if args.quick else SETUP_SAMPLES - 1
        samples = [setup_s] + [setup_sample(args) for _ in range(probes)]
        metrics, records, failed = measure(args, bench, statistics.median(samples), problems)
        units = END_TO_END
    anchored, _ = timed_loop(bench, bench.anchors)
    failed += count_failures(bench, anchored, problems)
    records += anchored
    attempted = len(records)
    parallel_ok = bench.wl.parallelism_identical(args.seed)
    if not parallel_ok:
        problems.append("simulate output differs between parallelism 1 and 2")

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    record = run_record(args, bench)
    record["metrics"] = metrics
    record["error_rate"] = failed / attempted
    record["parallelism_identical"] = parallel_ok
    record["problems"] = problems
    record["ops"] = [[i, lat] for i, _, lat in records]
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0 and parallel_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
