"""Workload inputs, operations and output checks of the layered benchmark.

Every workload is a closed loop at parallelism 1: one operation starts
after the previous one has returned.  Inputs come from the benchmark
seed alone; the program only ever sees the generated tables or
scenarios.

- ``analyze``: one ``trendcomp analyze --format json`` per table, run
  in process with stdout captured.  An operation is one table.
- ``simulate_power`` and ``simulate_null``: one ``run_scenario`` per
  operation, each on its own scenario seed.  An operation is one
  scenario of ``replicates`` replicates.

Importing this module imports trendcomp, so the benchmark imports it
inside its set-up timer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
from scipy.special import ndtr

from trendcomp import cli, simulate

WHY = {
    "analyze": (
        "analyst latency: every adjusted p is integrated at tol 5e-5 with no sandwich "
        "shortcut; k runs 2 to 6, so p90 reads the large-k cliff and p50 the small tables"
    ),
    "simulate_power": (
        "published power row 2: the sandwich bound settles ~87% of decisions and high "
        "power walks the CTP chain deep; kernel, MvnSpec and contrast_moments share the time"
    ),
    "simulate_null": (
        "criterion-3 null row: same mvn layer, but 98% of decisions settle without "
        "integration, so per-replicate overhead dominates; a kernel-only gain leaves it flat"
    ),
}
WORKLOADS = tuple(WHY)

# --- analyze -------------------------------------------------------------

LIAROZOLE = {"labels": ("0", "50", "75", "150"), "n": (34, 35, 36, 34), "y": (2, 6, 4, 13)}
# criterion 1: D1 D2 D3, W3, P1 P2 P3, C1 C2 C3
LIAROZOLE_PUBLISHED = (0.153, 0.362, 0.0056, 0.0036, 0.221, 0.221, 0.0023, 0.153, 0.153, 0.0036)
LIAROZOLE_TOL = 1e-3

# Tables of each k in one round of 29.  The median lies among the
# k = 3 tables and the slowest tenth are k = 5 and 6, the cliff p90
# reads.  Rounds are shuffled internally and a run measures whole
# rounds, the first five for a 30 s run.
ROUND_MIX = {2: 4, 3: 14, 4: 6, 5: 4, 6: 1}
ANALYZE_ROUNDS = 10
# Tables with k >= 4 are a fixed panel, drawn once by the same
# generator from PANEL_SEED; the k = 2 and 3 tables come from the run's
# seed.  Large-k costs vary tenfold from table to table (near-singular
# correlations after a boundary correction are the slowest), so with
# them drawn from the seed, which tables crossed p90 changed from run
# to run and p90 and throughput swung by 15-30% between seeds.
PANEL_K = (4, 5, 6)
PANEL_SEED = 2011
# Candidate tables drawn per table kept (see _stratified).
CANDIDATES_PER_TABLE = 6
# A contrast whose raw p lies in this band has a maxT integral that is
# neither negligible nor saturated, which is where integration is slow.
HARD_BAND = (1e-4, 0.6)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

REFERENCE_P_TOL = 1e-3  # p-values against the reference recorded for a seed
ENVELOPE_RTOL = 1e-9  # float slack on identities the program computes exactly

# --- simulate ------------------------------------------------------------

SCENARIOS = {
    "simulate_power": {"pi": (0.05, 0.10, 0.20, 0.30), "replicates": 100},
    "simulate_null": {"pi": (0.10, 0.10, 0.10, 0.10), "replicates": 250},
}
GROUP_N = (50, 50, 50, 50)
SIMULATE_OPS = 400  # scenarios in a batch; the loop wraps around if it runs out
# A change of integration route may flip decisions whose adjusted p lies
# within the old route's error of alpha; each rate may move this much.
REFERENCE_RATE_TOL = 0.02
# One fixed scenario per workload, run on every seed outside the timed
# region and compared with its stored reference, so every run has a
# referenced simulate result however its seed was drawn.
ANCHOR_REPLICATES = {"simulate_power": 400, "simulate_null": 1000}
ANCHOR_SEED = 2011
PARALLEL_CHECK = {"pi": (0.10, 0.10, 0.10, 0.10), "replicates": 600}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# --- independent oracles -------------------------------------------------


def haldane_log_odds(n, y):
    """Group log odds and Wald variances, 0.5 added where y is 0 or n."""
    n = np.asarray(n, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    edge = (y == 0) | (y == n)
    y = np.where(edge, y + 0.5, y)
    n = np.where(edge, n + 1.0, n)
    return np.log(y / (n - y)), 1.0 / y + 1.0 / (n - y)


def dunnett_raw_p(n, y):
    """One-sided raw p of each dose against control; works on stacked tables."""
    eta, var = haldane_log_odds(n, y)
    t = (eta[..., 1:] - eta[..., :1]) / np.sqrt(var[..., 1:] + var[..., :1])
    return ndtr(-t)


def williams_raw_p(n, y):
    """One-sided raw p of control against each n-weighted top-dose pool."""
    n = np.asarray(n, dtype=np.float64)
    eta, var = haldane_log_odds(n, y)
    k = n.shape[-1] - 1
    out = []
    for lo in range(k, 0, -1):
        w = n[..., lo:] / n[..., lo:].sum(axis=-1, keepdims=True)
        est = (w * eta[..., lo:]).sum(axis=-1) - eta[..., 0]
        se = np.sqrt((w * w * var[..., lo:]).sum(axis=-1) + var[..., 0])
        out.append(ndtr(-est / se))
    return np.stack(out, axis=-1)


# --- analyze inputs ------------------------------------------------------


def _draw_tables(rng, k, count):
    """Candidate tables: unbalanced n, null or monotone shape, some edge groups."""
    n = rng.integers(20, 61, size=(count, k + 1))
    mono = rng.random(count) < 0.5
    p0 = np.where(mono, rng.uniform(0.05, 0.3, count), rng.uniform(0.05, 0.5, count))
    slope = np.where(mono, rng.uniform(0.1, 0.4, count), 0.0)
    pi = p0[:, None] + slope[:, None] * np.linspace(0.0, 1.0, k + 1)
    y = rng.binomial(n, pi)
    # one group forced to zero or full response takes the haldane path
    edge = np.flatnonzero(rng.random(count) < 0.2)
    group = rng.integers(0, k + 1, edge.size)
    full = rng.random(edge.size) < 0.5
    y[edge, group] = np.where(full, n[edge, group], 0)
    ok = ~(np.all(y == 0, axis=1) | np.all(y == n, axis=1))
    return n[ok], y[ok]


def _stratified(rng, k, count):
    """``count`` tables with k doses, stratified on how hard they are to integrate.

    Tables of equal k differ in cost by an order of magnitude, mostly with
    the number of contrasts whose raw p lies in HARD_BAND.  Candidates are
    ranked on that number and taken at evenly spaced ranks, in a
    golden-ratio order, so every prefix of the sequence spans the range
    and two seeds draw the same mix of easy and hard tables.
    """
    n, y = _draw_tables(rng, k, CANDIDATES_PER_TABLE * count)
    p = np.concatenate([dunnett_raw_p(n, y), williams_raw_p(n, y)], axis=1)
    hard = np.sum((p > HARD_BAND[0]) & (p <= HARD_BAND[1]), axis=1)
    ranked = np.lexsort((rng.random(hard.size), hard))
    slot = np.argsort(np.argsort((np.arange(count) * GOLDEN) % 1.0))
    pick = ranked[((slot + rng.random()) / count * hard.size).astype(int)]
    return [(tuple(int(v) for v in n[i]), tuple(int(v) for v in y[i])) for i in pick]


def analyze_tables(seed: int) -> list:
    """The batch: liarozole, then rounds of seeded small and fixed large tables."""
    rng = _rng(seed, "analyze")
    panel_rng = np.random.default_rng(PANEL_SEED)
    per_k = {
        k: _stratified(panel_rng if k in PANEL_K else rng, k, c * ANALYZE_ROUNDS)
        for k, c in ROUND_MIX.items()
    }
    tables = [{"labels": LIAROZOLE["labels"], "n": LIAROZOLE["n"], "y": LIAROZOLE["y"]}]
    for r in range(ANALYZE_ROUNDS):
        block = []
        for k, c in ROUND_MIX.items():
            for n, y in per_k[k][r * c : (r + 1) * c]:
                block.append({"labels": tuple(str(i) for i in range(k + 1)), "n": n, "y": y})
        rng.shuffle(block)
        tables.extend(block)
    return tables


def write_csv(path, table) -> None:
    lines = ["dose,n,responders"]
    lines += [f"{d},{n},{y}" for d, n, y in zip(table["labels"], table["n"], table["y"])]
    path.write_text("\n".join(lines) + "\n")


def run_analyze(csv_path):
    """One analyst request: the CLI in process, JSON report captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", "--input", str(csv_path), "--format", "json"])
    return code, out.getvalue()


def analyze_pvalues(report: dict) -> list:
    """Every p-value of a JSON report in a fixed order, for the reference."""
    rows = report["rows"]
    family = report["williams_family"]
    return (
        [r["dunnett"] for r in rows]
        + [r["ctp_pairwise"] for r in rows]
        + [r["ctp_williams"] for r in rows]
        + list(family["adjusted_rows"])
        + [family["global"]]
    )


def check_analyze(table, output, reference=None) -> list:
    """Problems found in one analyze result; an empty list means correct."""
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    report = json.loads(text)
    rows = report["rows"]
    k = len(table["n"]) - 1
    if len(rows) != k:
        return [f"{len(rows)} rows for {k} doses"]
    problems = []
    ps = analyze_pvalues(report)
    if not all(0.0 <= p <= 1.0 for p in ps):
        problems.append("p outside [0, 1]")
    for col in ("ctp_pairwise", "ctp_williams"):
        v = [r[col] for r in rows]
        if any(a < b for a, b in zip(v, v[1:])):
            problems.append(f"{col} increases with dose")
    family = report["williams_family"]
    if rows[-1]["ctp_williams"] != family["global"]:
        problems.append("top ctp_williams differs from the global Williams p")
    if rows[-1]["williams"] != family["adjusted_rows"][0]:
        problems.append("williams column differs from the top Williams row")
    p_raw = dunnett_raw_p(table["n"], table["y"])
    for i, r in enumerate(rows):
        lo, hi = p_raw[i], min(1.0, k * p_raw[i])
        if not lo * (1 - ENVELOPE_RTOL) <= r["dunnett"] <= hi * (1 + ENVELOPE_RTOL):
            problems.append(f"dunnett p of dose {i + 1} outside [p_raw, min(1, k p_raw)]")
    chain = np.maximum.accumulate(p_raw[::-1])[::-1]
    if not np.allclose([r["ctp_pairwise"] for r in rows], chain, rtol=ENVELOPE_RTOL, atol=0):
        problems.append("ctp_pairwise is not the running maximum of the raw p-values")
    if tuple(table["n"]) == LIAROZOLE["n"] and tuple(table["y"]) == LIAROZOLE["y"]:
        got = [r["dunnett"] for r in rows] + [rows[-1]["williams"]]
        got += [r["ctp_pairwise"] for r in rows] + [r["ctp_williams"] for r in rows]
        err = max(abs(g - w) for g, w in zip(got, LIAROZOLE_PUBLISHED))
        if err > LIAROZOLE_TOL:
            problems.append(f"liarozole off the published values by {err:.5f}")
    if reference is not None:
        err = max(abs(g - w) for g, w in zip(ps, reference))
        if len(ps) != len(reference) or err > REFERENCE_P_TOL:
            problems.append(f"p-values off the reference by {err:.2e}")
    return problems


# --- simulate inputs -----------------------------------------------------


def scenarios(seed: int, workload: str, count: int = SIMULATE_OPS) -> list:
    """``count`` scenarios of the workload, each with its own seed."""
    cfg = SCENARIOS[workload]
    seeds = _rng(seed, workload).integers(0, 2**63 - 1, size=count)
    return [
        simulate.Scenario(
            pi=cfg["pi"], n=GROUP_N, replicates=cfg["replicates"], seed=int(s),
            name=f"{workload}-{i}",
        )
        for i, s in enumerate(seeds)
    ]


def anchor_scenario(workload: str):
    return simulate.Scenario(
        pi=SCENARIOS[workload]["pi"], n=GROUP_N, replicates=ANCHOR_REPLICATES[workload],
        seed=ANCHOR_SEED, name=f"{workload}-anchor",
    )


def run_simulate(scenario):
    return simulate.run_scenario(scenario).to_dict()


def decision_counts(result: dict) -> list:
    """Rates as decision counts, in the published column order, then counters."""
    rates = result["rates"]
    reps = result["replicates"]
    v = (
        rates["dunnett"]["per_dose"]
        + [rates["dunnett"]["any"], rates["williams"]["top"], rates["williams"]["any"]]
        + rates["ctp_pairwise"]["per_dose"]
        + [rates["ctp_pairwise"]["any"]]
        + rates["ctp_williams"]["per_dose"]
        + [rates["ctp_williams"]["any"]]
    )
    return [round(r * reps) for r in v] + [result["n_boundary"], result["n_degenerate"]]


def check_simulate(scenario, result: dict, reference=None) -> list:
    """Problems found in one scenario result; an empty list means correct."""
    k = scenario.k
    reps = scenario.replicates
    counts = decision_counts(result)
    dun, d_any, w_top, w_any = counts[:k], counts[k], counts[k + 1], counts[k + 2]
    pair, p_any = counts[k + 3 : 2 * k + 3], counts[2 * k + 3]
    ctpw, c_any = counts[2 * k + 4 : 3 * k + 4], counts[3 * k + 4]
    n_boundary, n_degenerate = counts[3 * k + 5], counts[3 * k + 6]
    problems = []
    if result["replicates"] != reps or result["seed"] != scenario.seed:
        problems.append("result does not describe its scenario")
    if max(dun) > d_any or w_top > w_any:
        problems.append("a per-row rate exceeds its any-row rate")
    # closed tests claim a dose only with every higher dose
    for name, per_dose, any_count in (("ctp_pairwise", pair, p_any), ("ctp_williams", ctpw, c_any)):
        if any(a > b for a, b in zip(per_dose, per_dose[1:])) or per_dose[-1] != any_count:
            problems.append(f"{name} claims are not closed under higher doses")
    if c_any != w_any:
        problems.append("ctp_williams any-rate differs from the global Williams rate")
    if n_boundary + n_degenerate > reps:
        problems.append("replicate counters exceed the replicates")
    if reference is not None:
        if counts[-2:] != reference[-2:]:
            problems.append("boundary or degenerate count differs from the reference")
        worst = max(abs(a - b) for a, b in zip(counts[:-2], reference[:-2])) / reps
        if worst > REFERENCE_RATE_TOL:
            problems.append(f"a rate is off the reference by {worst:.3f}")
    return problems


def parallelism_identical(seed: int) -> bool:
    """A short scenario gives the same result at parallelism 1 and 2."""
    sc = simulate.Scenario(
        pi=PARALLEL_CHECK["pi"], n=GROUP_N, replicates=PARALLEL_CHECK["replicates"],
        seed=seed, name="parallelism-check",
    )
    serial = simulate.run_scenario(sc, parallelism=1).to_dict()
    return serial == simulate.run_scenario(sc, parallelism=2).to_dict()
