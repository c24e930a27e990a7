"""Acceptance gate: one test and one summary line per primary requirement.

Each test checks a published target at its stated tolerance and records a
single [PASS]/[FAIL] line; the lines are echoed together at the end of
the pytest run.  Rate targets use the canonical column order
[D1 D2 D3 Da W3 P1 P2 P3 Pa C1 C2 C3 Ca].
"""

import json
import time

import numpy as np
from scipy.special import ndtr

from trendcomp.cli import main
from trendcomp.ctp import closed_analysis, raw_pairwise_pvalues
from trendcomp.data import DoseGroupData
from trendcomp.model import fit_saturated_logit
from trendcomp.mvn import MvnSpec, mvn_upper_orthant_complement
from trendcomp.simulate import Scenario, run_scenario

POWER_ROWS = [
    (
        (0.05, 0.05, 0.05, 0.30),
        [.002, .002, .877, .877, .910, .000, .010, .949, .949, .000, .007, .910, .910],
    ),
    (
        (0.05, 0.10, 0.20, 0.30),
        [.056, .496, .895, .921, .934, .102, .687, .961, .961, .109, .634, .957, .957],
    ),
    (
        (0.05, 0.30, 0.30, 0.30),
        [.904, .903, .914, .993, .931, .886, .916, .958, .958, .951, .983, .995, .995],
    ),
    (
        (0.07, 0.07, 0.07, 0.30),
        [.002, .005, .790, .791, .840, .002, .022, .894, .894, .002, .011, .840, .840],
    ),
]

DOWNTURN_ROW = (
    (0.05, 0.10, 0.30, 0.10),
    [.055, .892, .054, .893, .091, .036, .135, .136, .136, .110, .572, .573, .573],
)

NULL_ANY_TARGETS = {
    0.10: (0.022, 0.028, 0.024),
    0.20: (0.038, 0.041, 0.036),
}


def _rate_vector(res) -> np.ndarray:
    return np.array(
        [
            *res.rate_dunnett,
            res.rate_dunnett_any,
            res.rate_williams_top,
            *res.rate_ctp_pairwise,
            res.rate_ctp_pairwise_any,
            *res.rate_ctp_williams,
            res.rate_ctp_williams_any,
        ]
    )


def test_criterion_1_liarozole_reproduction(record, capsys, liarozole_csv):
    t0 = time.perf_counter()
    code = main(["analyze", "--input", liarozole_csv, "--format", "json"])
    elapsed = time.perf_counter() - t0
    rows = json.loads(capsys.readouterr().out)["rows"]
    got = [
        rows[0]["dunnett"], rows[1]["dunnett"], rows[2]["dunnett"],
        rows[2]["williams"],
        rows[0]["ctp_pairwise"], rows[1]["ctp_pairwise"], rows[2]["ctp_pairwise"],
        rows[0]["ctp_williams"], rows[1]["ctp_williams"], rows[2]["ctp_williams"],
    ]
    want = [0.153, 0.362, 0.0056, 0.0036, 0.221, 0.221, 0.0023, 0.153, 0.153, 0.0036]
    err = max(abs(g - w) for g, w in zip(got, want))
    record(
        code == 0 and err <= 0.001 and elapsed < 1.0,
        "criterion 1: liarozole reproduction via analyze, 10 adjusted p-values, "
        f"max |err| {err:.5f} (tol 0.001), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_table1_spot_reproduction(record):
    worst = 0.0
    details = []
    for pi, published in POWER_ROWS:
        sc = Scenario(pi=pi, n=(50,) * 4, replicates=5000, seed=1)
        t0 = time.perf_counter()
        res = run_scenario(sc)
        elapsed = time.perf_counter() - t0
        err = float(np.max(np.abs(_rate_vector(res) - np.asarray(published))))
        worst = max(worst, err)
        details.append(f"pi=({','.join(f'{p:g}' for p in pi)}) err {err:.4f} {elapsed:.0f}s")
    record(
        worst <= 0.02,
        "criterion 2: published power rows, 4 scenarios x 13 rates at 5000 "
        f"replicates, worst |err| {worst:.4f} (tol 0.02); " + "; ".join(details),
    )


def test_criterion_3_null_behavior(record):
    worst = 0.0
    details = []
    for pi0, (da, pa, ca) in NULL_ANY_TARGETS.items():
        sc = Scenario(pi=(pi0,) * 4, n=(50,) * 4, replicates=5000, seed=1)
        res = run_scenario(sc)
        err = max(
            abs(res.rate_dunnett_any - da),
            abs(res.rate_ctp_pairwise_any - pa),
            abs(res.rate_ctp_williams_any - ca),
        )
        worst = max(worst, err)
        details.append(
            f"pi={pi0:g}: Da {res.rate_dunnett_any:.3f}/{da:.3f} "
            f"Pa {res.rate_ctp_pairwise_any:.3f}/{pa:.3f} "
            f"Ca {res.rate_ctp_williams_any:.3f}/{ca:.3f}"
        )
    record(
        worst <= 0.015,
        "criterion 3: null any-pair FWER vs published rates, worst |err| "
        f"{worst:.4f} (tol 0.015); " + "; ".join(details),
    )


def test_criterion_4_mvn_oracle_suite(record):
    failures = []

    # dimension-1 tails are closed form
    spec1 = MvnSpec([[1.0]])
    err1 = max(
        abs(mvn_upper_orthant_complement(spec1, b).value - float(ndtr(-b)))
        for b in (-2.0, -0.5, 0.0, 1.0, 2.5, 4.0)
    )
    if err1 > 1e-6:
        failures.append(f"dim-1 err {err1:.2e}")

    # independence factorizes into a product
    err2 = 0.0
    for m, b in ((2, 1.0), (3, 1.5), (4, 2.0), (5, 0.5)):
        spec = MvnSpec(np.eye(m))
        got = mvn_upper_orthant_complement(spec, b, seed=3, abs_tol=1e-5).value
        err2 = max(err2, abs(got - (1.0 - float(ndtr(b)) ** m)))
    if err2 > 5e-5:
        failures.append(f"independence err {err2:.2e}")

    # bivariate rho=1/2 orthant at 0: complement is exactly 2/3
    R = np.array([[1.0, 0.5], [0.5, 1.0]])
    got = mvn_upper_orthant_complement(MvnSpec(R), 0.0, seed=3, abs_tol=1e-5).value
    err3 = abs(got - 2.0 / 3.0)
    if err3 > 5e-5:
        failures.append(f"bivariate err {err3:.2e}")

    # Bonferroni sandwich on random correlation matrices
    rng = np.random.default_rng(8)
    broken = 0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        A = rng.standard_normal((m, m + 2))
        S = A @ A.T
        d = np.sqrt(np.diag(S))
        spec = MvnSpec(S / np.outer(d, d))
        b = float(rng.uniform(0.0, 3.0))
        tail = mvn_upper_orthant_complement(spec, b, seed=int(rng.integers(2**31)), abs_tol=1e-3)
        p1 = float(ndtr(-b))
        if not (p1 - 1e-12 <= tail.value <= min(1.0, m * p1) + 1e-12):
            broken += 1
    if broken:
        failures.append(f"sandwich broken on {broken}/1000 matrices")

    record(
        not failures,
        "criterion 4: MVN kernel oracle suite, dim-1 err "
        f"{err1:.1e} (tol 1e-6), independence err {err2:.1e} (tol 5e-5), "
        f"bivariate 2/3 err {err3:.1e} (tol 5e-5), sandwich 1000/1000 matrices"
        + ("; FAILED: " + ", ".join(failures) if failures else ""),
    )


def test_criterion_5_structural_properties(record):
    rng = np.random.default_rng(20260823)
    bad = {"adj>=raw": 0, "chains": 0, "top=raw": 0, "k=1": 0}
    n_k1 = 0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        n = rng.integers(5, 61, size=k + 1)
        pi = rng.uniform(0.05, 0.95, size=k + 1)
        y = rng.binomial(n, pi)
        while np.all(y == 0) or np.all(y == n):
            y = rng.binomial(n, pi)
        data = DoseGroupData(
            labels=tuple(str(i) for i in range(k + 1)), n=n, y=y
        )
        rng.integers(2**31)  # keeps the stream of tables this suite has always drawn
        result = closed_analysis(data)
        fit = fit_saturated_logit(data)
        raw = raw_pairwise_pvalues(fit)
        for rep in (result.dunnett_report, result.williams_report):
            if np.any(rep.p_adjusted < rep.p_raw - 1e-12):
                bad["adj>=raw"] += 1
        if np.any(np.diff(result.p_ctp_pairwise) > 1e-15) or np.any(
            np.diff(result.p_ctp_williams) > 1e-15
        ):
            bad["chains"] += 1
        if abs(result.p_ctp_pairwise[-1] - raw[-1]) > 1e-12:
            bad["top=raw"] += 1
        if k == 1:
            n_k1 += 1
            stack = np.stack(
                [
                    result.p_dunnett,
                    result.p_williams_rows,
                    result.p_ctp_pairwise,
                    result.p_ctp_williams,
                ]
            )
            if np.max(np.abs(stack - raw)) > 1e-12:
                bad["k=1"] += 1

    sc = Scenario(pi=(0.1, 0.3, 0.5), n=(20, 20, 20), replicates=400, seed=5)
    serial = run_scenario(sc, parallelism=1).to_dict()
    parallel = run_scenario(sc, parallelism=2).to_dict()
    bit_identical = serial == parallel

    ok = not any(bad.values()) and bit_identical and n_k1 > 0
    record(
        ok,
        "criterion 5: structural properties on 1000 random datasets "
        f"(k<=6, {n_k1} with k=1), violations {bad}, "
        f"parallelism bit-identical: {bit_identical}",
    )


def test_note_downturn_row(record):
    pi, published = DOWNTURN_ROW
    sc = Scenario(pi=pi, n=(50,) * 4, replicates=5000, seed=1)
    res = run_scenario(sc)
    err = float(np.max(np.abs(_rate_vector(res) - np.asarray(published))))
    # ordered tests lose the top dose under a downturn; Dunnett keeps dose 2
    qualitative = res.rate_williams_top < 0.2 and res.rate_dunnett[1] > 0.8
    record(
        err <= 0.02 and qualitative,
        f"note: downturn row pi=({','.join(f'{p:g}' for p in pi)}), worst |err| "
        f"{err:.4f} (tol 0.02), W3 {res.rate_williams_top:.3f} vs D2 "
        f"{res.rate_dunnett[1]:.3f}",
    )
