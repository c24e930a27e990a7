"""Tests of the benchmark itself: quick runs, output checks, contract.

    PYTHONPATH=src python3 -m pytest -q layerbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

LIAROZOLE_CSV = ROOT / "tests" / "data" / "liarozole.csv"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "layerbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_is_correct(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == wl.WHY[w["name"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_inputs_follow_the_seed():
    assert wl.analyze_tables(3) == wl.analyze_tables(3)
    assert wl.analyze_tables(3) != wl.analyze_tables(4)
    tables = wl.analyze_tables(5)
    ks = [len(t["n"]) - 1 for t in tables[1:]]
    assert {k: ks.count(k) for k in wl.ROUND_MIX} == {
        k: c * wl.ANALYZE_ROUNDS for k, c in wl.ROUND_MIX.items()
    }
    def panel(tables):
        return sorted((t["n"], t["y"]) for t in tables if len(t["n"]) - 1 in wl.PANEL_K)

    assert panel(tables) == panel(wl.analyze_tables(6))
    assert any(0 in t["y"] or any(y == n for y, n in zip(t["y"], t["n"])) for t in tables)
    assert [s.seed for s in wl.scenarios(2, "simulate_null", 5)] == [
        s.seed for s in wl.scenarios(2, "simulate_null", 5)
    ]


def test_analyze_checks_catch_wrong_output():
    table = {"labels": wl.LIAROZOLE["labels"], "n": wl.LIAROZOLE["n"], "y": wl.LIAROZOLE["y"]}
    code, text = wl.run_analyze(LIAROZOLE_CSV)
    assert wl.check_analyze(table, (code, text)) == []
    report = json.loads(text)
    assert wl.check_analyze(table, (3, text)) == ["exit code 3"]
    bad = json.loads(text)
    bad["rows"][0]["dunnett"] = bad["rows"][0]["dunnett"] / 10
    assert any("dunnett" in p for p in wl.check_analyze(table, (0, json.dumps(bad))))
    bad = json.loads(text)
    bad["rows"][0]["ctp_williams"] = 0.0
    assert any("increases" in p for p in wl.check_analyze(table, (0, json.dumps(bad))))
    ref = wl.analyze_pvalues(report)
    assert wl.check_analyze(table, (code, text), [p + 5e-4 for p in ref]) == []
    assert wl.check_analyze(table, (code, text), [p + 2e-3 for p in ref])


def test_simulate_checks_catch_wrong_output():
    sc = wl.scenarios(0, "simulate_power", 1)[0]
    result = wl.run_simulate(sc)
    ref = wl.decision_counts(result)
    assert wl.check_simulate(sc, result, ref) == []
    shifted = list(ref)
    shifted[-2] += 1
    assert wl.check_simulate(sc, result, shifted)
    shifted = list(ref)
    shifted[0] += 5
    assert wl.check_simulate(sc, result, shifted)
    bad = json.loads(json.dumps(result))
    bad["rates"]["ctp_williams"]["per_dose"][0] = 1.0
    assert wl.check_simulate(sc, bad)


def test_every_simulate_run_has_a_referenced_anchor():
    for workload in ("simulate_power", "simulate_null"):
        bench, _ = run.set_up(workload, 12345, quick=True)
        assert bench.anchors
        assert all(len(bench.reference[i]) == 3 * bench.inputs[i].k + 7 for i in bench.anchors)


def test_tracer_patches_every_call_site_and_restores_it():
    import trendcomp.mvn
    from spans import Tracer

    original = trendcomp.mvn._kernel.qmc_shift_means
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = wl.run_analyze(LIAROZOLE_CSV)
    finally:
        tracer.uninstall()
    assert code == 0
    assert trendcomp.mvn._kernel.qmc_shift_means is original
    for site in (
        "trendcomp.simulate.MvnSpec", "trendcomp.simulate.adjusted_p_below",
        "trendcomp.simulate.contrast_moments", "trendcomp.contrasts.MvnSpec",
        "trendcomp.contrasts.adjust_maxt", "trendcomp.ctp.contrast_test",
        "trendcomp.ctp.contrast_moments", "trendcomp.ctp.fit_saturated_logit",
        "trendcomp.mvn.mvn_upper_orthant_complement", "trendcomp.cli.closed_analysis",
        "trendcomp.cli.read_counts_csv",
    ):
        module, attr = site.rsplit(".", 1)
        if hasattr(sys.modules[module], attr):  # the call site still exists
            assert site in tracer.sites
    m = tracer.metrics()
    for name in ("cli.main", "data.read_counts_csv", "ctp.closed_analysis",
                 "model.fit_saturated_logit"):
        assert m[f"{name}.calls"] == 1
    assert m["contrasts.contrast_test.calls"] == m["mvn.adjust_maxt.calls"] > 0
    assert m["kernel.qmc_shift_means.calls"] > 0 and m["kernel.points"] > 0
    assert 0.0 <= m["cli.main.self_s"] <= m["cli.main.s"]
