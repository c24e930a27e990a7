import textwrap

import numpy as np
import pytest
import yaml

from trendcomp.ctp import closed_analysis
from trendcomp.data import DoseGroupData
from trendcomp.model import NoInformationError
from trendcomp.simulate import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    StudyConfigError,
    _run_chunk,
    load_study,
    run_scenario,
    run_study,
)

SMALL = Scenario(pi=(0.1, 0.3, 0.5), n=(15, 15, 15), replicates=200, seed=7)


class TestScenarioValidation:
    def test_defaults(self):
        sc = Scenario(pi=(0.05, 0.3), n=(50, 50))
        assert sc.replicates == 5000
        assert sc.alpha == 0.05
        assert sc.boundary_policy == "smooth"
        assert sc.k == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            Scenario(pi=(0.1, 0.2, 0.3), n=(10, 10))

    def test_pi_must_be_interior(self):
        with pytest.raises(ValueError, match="strictly"):
            Scenario(pi=(0.0, 0.2), n=(10, 10))
        with pytest.raises(ValueError, match="strictly"):
            Scenario(pi=(0.1, 1.0), n=(10, 10))

    def test_needs_dose_group(self):
        with pytest.raises(ValueError, match="control group"):
            Scenario(pi=(0.1,), n=(10,))

    def test_positive_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            Scenario(pi=(0.1, 0.2), n=(10, 0))

    def test_replicates_positive(self):
        with pytest.raises(ValueError, match="replicates"):
            Scenario(pi=(0.1, 0.2), n=(10, 10), replicates=0)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            Scenario(pi=(0.1, 0.2), n=(10, 10), alpha=0.0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="seed"):
            Scenario(pi=(0.1, 0.2), n=(10, 10), seed=-1)

    def test_policy_checked(self):
        with pytest.raises(ValueError, match="boundary_policy"):
            Scenario(pi=(0.1, 0.2), n=(10, 10), boundary_policy="drop")

    def test_mvn_tol_positive(self):
        # Decisions are exact, so the QMC tolerance is gone: no value, zero or
        # positive, is accepted, and the error names the field.
        for tol in (0.0, 1e-3):
            with pytest.raises(TypeError, match="mvn_tol"):
                Scenario(pi=(0.1, 0.2), n=(10, 10), mvn_tol=tol)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", (10.7, 10)),
            ("n", (True, 10)),
            ("replicates", 2.9),
            ("replicates", True),
            ("replicates", "300"),
            ("alpha", "0.1"),
            ("seed", False),
            ("seed", 1.5),
        ],
    )
    def test_bools_strings_and_fractions_rejected(self, field, value):
        kwargs = {"pi": (0.1, 0.2), "n": (10, 10), field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            Scenario(**kwargs)

    def test_integral_floats_accepted(self):
        sc = Scenario(pi=(0.1, 0.2), n=(10.0, np.int64(10)), replicates=300.0, seed=np.uint64(4))
        assert (sc.n, sc.replicates, sc.seed) == ((10, 10), 300, 4)
        assert all(type(v) is int for v in (*sc.n, sc.replicates, sc.seed))


class TestRunScenario:
    def test_parallelism_is_bit_identical(self):
        sc = Scenario(pi=(0.1, 0.2, 0.4), n=(20, 20, 20), replicates=600, seed=3)
        serial = run_scenario(sc, parallelism=1)
        parallel = run_scenario(sc, parallelism=2)
        np.testing.assert_array_equal(serial.rate_dunnett, parallel.rate_dunnett)
        np.testing.assert_array_equal(
            serial.rate_ctp_pairwise, parallel.rate_ctp_pairwise
        )
        np.testing.assert_array_equal(
            serial.rate_ctp_williams, parallel.rate_ctp_williams
        )
        assert serial.rate_williams_top == parallel.rate_williams_top
        assert serial.rate_williams_any == parallel.rate_williams_any
        assert serial.n_boundary == parallel.n_boundary
        assert serial.to_dict() == parallel.to_dict()

    def test_single_replicate_rates_are_indicator(self):
        sc = Scenario(pi=(0.2, 0.6), n=(25, 25), replicates=1, seed=11)
        res = run_scenario(sc)
        pool = np.concatenate(
            [
                res.rate_dunnett,
                [res.rate_dunnett_any, res.rate_williams_top, res.rate_williams_any],
                res.rate_ctp_pairwise,
                [res.rate_ctp_pairwise_any],
                res.rate_ctp_williams,
                [res.rate_ctp_williams_any],
            ]
        )
        assert set(pool.tolist()) <= {0.0, 1.0}

    def test_chain_rates_non_decreasing_in_dose(self):
        res = run_scenario(SMALL)
        assert np.all(np.diff(res.rate_ctp_pairwise) >= 0.0)
        assert np.all(np.diff(res.rate_ctp_williams) >= 0.0)

    def test_any_rate_dominates_per_dose(self):
        res = run_scenario(SMALL)
        assert res.rate_dunnett_any >= res.rate_dunnett.max()
        assert res.rate_ctp_pairwise_any >= res.rate_ctp_pairwise.max()
        assert res.rate_ctp_williams_any >= res.rate_ctp_williams.max()
        assert res.rate_williams_any >= res.rate_williams_top

    def test_chain_any_equals_top_dose_rate(self):
        # the chain rejects some dose iff it rejects the top dose
        res = run_scenario(SMALL)
        assert res.rate_ctp_pairwise_any == res.rate_ctp_pairwise[-1]
        assert res.rate_ctp_williams_any == res.rate_ctp_williams[-1]

    def test_degenerate_replicates_counted_not_claimed(self):
        sc = Scenario(pi=(0.01, 0.01), n=(2, 2), replicates=400, seed=5)
        res = run_scenario(sc)
        assert res.n_degenerate > 0
        assert res.n_degenerate + res.n_boundary <= sc.replicates

    def test_boundary_replicates_counted(self):
        sc = Scenario(pi=(0.05, 0.3), n=(12, 12), replicates=300, seed=9)
        res = run_scenario(sc)
        assert res.n_boundary > 0

    def test_reject_policy_drops_boundary_replicates(self):
        sc = Scenario(
            pi=(0.03, 0.9), n=(8, 8), replicates=300, seed=2,
            boundary_policy="reject",
        )
        res = run_scenario(sc)
        assert res.n_boundary > 0
        # dropped replicates cannot contribute claims
        smooth = run_scenario(
            Scenario(pi=(0.03, 0.9), n=(8, 8), replicates=300, seed=2)
        )
        assert res.rate_dunnett_any <= smooth.rate_dunnett_any

    def test_policy_changes_rates(self):
        base = dict(pi=(0.05, 0.3), n=(20, 20), replicates=400, seed=4)
        r_smooth = run_scenario(Scenario(**base))
        r_haldane = run_scenario(Scenario(**base, boundary_policy="haldane"))
        assert r_smooth.n_boundary == r_haldane.n_boundary
        assert r_smooth.rate_dunnett_any != r_haldane.rate_dunnett_any

    def test_parallelism_validated(self):
        with pytest.raises(ValueError, match="parallelism"):
            run_scenario(SMALL, parallelism=0)

    def test_to_dict_round_trips_plain_types(self):
        import json

        res = run_scenario(SMALL)
        d = res.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert "elapsed" not in d
        assert d["rates"]["ctp_pairwise"]["per_dose"] == list(res.rate_ctp_pairwise)

    def test_run_study_preserves_order(self):
        a = Scenario(pi=(0.2, 0.5), n=(12, 12), replicates=50, seed=0, name="a")
        b = Scenario(pi=(0.2, 0.7), n=(12, 12), replicates=50, seed=1, name="b")
        results = run_study([a, b])
        assert [r.scenario.name for r in results] == ["a", "b"]

    def test_run_study_type_checked(self):
        with pytest.raises(TypeError, match="Scenario"):
            run_study([{"pi": (0.1, 0.2)}])


def analysis_counts(sc: Scenario, rep: int) -> np.ndarray:
    """Replicate ``rep`` redrawn from the seed contract, claimed by closed_analysis.

    Same layout as the decision counts of one simulated replicate.
    """
    k = sc.k
    n = np.asarray(sc.n)
    draw = np.random.default_rng(np.random.SeedSequence(sc.seed, spawn_key=(rep, 0)))
    data = DoseGroupData(labels=tuple(map(str, range(k + 1))), n=n, y=draw.binomial(n, sc.pi))
    out = np.zeros(3 * k + 7, dtype=np.int64)
    try:
        res = closed_analysis(data, alpha=sc.alpha, boundary_policy=sc.boundary_policy)
    except NoInformationError:
        out[-1] = 1
        return out
    dunnett = res.p_dunnett < sc.alpha
    pairwise = res.p_ctp_pairwise < sc.alpha
    williams = res.p_ctp_williams < sc.alpha
    out[:k], out[k] = dunnett, dunnett.any()
    out[k + 1] = res.p_williams_rows[0] < sc.alpha
    out[k + 2] = res.p_williams_global < sc.alpha
    out[k + 3 : 2 * k + 3], out[2 * k + 3] = pairwise, pairwise.any()
    out[2 * k + 4 : 3 * k + 4], out[3 * k + 4] = williams, williams.any()
    out[3 * k + 5] = res.correction_applied.any()
    return out


@pytest.mark.parametrize(
    "pi", [(0.05, 0.10, 0.20, 0.30), (0.10, 0.10, 0.10, 0.10)], ids=["power", "null"]
)
def test_simulate_claims_what_analyze_claims(pi):
    sc = Scenario(pi=pi, n=(50,) * 4, replicates=250, seed=5)
    disagree = [
        rep
        for rep in range(sc.replicates)
        if not np.array_equal(_run_chunk(sc, rep, 1), analysis_counts(sc, rep))
    ]
    assert disagree == []


class TestScenarioResultValidation:
    def _result(self, **overrides):
        base = dict(
            scenario=Scenario(pi=(0.1, 0.3), n=(10, 10), replicates=100),
            rate_dunnett=np.array([0.4]),
            rate_dunnett_any=0.4,
            rate_williams_top=0.4,
            rate_williams_any=0.4,
            rate_ctp_pairwise=np.array([0.5]),
            rate_ctp_pairwise_any=0.5,
            rate_ctp_williams=np.array([0.4]),
            rate_ctp_williams_any=0.4,
            n_boundary=3,
            n_degenerate=0,
            elapsed=0.0,
        )
        base.update(overrides)
        return ScenarioResult(**base)

    def test_accepts_consistent(self):
        self._result()

    def test_any_cannot_undercut_per_dose(self):
        with pytest.raises(ValueError, match="cannot be below"):
            self._result(rate_dunnett=np.array([0.6]))

    def test_counter_totals_checked(self):
        with pytest.raises(ValueError, match="exceed"):
            self._result(n_boundary=80, n_degenerate=30)

    def test_rates_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            self._result(rate_ctp_pairwise=np.array([1.2]), rate_ctp_pairwise_any=1.2)


class TestLoadStudy:
    def _write(self, tmp_path, text):
        p = tmp_path / "study.yaml"
        p.write_text(textwrap.dedent(text))
        return p

    def test_minimal_config(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 99
            scenarios:
              - pi: [0.05, 0.3]
                n: [50, 50]
            """,
        )
        (sc,) = load_study(p)
        assert sc.pi == (0.05, 0.3)
        assert sc.n == (50, 50)
        assert sc.replicates == 5000
        assert sc.name == "scenario-0"
        assert sc.boundary_policy == "smooth"

    def test_defaults_merge_and_override(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 0
            defaults:
              n: [50, 50, 50, 50]
              replicates: 250
              alpha: 0.05
            scenarios:
              - name: null-row
                pi: [0.1, 0.1, 0.1, 0.1]
              - name: alt-row
                pi: [0.05, 0.1, 0.2, 0.3]
                replicates: 777
            """,
        )
        first, second = load_study(p)
        assert first.n == (50, 50, 50, 50)
        assert first.replicates == 250
        assert second.replicates == 777
        assert second.name == "alt-row"

    def test_derived_seeds_stable_under_reordering(self, tmp_path):
        base = """
            schema_version: 1
            master_seed: 31
            defaults:
              n: [20, 20]
              replicates: 10
            scenarios:
              - {{name: a, pi: [0.1, 0.2]}}
              - {{name: b, pi: [0.1, 0.3]}}{extra}
        """
        p1 = self._write(tmp_path, base.format(extra=""))
        seeds1 = {sc.name: sc.seed for sc in load_study(p1)}
        p2 = self._write(
            tmp_path,
            base.format(extra="\n              - {name: c, pi: [0.1, 0.4]}"),
        )
        seeds2 = {sc.name: sc.seed for sc in load_study(p2)}
        assert seeds1["a"] == seeds2["a"]
        assert seeds1["b"] == seeds2["b"]
        assert seeds1["a"] != seeds1["b"]

    def test_explicit_seed_wins(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 31
            scenarios:
              - {pi: [0.1, 0.2], n: [10, 10], seed: 12345}
            """,
        )
        (sc,) = load_study(p)
        assert sc.seed == 12345

    def test_json_config_accepted(self, tmp_path):
        p = tmp_path / "study.json"
        p.write_text(
            '{"schema_version": 1, "master_seed": 5, '
            '"scenarios": [{"pi": [0.1, 0.2], "n": [10, 10]}]}'
        )
        (sc,) = load_study(p)
        assert sc.pi == (0.1, 0.2)

    def test_wrong_schema_version(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 2
            master_seed: 0
            scenarios: [{pi: [0.1, 0.2], n: [5, 5]}]
            """,
        )
        with pytest.raises(StudyConfigError, match="schema_version"):
            load_study(p)

    def test_missing_master_seed(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            scenarios: [{pi: [0.1, 0.2], n: [5, 5]}]
            """,
        )
        with pytest.raises(StudyConfigError, match="master_seed"):
            load_study(p)

    def test_master_seed_type_checked(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: "abc"
            scenarios: [{pi: [0.1, 0.2], n: [5, 5]}]
            """,
        )
        with pytest.raises(StudyConfigError, match="master_seed"):
            load_study(p)

    def test_unknown_top_level_field(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 0
            surprise: 1
            scenarios: [{pi: [0.1, 0.2], n: [5, 5]}]
            """,
        )
        with pytest.raises(StudyConfigError, match="unknown field"):
            load_study(p)

    def test_unknown_scenario_field_named(self, tmp_path):
        # mvn_tol was a scenario field while simulate integrated by QMC
        for field in ("power", "mvn_tol"):
            p = self._write(
                tmp_path,
                f"""
                schema_version: 1
                master_seed: 0
                scenarios:
                  - {{pi: [0.1, 0.2], n: [5, 5], {field}: 0.8}}
                """,
            )
            with pytest.raises(StudyConfigError, match=rf"scenarios\[0\]\.{field}"):
                load_study(p)

    def test_missing_pi_named(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 0
            scenarios:
              - {pi: [0.1, 0.2], n: [5, 5]}
              - {n: [5, 5]}
            """,
        )
        with pytest.raises(StudyConfigError, match=r"scenarios\[1\]\.pi"):
            load_study(p)

    def test_invalid_scenario_values_wrapped(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 0
            scenarios:
              - {pi: [0.1, 0.2], n: [5, 5], replicates: 0}
            """,
        )
        with pytest.raises(StudyConfigError, match=r"scenarios\[0\].*replicates"):
            load_study(p)

    @pytest.mark.parametrize(
        "line, named",
        [
            ("schema_version: true", r"config\.schema_version"),
            ("master_seed: true", r"config\.master_seed"),
            ("seed: false", r"scenarios\[0\]: seed"),
            ("n: [10.7, 10]", r"scenarios\[0\]: n "),
            ("replicates: 2.9", r"scenarios\[0\]: replicates"),
            ("replicates: '300'", r"scenarios\[0\]: replicates"),
            ("alpha: '0.1'", r"scenarios\[0\]: alpha"),
        ],
    )
    def test_wrong_yaml_types_named(self, tmp_path, line, named):
        # each was once coerced: true read as 1, 10.7 as 10, '300' as 300
        ((key, value),) = yaml.safe_load(line).items()
        config = {"schema_version": 1, "master_seed": 0}
        scenario = {"pi": [0.1, 0.2], "n": [10, 10]}
        (config if key in config else scenario)[key] = value
        p = tmp_path / "study.yaml"
        p.write_text(yaml.safe_dump({**config, "scenarios": [scenario]}))
        with pytest.raises(StudyConfigError, match=named):
            load_study(p)

    def test_empty_scenarios_rejected(self, tmp_path):
        p = self._write(
            tmp_path,
            """
            schema_version: 1
            master_seed: 0
            scenarios: []
            """,
        )
        with pytest.raises(StudyConfigError, match="non-empty"):
            load_study(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StudyConfigError, match="cannot read"):
            load_study(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("scenarios: [pi: [0.1,\n")
        with pytest.raises(StudyConfigError, match="valid YAML"):
            load_study(p)

    def test_non_mapping_root(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(StudyConfigError, match="mapping"):
            load_study(p)

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1
