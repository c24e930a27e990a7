import textwrap
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import yaml
from conftest import widen_brackets

from trendcomp.chains import chain_maxt
from trendcomp.contrasts import ContrastError
from trendcomp.ctp import closed_analysis
from trendcomp.data import DoseGroupData
from trendcomp.model import BoundaryCountError, NoInformationError
from trendcomp import contrasts, ctp, mvn, simulate
from trendcomp.mvn import MAX_DIMENSION
from trendcomp.simulate import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioResult,
    StudyConfigError,
    _count_chunk,
    _decide,
    _draw,
    _inversion,
    _pcg64_doubles,
    _State,
    _states,
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

    def test_replicates_capped_at_one_word_spawn_keys(self):
        # replicate 2**32 would hash a two-word spawn key
        assert Scenario(pi=(0.1, 0.2), n=(10, 10), replicates=2**32).replicates == 2**32
        with pytest.raises(ValueError, match=r"^replicates must be at most 2\*\*32"):
            Scenario(pi=(0.1, 0.2), n=(10, 10), replicates=2**32 + 1)

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

    def test_more_dose_groups_than_analyze_supports(self):
        # analyze rejects k > MAX_DIMENSION, so simulate must not claim on such tables
        groups = MAX_DIMENSION + 1
        assert Scenario(pi=(0.1,) * groups, n=(10,) * groups).k == MAX_DIMENSION
        with pytest.raises(ValueError, match=r"^pi has 34 entries, but at most 32 dose groups"):
            Scenario(pi=(0.1,) * 34, n=(10,) * 34)

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

    def test_results_compare_by_value(self):
        sc = Scenario(pi=(0.1, 0.2, 0.4), n=(20, 20, 20), replicates=50, seed=3)
        res = run_scenario(sc)
        # wall time is not part of the result's value
        assert res == replace(run_scenario(sc), elapsed=res.elapsed + 1.0)
        assert res != run_scenario(replace(sc, seed=4))

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

    def test_a_study_opens_one_pool(self, monkeypatch):
        opened = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Counted)
        study = [
            Scenario(pi=(0.1, 0.2, 0.4), n=(20, 20, 20), replicates=600, seed=s) for s in range(3)
        ]
        assert run_study(study, parallelism=2) == run_study(study)
        assert len(opened) == 1
        # a study of single chunks has nothing to share out
        run_study([replace(sc, replicates=100) for sc in study], parallelism=2)
        assert len(opened) == 1

    def test_the_pool_has_no_more_workers_than_a_scenario_has_chunks(self, monkeypatch):
        # a scenario's chunks are counted together, one scenario at a time, so
        # a worker past the largest chunk count would only start and idle
        workers = []

        class Serial:
            """A stand-in pool that maps in this process and starts none."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Serial)
        study = [
            Scenario(pi=(0.1, 0.2, 0.4), n=(20, 20, 20), replicates=r, seed=s)
            for s, r in enumerate((600, 1200, 100))
        ]
        assert run_study(study, parallelism=64) == run_study(study)
        assert workers == [3]  # 1,200 replicates are three chunks of 512
        run_study(study[::2], parallelism=64)
        run_study(study, parallelism=2)
        assert workers == [3, 2, 2]


def contract_table(sc: Scenario, rep: int) -> np.ndarray:
    """The counts of replicate ``rep``, redrawn from the seed contract."""
    draw = np.random.default_rng(np.random.SeedSequence(sc.seed, spawn_key=(rep, 0)))
    return draw.binomial(np.asarray(sc.n), sc.pi)


@pytest.mark.parametrize(
    "seed",
    [0, 2**32 - 1, 2**32 + 5, 2**63 - 1, 2**70 + 12345, 2**96 + 5, 2**128 + 9, 2**200 + 7],
    ids=["1-word-0", "1-word-max", "2-words", "2-words-max", "3-words", "4-words", "5-words", "7-words"],
)
def test_states_are_the_seed_sequence_states(seed):
    reps = [0, 1, 2**31, 2**32 - 1]
    expected = [
        np.random.SeedSequence(seed, spawn_key=(rep, 0)).generate_state(4, np.uint64)
        for rep in reps
    ]
    states = _states(seed, np.array(reps, dtype=np.uint64))
    assert states.dtype == np.uint64
    # _State hands PCG64 a row, which must be the row's own four words
    assert states.flags.c_contiguous
    np.testing.assert_array_equal(states, expected)


@pytest.mark.parametrize("seed", [5, 2**63 - 1, 2**200 + 7], ids=["1-word", "2-words", "7-words"])
@pytest.mark.parametrize("rows", [1, 100, 512])
def test_doubles_are_the_generator_doubles(seed, rows):
    # each output state is one jump from the seed, for every count of doubles
    states = _states(seed, np.arange(1000, 1000 + rows, dtype=np.uint64))
    expected = [np.random.Generator(np.random.PCG64(_State(s))).random(9) for s in states]
    for count in range(1, 10):
        np.testing.assert_array_equal(_pcg64_doubles(states, count), np.array(expected)[:, :count])


@pytest.mark.parametrize(
    "sc",
    [
        Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, seed=31),
        Scenario(pi=(0.03, 0.2, 0.5, 0.6), n=(12, 8, 10, 10), seed=2**40 + 3),
        Scenario(pi=(0.1, 0.4), n=(20, 20), seed=0),
        # n * min(p, 1 - p) > 30: numpy draws these by BTPE, not by inversion
        Scenario(pi=(0.5, 0.5, 0.45), n=(200, 200, 200), seed=32),
    ],
    ids=["balanced", "unbalanced", "k1", "btpe"],
)
def test_draw_is_the_contract_draw(sc):
    expected = [contract_table(sc, rep) for rep in range(1000, 1300)]
    np.testing.assert_array_equal(_draw(sc, 1000, 300), expected)


def test_draw_keeps_the_stream_of_a_derived_seed(tmp_path):
    p = tmp_path / "study.yaml"
    p.write_text("schema_version: 1\nmaster_seed: 4\nscenarios:\n  - {pi: [0.1, 0.3], n: [40, 40]}\n")
    (sc,) = load_study(p)
    assert sc.seed >= 2**32  # two words
    expected = [contract_table(sc, rep) for rep in range(7, 207)]
    np.testing.assert_array_equal(_draw(sc, 7, 200), expected)


def random_design(rng):
    """A scenario of 2-8 groups of 1-120 with rates near 0, near 1, above 0.5 or anywhere."""
    groups = int(rng.integers(2, 9))
    pi = []
    for kind in rng.integers(0, 4, groups):
        if kind == 0:
            pi.append(10 ** rng.uniform(-9, -1))
        elif kind == 1:
            pi.append(1 - 10 ** rng.uniform(-9, -1))
        elif kind == 2:
            pi.append(rng.uniform(0.5, 1.0))
        else:
            pi.append(rng.uniform(0.0, 1.0))
    words = int(rng.choice([1, 2, 3, 7]))
    seed = int(rng.integers(1, 2**32)) << 32 * (words - 1) | int(rng.integers(0, 2**32))
    return Scenario(pi=tuple(pi), n=tuple(int(v) for v in rng.integers(1, 121, groups)), seed=seed)


def test_draw_is_the_contract_draw_on_random_designs():
    rng = np.random.default_rng(2024)
    for i in range(200):
        sc = random_design(rng)
        assert (sc.seed.bit_length() + 31) // 32 in (1, 2, 3, 7)
        count = int(rng.integers(1, 65))
        # every tenth chunk ends at the last replicate index a scenario may draw
        start = 2**32 - count if i % 10 == 0 else int(rng.integers(0, 2**32 - count + 1))
        expected = [contract_table(sc, rep) for rep in range(start, start + count)]
        np.testing.assert_array_equal(_draw(sc, start, count), expected, err_msg=repr(sc))


_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def binomial_at(u, n, p):
    """``Generator.binomial(n, p)`` with ``u`` its first ``random()``; and whether it took one."""
    inc = 2 * 12345 + 1
    # a state with a high word of 0 outputs its low word unrotated
    first = int(u * 2**53) << 11
    bit_gen = np.random.PCG64()
    bit_gen.state = {
        "bit_generator": "PCG64",
        "state": {"state": (first - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    draw = np.random.Generator(bit_gen).binomial(n, p)
    return draw, bit_gen.state["state"]["state"] == first


@pytest.mark.parametrize(
    "n, p",
    [(50, 0.1), (50, 0.3), (1, 0.3), (7, 0.5), (60, 0.5), (120, 0.25), (40, 0.9), (9, 1 - 1e-9),
     (100, 1e-9), (10, 0.45), (2, 0.7)],
)
def test_inversion_thresholds_are_numpys(n, p):
    # drawn U never lands on a threshold; set it there and on the doubles beside it
    flipped, thresholds = _inversion(n, p)
    assert flipped == (p > 0.5)
    probes = np.concatenate([thresholds - 2.0**-53, thresholds, thresholds + 2.0**-53])
    for u in probes[(probes >= 0.0) & (probes < 1.0)]:
        count = np.searchsorted(thresholds, u, side="right")
        draw, one_double = binomial_at(u, n, p)
        if count == thresholds.size:  # past the last threshold numpy restarts
            assert not one_double, u
        else:
            assert one_double and draw == (n - count if flipped else count), u
    # (40, 0.9), (10, 0.45) and (2, 0.7) restart at the top doubles U can take
    assert (thresholds[-1] < 1.0) == ((n, p) in [(40, 0.9), (10, 0.45), (2, 0.7)])


def test_thirty_is_the_last_mean_numpy_inverts():
    assert 0.5 * 60 == 0.3 * 100 == 30.0
    assert _inversion(60, 0.5) is not None
    assert _inversion(100, 0.3) is not None
    assert 0.30000000000000004 * 100 > 30.0
    assert _inversion(100, 0.30000000000000004) is None
    assert _inversion(100, 0.7) is None  # 1 - 0.7 is 0.30000000000000004


def forbid_generators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-replicate generator was built")

    monkeypatch.setattr(simulate.np.random, "PCG64", refuse)


@pytest.mark.parametrize(
    "sc",
    [
        Scenario(pi=(0.1,) * 4, n=(50,) * 4, seed=41),
        Scenario(pi=(0.5, 0.05, 0.97), n=(60, 120, 30), seed=2**64 + 9),
    ],
    ids=["null", "n-p-30"],
)
def test_inverted_designs_build_no_generator(monkeypatch, sc):
    expected = [contract_table(sc, rep) for rep in range(300)]
    forbid_generators(monkeypatch)
    np.testing.assert_array_equal(_draw(sc, 0, 300), expected)


def test_a_btpe_group_draws_the_design_from_generators(monkeypatch):
    # one group of mean (1 - 0.7) * 100, just above 30, among inverted groups
    sc = Scenario(pi=(0.1, 0.7, 0.2, 0.6), n=(50, 100, 40, 30), seed=43)
    expected = [contract_table(sc, rep) for rep in range(500, 700)]
    np.testing.assert_array_equal(_draw(sc, 500, 200), expected)
    forbid_generators(monkeypatch)
    with pytest.raises(AssertionError, match="generator was built"):
        _draw(sc, 500, 1)


def test_restarted_inversions_are_redrawn_by_the_generator(monkeypatch):
    # dropping the top thresholds of a group makes every draw above them restart
    sc = Scenario(pi=(0.1, 0.3, 0.8), n=(50, 50, 20), seed=44)
    expected = [contract_table(sc, rep) for rep in range(300)]
    inversion = simulate._inversion

    def lower_bound(n, p):
        flipped, thresholds = inversion(n, p)
        return flipped, thresholds[:15] if p == 0.3 else thresholds

    monkeypatch.setattr(simulate, "_inversion", lower_bound)
    restarted = np.array(expected)[:, 1] >= 15
    assert 0 < restarted.sum() < 300
    np.testing.assert_array_equal(_draw(sc, 0, 300), expected)


def analysis_counts(sc: Scenario, y) -> np.ndarray:
    """The table ``y`` claimed by closed_analysis at the scenario's alpha and policy.

    Same layout as the decision counts of one simulated replicate.
    """
    k = sc.k
    data = DoseGroupData(labels=tuple(map(str, range(k + 1))), n=np.asarray(sc.n), y=y)
    out = np.zeros(3 * k + 7, dtype=np.int64)
    try:
        res = closed_analysis(data, boundary_policy=sc.boundary_policy)
    except NoInformationError:
        out[-1] = 1
        return out
    except BoundaryCountError:
        # policy "reject": a boundary replicate with no claims
        out[-2] = 1
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
    "pi, n, policy",
    [
        ((0.05, 0.10, 0.20, 0.30), (50,) * 4, "smooth"),
        ((0.10, 0.10, 0.10, 0.10), (50,) * 4, "smooth"),
        ((0.05, 0.10, 0.20, 0.30), (50,) * 4, "haldane"),
        ((0.05, 0.10, 0.20, 0.30), (50,) * 4, "reject"),
        ((0.02, 0.02, 0.02, 0.02), (50,) * 4, "haldane"),
        # windowed chains of four or more rows against windowless analysis
        ((0.05, 0.08, 0.12, 0.18, 0.25, 0.3), (60, 25, 45, 30, 55, 20), "smooth"),
        ((0.05, 0.05, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3), (30,) * 8, "haldane"),
    ],
    ids=["power", "null", "power-haldane", "power-reject", "degenerate-haldane", "k5-unequal",
         "k7"],
)
def test_simulate_claims_what_analyze_claims(pi, n, policy):
    sc = Scenario(pi=pi, n=n, replicates=250, seed=5, boundary_policy=policy)
    disagree = [
        rep
        for rep in range(sc.replicates)
        if not np.array_equal(
            _count_chunk(sc, rep, 1)[:-3], analysis_counts(sc, contract_table(sc, rep))
        )
    ]
    assert disagree == []


@pytest.mark.parametrize(
    "pi, n, y, policy",
    [
        ((0.1, 0.2, 0.3), (10, 10, 10), (0, 0, 0), "smooth"),
        ((0.1, 0.2, 0.3), (10, 10, 10), (0, 3, 9), "reject"),
        ((0.1, 0.2, 0.3), (10, 10, 10), (1, 4, 10), "haldane"),
        ((0.1, 0.4), (20, 20), (2, 11), "smooth"),
    ],
    ids=["degenerate", "refused", "group-at-n", "k1"],
)
def test_decide_claims_what_analyze_claims_on_edge_tables(pi, n, y, policy):
    sc = Scenario(pi=pi, n=n, boundary_policy=policy)
    np.testing.assert_array_equal(_decide(sc, np.array([y]))[:-3], analysis_counts(sc, y))


# Decision and route counts of replicates 10-209: any change to the seeded
# draw, the fit, a decision stage or the quadrature that moves a count fails here.
PINNED_COUNTS = [
    (
        Scenario(pi=(0.1, 0.4), n=(20, 20), seed=21),
        [137, 137, 137, 137, 137, 137, 137, 137, 28, 0, 600, 0, 0],
    ),
    (
        Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, seed=22),
        [11, 98, 179, 180, 184, 190, 24, 144, 189, 189, 28, 141, 190, 190, 17, 0, 1165, 166, 0],
    ),
    (
        Scenario(pi=(0.02, 0.05, 0.1, 0.25), n=(15,) * 4, seed=23, boundary_policy="haldane"),
        [0, 0, 13, 13, 21, 21, 0, 0, 51, 51, 0, 0, 21, 21, 181, 0, 894, 127, 0],
    ),
    (
        Scenario(pi=(0.03, 0.2, 0.5, 0.6), n=(12, 8, 10, 10), seed=24, boundary_policy="reject"),
        [0, 18, 29, 38, 36, 47, 1, 23, 36, 36, 3, 35, 47, 47, 150, 0, 279, 53, 0],
    ),
    (
        Scenario(pi=(0.05, 0.05, 0.1, 0.2, 0.25, 0.3, 0.35), n=(10, 20, 30, 15, 25, 35, 12),
                 seed=25),
        [0, 0, 0, 0, 4, 12, 16, 34, 42, 0, 0, 0, 1, 15, 71, 71, 0, 0, 0, 1, 17, 42, 42, 142, 0,
         1376, 184, 100],
    ),
    (
        Scenario(pi=(0.1,) * 4 + (0.3,) * 3, n=(20,) * 7, seed=26, boundary_policy="haldane"),
        [0, 0, 0, 29, 32, 19, 68, 48, 83, 0, 0, 0, 22, 40, 81, 81, 0, 0, 1, 31, 62, 83, 83, 86, 0,
         1285, 361, 131],
    ),
]


@pytest.mark.parametrize(
    "sc, counts", PINNED_COUNTS, ids=[f"k{sc.k}-{sc.boundary_policy}" for sc, _ in PINNED_COUNTS]
)
def test_counts_are_pinned(sc, counts):
    assert _count_chunk(sc, 10, 200).tolist() == counts


@pytest.mark.parametrize(
    "sc, covered",
    [
        (Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, replicates=300, seed=13), 3),
        (Scenario(pi=(0.1,) * 4, n=(50, 40, 50, 60), replicates=300, seed=14), None),
        (Scenario(pi=(0.03, 0.2, 0.6), n=(12, 8, 10), replicates=300, seed=15,
                  boundary_policy="reject"), -5),
        (Scenario(pi=(0.02,) * 3, n=(10, 10, 10), replicates=300, seed=16,
                  boundary_policy="haldane"), -4),
        (Scenario(pi=(0.1, 0.4), n=(20, 20), replicates=300, seed=17), 1),
    ],
    ids=["power", "null", "reject", "degenerate", "k1"],
)
def test_counts_do_not_depend_on_chunking(sc, covered):
    # a chunk decides its replicates together; no replicate may see its neighbours
    R = sc.replicates
    whole = _count_chunk(sc, 0, R)
    uneven = sum(_count_chunk(sc, a, b - a) for a, b in ((0, 1), (1, 138), (138, R)))
    singles = sum(_count_chunk(sc, rep, 1) for rep in range(R))
    np.testing.assert_array_equal(uneven, whole)
    np.testing.assert_array_equal(singles, whole)
    if covered is not None:  # D_any, n_boundary or n_degenerate: the case the row is for
        assert whole[covered] > 0


class TestDecisionRoutes:
    """How many maxT bounds each stage of the decision settled."""

    def test_second_order_bounds_settle_most_open_bounds(self):
        res = run_scenario(Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, replicates=1000, seed=3))
        sandwich_open = res.n_second_order + res.n_integrated
        assert sandwich_open > 0
        assert res.n_integrated <= 0.2 * sandwich_open

    def test_second_order_bounds_settle_most_open_bounds_at_four_doses(self):
        # four doses: families and segments of four rows are bracketed before
        # the quadrature, which takes what their brackets leave open
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.25, 0.3), n=(50,) * 5, replicates=2000, seed=3)
        res = run_scenario(sc)
        sandwich_open = res.n_second_order + res.n_integrated
        assert res.n_integrated > 0
        assert res.n_integrated <= 0.2 * sandwich_open

    def test_correlations_are_formed_only_for_open_bounds(self, monkeypatch):
        # _decide and the closure pass no correlation to _maxt_p, which forms
        # one for each bound that the sandwich left open and for no other
        formed = []
        correlation = contrasts._correlation
        monkeypatch.setattr(
            contrasts, "_correlation", lambda C, v, se: formed.append(len(se)) or correlation(C, v, se)
        )
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.25, 0.3), n=(50,) * 5, seed=3)
        n_sandwich, n_second_order, n_integrated = _decide(sc, _draw(sc, 0, 400))[-3:]
        assert n_integrated > 0
        assert sum(formed) == n_second_order + n_integrated < n_sandwich
        assert not hasattr(simulate, "contrast_moments")

    def test_routes_do_not_depend_on_parallelism_or_chunking(self, monkeypatch):
        # four doses, so that Dunnett and Williams are integrated
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.25, 0.3), n=(50,) * 5, replicates=600, seed=13)

        def routes(res):
            return res.n_sandwich, res.n_second_order, res.n_integrated

        serial = routes(run_scenario(sc))
        assert all(serial)
        assert routes(run_scenario(sc, parallelism=2)) == serial
        monkeypatch.setattr(simulate, "_CHUNK", 77)
        assert routes(run_scenario(sc)) == serial

    def test_every_bound_of_a_one_dose_design_is_settled_by_the_sandwich(self):
        res = run_scenario(Scenario(pi=(0.1, 0.3), n=(20, 20), replicates=100, seed=2))
        assert res.n_second_order == res.n_integrated == 0
        assert res.n_sandwich > 0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_quadrature_outside_its_bracket_raises(self, monkeypatch, p):
        # a quadrature failure must not pass silently as a decision; five
        # doses, so that a segment of four rows is integrated too
        sc = Scenario(pi=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3), n=(50,) * 6, seed=22)
        monkeypatch.setattr(
            contrasts, "chain_maxt", lambda chains, t, std_err, var_eta, table: np.full(t.shape, p)
        )
        with pytest.raises(ContrastError, match="outside its second-order bracket"):
            _count_chunk(sc, 10, 200)

    def test_three_row_brackets_spare_most_plackett_integrals(self, monkeypatch):
        # three doses: Dunnett and Williams have three rows and are bracketed
        # before the closed form, whose triple tail is one Plackett integral
        bracketed = [0]
        bracket, triple_tail = contrasts._bracket, mvn._triple_tail

        def counted_bracket(m, p_raw, pair):
            bracketed[0] += p_raw.size
            return bracket(m, p_raw, pair)

        def counted_tail(t, *args):
            plackett[args[-1] == 64] += t.size
            return triple_tail(t, *args)

        monkeypatch.setattr(contrasts, "_bracket", counted_bracket)
        monkeypatch.setattr(mvn, "_triple_tail", counted_tail)
        plackett = [0, 0]  # bounds on the coarse rule and on 64 nodes
        res = run_scenario(Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, replicates=1000, seed=3))
        assert res.n_integrated == 0
        assert 0 < plackett[0] < 0.5 * bracketed[0] <= 0.5 * res.n_second_order
        # only a coarse value within its margin of alpha takes 64 nodes too
        assert plackett[1] <= 0.02 * plackett[0]

    def test_widened_three_row_brackets_decide_the_same(self, monkeypatch):
        # a three-row bound that its bracket settles gets the decision and the
        # route that its closed form gives
        plackett = [0, 0]  # bounds of the triple tail, bracketed and widened
        triple_tail = mvn._triple_tail
        rng = np.random.default_rng(31)
        for _ in range(12):
            k = int(rng.integers(2, 5))
            pi = tuple(np.sort(rng.uniform(0.02, 0.4, size=k + 1)))
            n = tuple(rng.integers(15, 60, size=k + 1))
            sc = Scenario(pi=pi, n=n, seed=int(rng.integers(2**31)))
            y = _draw(sc, 0, 300)
            counts = []
            for widened in (0, 1):
                with monkeypatch.context() as patch:
                    if widened:
                        widen_brackets(patch, rows=3)

                    def counted(t, *args, widened=widened):
                        plackett[widened] += t.size
                        return triple_tail(t, *args)

                    patch.setattr(mvn, "_triple_tail", counted)
                    counts.append(_decide(sc, y))
            np.testing.assert_array_equal(counts[1], counts[0])
        assert 0 < plackett[0] < plackett[1]

    def test_the_coarse_pass_decides_as_64_nodes_alone(self, monkeypatch):
        # with an infinite margin every open three-row bound takes its 64-node
        # value; the coarse pass must give every decision and route count of
        # that, on random and on extreme-variance three-dose designs
        tally = {False: {}, True: {}}  # bounds per Plackett rule, by whether the margin is infinite
        infinite = [False]
        triple_tail = mvn._triple_tail

        def counted(t, *args):
            bounds = tally[infinite[0]]
            bounds[args[-1]] = bounds.get(args[-1], 0) + t.size
            return triple_tail(t, *args)

        monkeypatch.setattr(mvn, "_triple_tail", counted)
        rng = np.random.default_rng(35)
        designs = []
        for i in range(16):
            extreme = i % 2
            pi = np.sort(rng.uniform(0.01, 0.1 if extreme else 0.5, size=4))
            n = np.exp(rng.uniform(np.log(3), np.log(2000), size=4)) if extreme else rng.integers(15, 80, 4)
            designs.append(
                Scenario(
                    pi=tuple(pi),
                    n=tuple(np.round(n).astype(int)),
                    alpha=float(rng.choice([0.01, 0.05, 0.1, 0.3])),
                    boundary_policy=("smooth", "haldane")[i // 2 % 2],
                    seed=int(rng.integers(2**31)),
                )
            )
        for sc in designs:
            y = _draw(sc, 0, 512)
            counts = _decide(sc, y)
            with monkeypatch.context() as patch:
                patch.setattr(contrasts, "_COARSE_MARGIN", np.inf)
                infinite[0] = True
                np.testing.assert_array_equal(_decide(sc, y), counts)
                infinite[0] = False
        coarse, reference = tally[False], tally[True]
        nodes = contrasts._COARSE_NODES
        # the reference gave every bound that the coarse pass saw its 64-node value
        assert reference[64] == reference[nodes] == coarse[nodes] > 0
        assert coarse.get(64, 0) < 0.02 * coarse[nodes]

    def test_a_k3_chunk_takes_one_pass_per_row_count(self, monkeypatch):
        # Dunnett and global Williams, three rows each, share one pass: one set
        # of pair tails, one bracket and one Plackett integral, on the coarse
        # rule, no coarse value of this chunk lying within its margin of
        # alpha; segment {0, 1, 2} takes a pass of two rows, and segment
        # {0, 1}, the raw pairwise p of dose 1, none
        calls = {"_pair_tails": [], "_bracket": []}
        for name, rows in calls.items():
            fn = getattr(contrasts, name)
            monkeypatch.setattr(
                contrasts, name, lambda *a, fn=fn, rows=rows: rows.append(a) or fn(*a)
            )
        plackett = []
        triple_tail = mvn._triple_tail
        monkeypatch.setattr(mvn, "_triple_tail", lambda *a: plackett.append(a) or triple_tail(*a))
        maxt_calls = []
        maxt_p = ctp._maxt_p
        monkeypatch.setattr(ctp, "_maxt_p", lambda *a: maxt_calls.append(a) or maxt_p(*a))
        counts = _count_chunk(Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, seed=22), 0, 300)
        # one call for Dunnett and global Williams, one for segment {0, 1, 2}
        assert [len(families) for families, *_ in maxt_calls] == [2, 1]
        assert [R.shape[-1] for _, R in calls["_pair_tails"]] == [3, 2]
        assert [m for m, *_ in calls["_bracket"]] == [3]
        assert [nodes for *_, nodes in plackett] == [contrasts._COARSE_NODES]
        assert counts[-1] == 0  # nothing integrated

    def test_the_raw_pairwise_p_is_computed_once_per_fit(self, liarozole, monkeypatch):
        # variant P and the closure's segment {0, 1} read the same raw pairwise p
        tables = []
        raw = ctp.raw_pairwise_pvalues
        monkeypatch.setattr(
            ctp, "raw_pairwise_pvalues", lambda fit: tables.append(len(fit.eta)) or raw(fit)
        )
        result = closed_analysis(liarozole)
        assert result.p_ctp_williams[0] < 1.0  # the closure reached segment {0, 1}
        assert tables == [1]
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, seed=22)
        counts = _count_chunk(sc, 0, 300)
        assert counts[2 * sc.k + 4] > 0  # C_1 claims: some tables reached segment {0, 1}
        assert tables == [1, 300]

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_closed_form_outside_its_bracket_raises(self, monkeypatch, p):
        # three doses, so that Dunnett and Williams take the closed form of three rows
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.3), n=(50,) * 4, seed=22)
        monkeypatch.setattr(
            contrasts, "_inclusion_exclusion", lambda m, t, *tails: np.full(t.shape, p)
        )
        with pytest.raises(ContrastError, match="closed-form p-value .* outside its second-order"):
            _count_chunk(sc, 10, 200)

    def test_a_chunk_integrates_each_family_in_one_call(self, monkeypatch):
        # four doses: families of three rows take their closed form
        sc = Scenario(pi=(0.05, 0.1, 0.2, 0.25, 0.3), n=(50,) * 5, seed=22)
        whole = _count_chunk(sc, 0, 250)
        calls = []

        def recorded(chains, t, std_err, var_eta, table):
            calls.append((chains, list(zip(table.tolist(), t.tolist()))))
            return chain_maxt(chains, t, std_err, var_eta, table)

        monkeypatch.setattr(contrasts, "chain_maxt", recorded)
        np.testing.assert_array_equal(_decide(sc, _draw(sc, 0, 250)), whole)
        # at most one call for Dunnett, one for Williams and one per lower segment
        assert 0 < len(calls) <= sc.k + 1
        assert len({id(chains) for chains, _ in calls}) == len(calls)
        # every bound left open, though the Williams top row often repeats
        # the family maximum: chain_maxt integrates such a repeat once
        assert any(len(set(pairs)) < len(pairs) for _, pairs in calls)
        assert sum(len(pairs) for _, pairs in calls) == whole[-1]


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
            pytest.param(
                "pi: [" + ", ".join(["0.1"] * 34) + "]",
                r"scenarios\[0\]: pi has 34 entries",
                id="pi: 34 entries",
            ),
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
