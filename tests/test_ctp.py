import numpy as np
import pytest
from conftest import widen_brackets
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trendcomp import chains, contrasts, ctp
from trendcomp.chains import ContrastError
from trendcomp.contrasts import contrast_test, dunnett_matrix, williams_matrix
from trendcomp.ctp import (
    CtpResult,
    _families_of_sizes,
    _stock_families,
    _williams_closure,
    closed_analysis,
    ctp_pairwise,
    raw_pairwise_pvalues,
)
from trendcomp.data import DoseGroupData
from trendcomp.model import fit_saturated_logit


@pytest.fixture(scope="module")
def result(liarozole):
    return closed_analysis(liarozole)


class TestFrozenValues:
    """High-precision results on the four-arm trial dataset."""

    def test_raw_pairwise(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        np.testing.assert_allclose(
            raw_pairwise_pvalues(fit),
            [0.08094444, 0.22095326, 0.00231616],
            atol=1e-8,
        )

    def test_dunnett_adjusted(self, result):
        np.testing.assert_allclose(
            result.p_dunnett, [0.1535203, 0.3623204, 0.0056458], atol=2e-4
        )

    def test_williams_family(self, result):
        np.testing.assert_allclose(
            result.p_williams_rows,
            [0.0039287, 0.0486674, 0.0555869],
            atol=2e-4,
        )
        assert result.p_williams_global == pytest.approx(0.0039287, abs=2e-4)

    def test_ctp_pairwise_chain(self, result):
        np.testing.assert_allclose(
            result.p_ctp_pairwise,
            [0.22095326, 0.22095326, 0.00231616],
            atol=1e-8,
        )

    def test_ctp_williams_chain(self, result):
        # S = (raw D1 p, subset Williams {C,D1,D2} min, global Williams)
        np.testing.assert_allclose(
            result.p_ctp_williams,
            [0.152943, 0.152943, 0.0039287],
            atol=2e-4,
        )

    def test_subset_williams_minimum(self, liarozole, prefix_fit):
        fit = prefix_fit(fit_saturated_logit(liarozole), 3)
        rep = contrast_test(fit, williams_matrix(liarozole.n[:3]))
        np.testing.assert_allclose(
            rep.p_adjusted, [0.2667725, 0.1529404], atol=2e-4
        )


class TestChainStructure:
    def test_top_dose_equals_raw_p(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        raw = raw_pairwise_pvalues(fit)
        chain = ctp_pairwise(fit)
        assert chain[-1] == raw[-1]

    def test_pairwise_is_reverse_cummax(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        raw = raw_pairwise_pvalues(fit)
        chain = ctp_pairwise(fit)
        for i in range(raw.size):
            assert chain[i] == pytest.approx(raw[i:].max())

    def test_chains_non_increasing(self, liarozole):
        result = closed_analysis(liarozole)
        assert np.all(np.diff(result.p_ctp_pairwise) <= 0.0)
        assert np.all(np.diff(result.p_ctp_williams) <= 0.0)

    def test_williams_chain_top_equals_global(self, liarozole):
        result = closed_analysis(liarozole)
        assert result.p_ctp_williams[-1] == pytest.approx(
            result.p_williams_global, abs=1e-12
        )

    def test_single_dose_everything_coincides(self):
        data = DoseGroupData(labels=("c", "d"), n=[40, 40], y=[5, 14])
        result = closed_analysis(data)
        fit = fit_saturated_logit(data)
        raw = raw_pairwise_pvalues(fit)
        np.testing.assert_allclose(result.p_dunnett, raw, atol=1e-12)
        np.testing.assert_allclose(result.p_williams_rows, raw, atol=1e-12)
        np.testing.assert_allclose(result.p_ctp_pairwise, raw, atol=1e-12)
        np.testing.assert_allclose(result.p_ctp_williams, raw, atol=1e-12)


class TestStandaloneFunctions:
    def test_standalones_match_closed_analysis(self):
        # the public entry for custom families gives the stock families' values
        for n, y, policy in (
            ([34, 35, 36, 34], [2, 6, 4, 13], "haldane"),  # liarozole
            ([20, 15, 30, 25, 18], [0, 3, 30, 9, 18], "haldane"),
            ([20, 15, 30, 25, 18], [0, 3, 30, 9, 18], "smooth"),
            ([40, 35], [0, 9], "haldane"),
            ([40, 40], [5, 14], "haldane"),
        ):
            data = DoseGroupData(labels=tuple(map(str, range(len(n)))), n=n, y=y)
            fit = fit_saturated_logit(data, boundary_policy=policy)
            result = closed_analysis(data, boundary_policy=policy)
            np.testing.assert_array_equal(ctp_pairwise(fit), result.p_ctp_pairwise)
            dunnett = contrast_test(fit, dunnett_matrix(data.n))
            williams = contrast_test(fit, williams_matrix(data.n))
            np.testing.assert_array_equal(dunnett.p_adjusted, result.p_dunnett)
            np.testing.assert_array_equal(williams.p_adjusted, result.p_williams_rows)
            assert williams.min_adjusted == result.p_williams_global


class TestBoundaryPolicies:
    def test_policies_give_different_results(self, liarozole):
        a = closed_analysis(liarozole, boundary_policy="haldane")
        b = closed_analysis(liarozole, boundary_policy="smooth")
        assert a.boundary_policy == "haldane"
        assert b.boundary_policy == "smooth"
        # interior counts, so haldane applies no correction but smooth shifts all
        assert not a.correction_applied.any()
        assert not np.allclose(a.p_ctp_pairwise, b.p_ctp_pairwise)

    def test_results_compare_by_value(self, liarozole):
        result = closed_analysis(liarozole)
        again = closed_analysis(liarozole)
        assert result == again
        assert result.dunnett_report == again.dunnett_report
        other = closed_analysis(
            DoseGroupData(labels=liarozole.labels, n=liarozole.n, y=[2, 6, 5, 13])
        )
        assert result != other
        assert result.williams_report != other.williams_report

    def test_result_records_inputs(self, liarozole):
        result = closed_analysis(liarozole)
        assert result.control_label == "0"
        assert result.dose_labels == ("50", "75", "150")
        assert result.k == 3


class TestCtpResultValidation:
    def _kwargs(self, liarozole):
        result = closed_analysis(liarozole)
        return {
            "control_label": result.control_label,
            "dose_labels": result.dose_labels,
            "p_dunnett": result.p_dunnett,
            "p_williams_rows": result.p_williams_rows,
            "p_williams_global": result.p_williams_global,
            "p_ctp_pairwise": result.p_ctp_pairwise,
            "p_ctp_williams": result.p_ctp_williams,
            "boundary_policy": result.boundary_policy,
            "correction_applied": result.correction_applied,
            "dunnett_report": result.dunnett_report,
            "williams_report": result.williams_report,
        }

    def test_rejects_increasing_chain(self, liarozole):
        kw = self._kwargs(liarozole)
        kw["p_ctp_pairwise"] = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="non-increasing"):
            CtpResult(**kw)

    def test_rejects_out_of_range_p(self, liarozole):
        for name, p in (("p_dunnett", [0.5, 0.2, 1.5]), ("p_williams_rows", [0.5, -0.2, 0.9])):
            kw = self._kwargs(liarozole)
            kw[name] = np.array(p)
            with pytest.raises(ValueError, match=rf"{name} entries must lie in \[0, 1\]"):
                CtpResult(**kw)

    def test_rejects_wrong_length(self, liarozole):
        for name in ("p_dunnett", "p_williams_rows"):
            kw = self._kwargs(liarozole)
            kw[name] = np.array([0.5, 0.2])
            with pytest.raises(ValueError, match=f"{name} must have one entry per dose"):
                CtpResult(**kw)

    def test_rejects_a_global_williams_p_other_than_the_row_minimum(self, liarozole):
        kw = self._kwargs(liarozole)
        for global_p in (kw["p_williams_rows"][1], np.nextafter(kw["p_williams_global"], 1.0)):
            kw["p_williams_global"] = global_p
            with pytest.raises(ValueError, match="minimum of p_williams_rows"):
                CtpResult(**kw)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_datasets_respect_chain_laws(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = rng.integers(8, 60, size=k + 1)
    pi = rng.uniform(0.1, 0.9, size=k + 1)
    y = rng.binomial(n, pi)
    y = np.clip(y, 1, n - 1)  # keep off the boundary for speed
    data = DoseGroupData(
        labels=tuple(str(i) for i in range(k + 1)), n=n, y=y
    )
    result = closed_analysis(data)
    fit = fit_saturated_logit(data)
    raw = raw_pairwise_pvalues(fit)
    assert np.all(result.p_dunnett >= raw - 1e-12)
    assert np.all(np.diff(result.p_ctp_pairwise) <= 1e-15)
    assert np.all(np.diff(result.p_ctp_williams) <= 1e-15)
    assert result.p_ctp_pairwise[-1] == pytest.approx(raw[-1], abs=1e-12)
    assert result.p_ctp_williams[-1] == pytest.approx(
        result.p_williams_global, abs=1e-12
    )


def record_segments(patch, record):
    """Has each segment of a closure pass ``record`` its exact p and its rows, then return 0.

    A returned 0 keeps the running maximum at 0, so the closure visits
    every segment and each is integrated in full.  Segment {0, 1} makes
    no maxT call, so it is not recorded: its p, the raw pairwise p of
    dose 1, is then the closure's p of dose 1.
    """
    maxt_p = ctp._maxt_p

    def recorded(families, *args):
        ps = maxt_p(families, *args)
        for (segment, *_), p in zip(families, ps):
            record(p[0, 0], segment.n_rows)
        return [np.zeros_like(p) for p in ps]

    patch.setattr(ctp, "_maxt_p", recorded)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_segment_test_is_the_family_minimum(seed, prefix_fit):
    # Each lower segment is tested at its largest statistic alone; that one
    # bound must give the smallest adjusted p of the segment's family.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    n = rng.integers(5, 61, size=k + 1)
    y = rng.binomial(n, rng.uniform(0.05, 0.95, size=k + 1))
    edge = rng.random(k + 1) < 0.2
    y[edge] = np.where(rng.random(k + 1) < 0.5, 0, n)[edge]
    assume(not (np.all(y == 0) or np.all(y == n)))
    data = DoseGroupData(labels=tuple(str(i) for i in range(k + 1)), n=n, y=y)
    fit = fit_saturated_logit(data, boundary_policy="haldane")
    segment_p = []
    raw = raw_pairwise_pvalues(fit)
    with pytest.MonkeyPatch.context() as patch:
        record_segments(patch, lambda p, rows: segment_p.append(p))
        segment_p.append(_williams_closure(fit, _stock_families(n)[1], 0.0, raw)[0])
    family_min = [
        contrast_test(prefix_fit(fit, j + 1), williams_matrix(n[: j + 1])).min_adjusted
        for j in range(k - 1, 0, -1)
    ]
    np.testing.assert_allclose(segment_p, family_min, rtol=0, atol=1e-8)


def test_a_segment_reads_the_corrected_fit_of_the_whole_table(prefix_fit, monkeypatch):
    # control and dose 1 both at y = 0: segment {0, 1} alone would be a
    # table at one boundary, but the closure reads the haldane-corrected
    # values of the whole fit and never refits the prefix
    n = np.array([30, 25, 40, 35])
    data = DoseGroupData(labels=tuple("0123"), n=n, y=[0, 0, 3, 9])
    fit = fit_saturated_logit(data, boundary_policy="haldane")
    assert fit.correction_applied[:2].all()
    segment_p = {}
    record_segments(monkeypatch, lambda p, rows: segment_p.__setitem__(rows, p))
    raw = raw_pairwise_pvalues(fit)
    segment_p[1] = _williams_closure(fit, _stock_families(n)[1], 0.0, raw)[0]
    for j in (1, 2):
        report = contrast_test(prefix_fit(fit, j + 1), williams_matrix(n[: j + 1]))
        assert segment_p[j] == report.min_adjusted
    assert segment_p[1] == raw_pairwise_pvalues(fit)[0]


def test_closed_analysis_finds_each_family_s_chains_once(monkeypatch):
    # chains depend on the coefficients alone, so no maxT call may find them again
    calls = []
    find = contrasts.chain_structure
    monkeypatch.setattr(contrasts, "chain_structure", lambda C: calls.append(C) or find(C))
    data = DoseGroupData(labels=tuple("01234"), n=[30] * 5, y=[3, 4, 6, 9, 14])
    result = closed_analysis(data)
    assert np.all(result.p_ctp_williams < 1.0)  # the closure visited every segment
    assert 0 < len(calls) <= data.k + 1


def test_bracket_settled_closure_is_the_integrated_closure(monkeypatch):
    # a segment whose upper bound cannot raise the running maximum is neither
    # integrated nor given its closed form; every closed-test p must be the
    # float that the exact values give
    three_rows = [0]  # bounds given the closed form of three rows
    closed_form = contrasts._inclusion_exclusion

    def counted(m, t, *tails):
        three_rows[0] += t.size if m == 3 else 0
        return closed_form(m, t, *tails)

    monkeypatch.setattr(contrasts, "_inclusion_exclusion", counted)
    rng = np.random.default_rng(20)
    settled = integrated = closed = exact = 0
    for k in [2, 3, 4, 5, 6, 7, 8] * 4:
        n = rng.integers(5, 61, size=k + 1)
        y = rng.binomial(n, np.linspace(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.95), k + 1))
        if np.all(y == 0) or np.all(y == n):
            y[0] = n[0] // 2
        fit = fit_saturated_logit(DoseGroupData(labels=tuple(map(str, range(k + 1))), n=n, y=y))
        segments = _stock_families(n)[1]
        top = contrast_test(fit, segments[k]).min_adjusted
        bracketed, routes = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
        three_rows[0] = 0
        raw = raw_pairwise_pvalues(fit)
        got = _williams_closure(fit, segments, top, raw, routes=bracketed)
        closed += three_rows[0]
        with pytest.MonkeyPatch.context() as patch:
            widen_brackets(patch)
            three_rows[0] = 0
            expected = _williams_closure(fit, segments, top, raw, routes=routes)
            exact += three_rows[0]
        assert got.tobytes() == expected.tobytes()
        # closed forms count as second-order in both runs
        settled += bracketed[1] - routes[1]
        integrated += bracketed[2]
    assert settled > 0 and integrated > 0
    # some three-row segments were settled by their bracket, not their closed form
    assert 0 < closed < exact


def test_a_k3_analysis_integrates_nothing(monkeypatch):
    # every family has at most three rows, so each p is its raw tail or a closed form
    monkeypatch.setattr(contrasts, "chain_maxt", lambda *args: pytest.fail("integrated"))
    n = (41, 43, 47, 53)
    _families_of_sizes.cache_clear()  # so this test builds the families
    result = closed_analysis(DoseGroupData(labels=tuple("0123"), n=n, y=[4, 8, 12, 20]))
    assert np.all(result.p_ctp_williams < 1.0)  # the closure visited every segment
    dunnett, segments = _stock_families(n)
    assert not any("chains" in vars(cm) for cm in (dunnett, *segments.values()))


def test_a_k4_analysis_integrates_only_dunnett_and_williams(monkeypatch):
    # segment {0, 1} is its raw p, so no family is built for it, and {0, 1, 2}
    # and {0, .., 3} take closed forms
    integrated = []
    integrate = contrasts.chain_maxt

    def counted(chains, t, *args):
        integrated.append(len(t))
        return integrate(chains, t, *args)

    monkeypatch.setattr(contrasts, "chain_maxt", counted)
    n = (41, 43, 47, 53, 59)
    _families_of_sizes.cache_clear()  # so this test builds the families
    result = closed_analysis(DoseGroupData(labels=tuple("01234"), n=n, y=[4, 8, 12, 20, 27]))
    assert np.all(result.p_ctp_williams < 1.0)  # the closure visited every segment
    assert integrated == [4, 4]  # each with the family's four statistics
    segments = _stock_families(n)[1]
    assert sorted(segments) == [2, 3, 4]
    assert not any("chains" in vars(segments[j]) for j in (2, 3))


def test_sizes_of_one_k_share_one_dunnett_family():
    # Dunnett depends on k alone, so its chains are found once per k; segment
    # {0, 1} is built only as the global family of k = 1
    assert _stock_families([30, 31, 32, 33, 34])[0] is _stock_families([52, 21, 40, 28, 35])[0]
    dunnett, segments = _stock_families([12, 20])
    assert dunnett is _stock_families([40, 7])[0] and list(segments) == [1]
    assert segments[1] == williams_matrix([12, 20])


@pytest.mark.parametrize(
    "n, y, routes, closed, expected",
    [
        pytest.param(
            [34, 35, 36, 34],
            [2, 6, 4, 13],
            [1, 1, 0],
            [3, 2],
            {
                "p_dunnett": [0.15352031905698948, 0.36232041813643234, 0.005645815352342815],
                "p_williams_rows": [0.003928647581085454, 0.04866741009982774, 0.0555868391281191],
                "p_ctp_pairwise": [0.22095325840772978, 0.22095325840772978, 0.0023161644461163608],
                "p_ctp_williams": [0.1529403872090792, 0.1529403872090792, 0.003928647581085454],
            },
            id="closed-form",
        ),
        pytest.param(
            [35, 41, 31, 29, 21],
            [2, 6, 10, 8, 5],
            [2, 1, 0],
            [],
            {
                "p_dunnett": [
                    0.2286890103532251, 0.01732876846503839, 0.037414842052311714, 0.07958416191077833
                ],
                "p_williams_rows": [
                    0.05511893341722873, 0.024671700177241962, 0.013855002956873141, 0.03198249234479089
                ],
                "p_ctp_pairwise": [
                    0.11110084225344624, 0.03272917992058838, 0.03272917992058838, 0.03272917992058838
                ],
                "p_ctp_williams": [
                    0.11110084225344624, 0.013855002956873141, 0.013855002956873141, 0.013855002956873141
                ],
            },
            id="bracket",
        ),
        pytest.param(
            [30, 25, 40, 35, 33, 31],
            [3, 4, 6, 9, 14, 15],
            [1, 2, 1],
            [3, 2],
            {
                "p_dunnett": [
                    0.49771682149564755, 0.5174560219497134, 0.155369887281272,
                    0.012980678538120682, 0.004943539656010576,
                ],
                "p_williams_rows": [
                    0.0026068931923362015, 0.002352465933090686, 0.008036936245319648,
                    0.0313903792183412, 0.04692756036572343,
                ],
                "p_ctp_pairwise": [
                    0.2693838313882489, 0.2693838313882489, 0.057521671873034384,
                    0.00356728859920662, 0.0012744677910043458,
                ],
                "p_ctp_williams": [
                    0.2862678395955216, 0.2862678395955216, 0.08523318583361783,
                    0.006621546339694806, 0.002352465933090686,
                ],
            },
            id="chain",
        ),
    ],
)
def test_full_precision_p_values(n, y, routes, closed, expected, monkeypatch):
    # every p of three tables, to the last bit, and the row counts that take
    # closed forms: the first table takes closed forms only; in the second,
    # the bracket settles segment {0, .., 3} and the sandwich {0, 1, 2}; in the
    # third, segment {0, .., 4} is integrated on its chains
    counted = np.zeros(3, dtype=np.int64)
    closure = ctp._williams_closure
    # the closure's last argument is its routes, None in an analysis
    monkeypatch.setattr(ctp, "_williams_closure", lambda *a: closure(*a[:-1], counted))
    rows = []
    closed_form = contrasts._inclusion_exclusion
    monkeypatch.setattr(
        contrasts, "_inclusion_exclusion", lambda m, *a: rows.append(m) or closed_form(m, *a)
    )
    result = closed_analysis(DoseGroupData(labels=tuple(map(str, range(len(n)))), n=n, y=y))
    assert counted.tolist() == routes and rows == closed
    for name, values in expected.items():
        assert getattr(result, name).tolist() == values
    assert result.p_williams_global == min(expected["p_williams_rows"])


def test_new_sizes_of_a_seen_k_find_no_new_layout(monkeypatch):
    # a chain layout depends on the signs of the coefficients alone
    closed_analysis(DoseGroupData(labels=tuple("01234"), n=[30, 31, 32, 33, 34], y=[3, 4, 6, 9, 14]))
    misses = chains._layout.cache_info().misses
    found = []
    find = contrasts.chain_structure
    monkeypatch.setattr(contrasts, "chain_structure", lambda C: found.append(C) or find(C))
    _families_of_sizes.cache_clear()
    closed_analysis(DoseGroupData(labels=tuple("01234"), n=[52, 21, 40, 28, 35], y=[3, 4, 6, 9, 14]))
    assert found  # the new sizes' families found their chains
    assert chains._layout.cache_info().misses == misses


@pytest.mark.parametrize("shift, raises", [(1e-6, True), (-1e-6, True), (5e-8, False)])
def test_an_integrated_segment_outside_its_bracket_raises(shift, raises, monkeypatch):
    # only a p more than the margin (1e-7) outside the second-order bracket is refused
    brackets = []
    bracket = contrasts._bracket

    def recorded(m, p_raw, pair):
        brackets.append(bracket(m, p_raw, pair))
        return brackets[-1]

    def off(chains, t, std_err, var_eta, table):
        lower, upper = brackets[-1]  # the bracket of the bounds integrated now
        return (upper if shift > 0 else lower)[:, 0] + shift

    monkeypatch.setattr(contrasts, "_bracket", recorded)
    monkeypatch.setattr(contrasts, "chain_maxt", off)
    # five doses, so that segment {0, .., 4} has four rows and is integrated
    n = np.array([30, 25, 40, 35, 33, 31])
    fit = fit_saturated_logit(DoseGroupData(labels=tuple("012345"), n=n, y=[3, 4, 6, 9, 14, 15]))
    # a running maximum of 0 leaves the bracket nothing to settle
    closure = lambda: _williams_closure(fit, _stock_families(n)[1], 0.0, raw_pairwise_pvalues(fit))
    if raises:
        with pytest.raises(ContrastError, match="outside its second-order bracket"):
            closure()
    else:
        closure()
