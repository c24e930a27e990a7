import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trendcomp.chains import chain_maxt
from trendcomp.contrasts import contrast_test, pad_to_full, williams_matrix
from trendcomp.ctp import (
    CtpResult,
    _segment_families,
    _williams_closure,
    closed_analysis,
    ctp_pairwise,
    ctp_williams,
    dunnett_baseline,
    raw_pairwise_pvalues,
    williams_baseline,
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

    def test_subset_williams_minimum(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        from trendcomp.contrasts import contrast_test, pad_to_full, williams_matrix

        sub = pad_to_full(williams_matrix(liarozole.n[:3]), 4)
        rep = contrast_test(fit, sub, seed=0, abs_tol=1e-5)
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
    def test_standalones_match_closed_analysis(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        result = closed_analysis(liarozole)
        np.testing.assert_array_equal(
            ctp_pairwise(fit), result.p_ctp_pairwise
        )
        np.testing.assert_array_equal(
            ctp_williams(fit, liarozole.n), result.p_ctp_williams
        )
        rep = dunnett_baseline(fit)
        np.testing.assert_array_equal(rep.p_adjusted, result.p_dunnett)
        _, global_p = williams_baseline(fit, liarozole.n)
        assert global_p == result.p_williams_global

    def test_williams_baseline_size_check(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        with pytest.raises(ValueError, match="sample sizes"):
            williams_baseline(fit, [10, 10])

    def test_ctp_williams_size_check(self, liarozole):
        fit = fit_saturated_logit(liarozole)
        with pytest.raises(ValueError, match="sample sizes"):
            ctp_williams(fit, [10, 10, 10])


class TestBoundaryPolicies:
    def test_policies_give_different_results(self, liarozole):
        a = closed_analysis(liarozole, boundary_policy="haldane")
        b = closed_analysis(liarozole, boundary_policy="smooth")
        assert a.boundary_policy == "haldane"
        assert b.boundary_policy == "smooth"
        # interior counts, so haldane applies no correction but smooth shifts all
        assert not a.correction_applied.any()
        assert not np.allclose(a.p_ctp_pairwise, b.p_ctp_pairwise)

    def test_result_records_inputs(self, liarozole):
        result = closed_analysis(liarozole, alpha=0.1)
        assert result.alpha == 0.1
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
            "alpha": result.alpha,
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
        kw = self._kwargs(liarozole)
        kw["p_dunnett"] = np.array([0.5, 0.2, 1.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CtpResult(**kw)

    def test_rejects_wrong_length(self, liarozole):
        kw = self._kwargs(liarozole)
        kw["p_dunnett"] = np.array([0.5, 0.2])
        with pytest.raises(ValueError, match="one entry per dose"):
            CtpResult(**kw)

    def test_rejects_bad_alpha(self, liarozole):
        kw = self._kwargs(liarozole)
        kw["alpha"] = 1.0
        with pytest.raises(ValueError, match="alpha"):
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_segment_test_is_the_family_minimum(seed):
    # Each lower segment is tested at its largest statistic alone; that one
    # bound must give the smallest adjusted p of the whole padded family.
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

    def maxt(chains, t, std_err, var_eta):
        segment_p.append(chain_maxt(chains, t, std_err, var_eta)[0])
        return np.zeros(1)  # keeps the closure visiting every segment

    _williams_closure(fit, _segment_families(n), 0.0, maxt)
    family_min = [
        contrast_test(fit, pad_to_full(williams_matrix(n[: j + 1]), k + 1)).min_adjusted
        for j in range(k - 1, 0, -1)
    ]
    np.testing.assert_allclose(segment_p, family_min, rtol=0, atol=1e-8)
