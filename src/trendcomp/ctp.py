"""Closed testing for ordered binomial comparisons, plus the two baselines.

Under a monotone order restriction the closure over the per-dose
hypotheses H_i collapses to a chain of nested top segments: dose i is
claimed significant only if every segment hypothesis covering it,
{0..i} through {0..k}, is rejected.  The per-dose closed-test p-value is
therefore a running maximum over the chain, which makes the reported
vectors non-increasing in dose by construction.

Two instantiations of the intersection tests are provided.  Variant P
tests segment {0..j} with the single pairwise contrast of its highest
dose against control.  Variant C tests it with the global Williams trend
test on the segment, built from zero-padded contrasts so that every test
reuses the one saturated fit.  The bottom segment {0, 1} is the single
contrast D1 vs C in both variants.

Every family used here (many-to-one, Williams, padded segments) has chain
structure, so its adjusted p-values come from the exact quadrature of
:mod:`trendcomp.chains`, with error below 1e-8 and no random numbers.
:func:`closed_test` is the closure rule; the simulator shares variant C's
segment families and segment test with :func:`closed_analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .chains import chain_maxt, chain_structure
from .contrasts import (
    TestReport,
    contrast_moments,
    contrast_test,
    dunnett_matrix,
    williams_matrix,
)
from .data import DoseGroupData
from .model import ModelFit, fit_saturated_logit

__all__ = [
    "CtpResult",
    "raw_pairwise_pvalues",
    "closed_test",
    "ctp_pairwise",
    "ctp_williams",
    "dunnett_baseline",
    "williams_baseline",
    "closed_analysis",
]


def raw_pairwise_pvalues(fit: ModelFit) -> np.ndarray:
    """Unadjusted one-sided p-values of each dose-vs-control contrast."""
    return ndtr((fit.eta[0] - fit.eta[1:]) / np.sqrt(fit.var_eta[1:] + fit.var_eta[0]))


def closed_test(segment_p, k: int) -> np.ndarray:
    """Per-dose closed-test p-values p_i = max(S_i, ..., S_k).

    ``segment_p(j)`` returns S_j, the p-value of the segment hypothesis
    on groups {0..j}.  Segments are visited from the top down; once the
    running maximum reaches 1, the lower doses get 1 and their segments
    are never evaluated.
    """
    p = np.ones(k)
    running = 0.0
    for j in range(k, 0, -1):
        running = max(running, float(segment_p(j)))
        if running >= 1.0:
            break
        p[j - 1] = running
    return p


def ctp_pairwise(fit: ModelFit) -> np.ndarray:
    """Variant P: closed test with pairwise contrasts.

    Segment {0..j} is tested by the raw p of D_j vs C, so the per-dose
    value is the running maximum of the raw pairwise p-values from the
    top dose downward.  Exact given the fit; no integration involved.
    """
    raw = raw_pairwise_pvalues(fit)
    return closed_test(lambda j: raw[j - 1], raw.size)


def dunnett_baseline(fit: ModelFit) -> TestReport:
    """maxT-adjusted many-to-one comparisons without order restriction."""
    return contrast_test(fit, dunnett_matrix(np.ones(fit.n_groups)))


def williams_baseline(fit: ModelFit, n):
    """Global Williams trend test on all groups.

    ``n`` supplies the group sample sizes for the pooling weights, which
    the fit alone does not carry.  Returns the per-contrast report and
    the global p, the smallest adjusted p-value of the family.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size != fit.n_groups:
        raise ValueError(f"got {n.size} sample sizes for {fit.n_groups} groups")
    report = contrast_test(fit, williams_matrix(n))
    return report, report.min_adjusted


def _segment_families(n) -> dict:
    """Coefficients and chains of variant C's family for segment j = 1..k.

    That is the Williams family on groups {0..j}, zero-padded to the full
    design: the global family for j = k, the contrast D1 vs C for j = 1.
    """
    k = len(n) - 1
    segments = {}
    for j in range(1, k + 1):
        C = np.pad(williams_matrix(n[: j + 1]).coefficients, ((0, 0), (0, k - j)))
        segments[j] = (C, chain_structure(C))
    return segments


def _williams_closure(fit: ModelFit, segments: dict, top: float, maxt) -> np.ndarray:
    """Variant C over ``segments`` from :func:`_segment_families`.

    ``top`` is the value of the global family.  A lower segment gets
    ``maxt(chains, t, std_err, var_eta)`` at its largest statistic only:
    the adjusted p falls as the bound rises, so that is the family minimum.
    """
    k = len(segments)

    def segment_p(j):
        if j == k:
            return top
        C, chains = segments[j]
        _, se, t, _ = contrast_moments(C, fit.eta, fit.var_eta)
        return maxt(chains, t.max(keepdims=True), se, fit.var_eta)[0]

    return closed_test(segment_p, k)


def ctp_williams(fit: ModelFit, n) -> np.ndarray:
    """Variant C: closed test with subset Williams trend tests.

    The per-dose value is the running maximum of the segment p-values
    S_i..S_k, so it is non-increasing in dose and its top entry equals
    the global Williams p exactly.
    """
    _, global_p = williams_baseline(fit, n)
    return _williams_closure(fit, _segment_families(n), global_p, chain_maxt)


@dataclass(frozen=True)
class CtpResult:
    """All four procedures on one dataset, one row per dose."""

    control_label: str
    dose_labels: tuple
    p_dunnett: np.ndarray
    p_williams_rows: np.ndarray
    p_williams_global: float
    p_ctp_pairwise: np.ndarray
    p_ctp_williams: np.ndarray
    alpha: float
    boundary_policy: str
    correction_applied: np.ndarray
    dunnett_report: TestReport
    williams_report: TestReport

    def __post_init__(self):
        k = len(self.dose_labels)
        for name in ("p_dunnett", "p_ctp_pairwise", "p_ctp_williams"):
            p = getattr(self, name)
            if p.shape != (k,):
                raise ValueError(f"{name} must have one entry per dose")
            if np.any(p < 0.0) or np.any(p > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        for name in ("p_ctp_pairwise", "p_ctp_williams"):
            if np.any(np.diff(getattr(self, name)) > 0.0):
                raise ValueError(f"{name} must be non-increasing in dose")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def k(self) -> int:
        return len(self.dose_labels)


def closed_analysis(
    data: DoseGroupData,
    *,
    alpha: float = 0.05,
    boundary_policy: str = "haldane",
) -> CtpResult:
    """Run Dunnett, Williams and both closed-test variants on one dataset.

    A single saturated fit feeds every procedure, and every adjusted
    p-value is integrated exactly (error below 1e-8).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    fit = fit_saturated_logit(data, boundary_policy=boundary_policy)
    dunnett_report = dunnett_baseline(fit)
    williams_report, williams_global = williams_baseline(fit, data.n)
    p_c = _williams_closure(fit, _segment_families(data.n), williams_global, chain_maxt)
    p_c.setflags(write=False)
    return CtpResult(
        control_label=data.labels[0],
        dose_labels=data.labels[1:],
        p_dunnett=dunnett_report.p_adjusted,
        p_williams_rows=williams_report.p_adjusted,
        p_williams_global=williams_global,
        p_ctp_pairwise=ctp_pairwise(fit),
        p_ctp_williams=p_c,
        alpha=alpha,
        boundary_policy=boundary_policy,
        correction_applied=fit.correction_applied,
        dunnett_report=dunnett_report,
        williams_report=williams_report,
    )
