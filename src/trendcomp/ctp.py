"""Closed testing for ordered binomial comparisons, and the stock families.

Under a monotone order restriction the closure over the per-dose
hypotheses H_i collapses to a chain of nested top segments: dose i is
claimed significant only if every segment hypothesis covering it,
{0..i} through {0..k}, is rejected.  The per-dose closed-test p-value is
therefore a running maximum over the chain, which makes the reported
vectors non-increasing in dose by construction.

Two instantiations of the intersection tests are provided.  Variant P
tests segment {0..j} with the single pairwise contrast of its highest
dose against control.  Variant C tests it with the global Williams trend
test on the segment's own groups, read from the one saturated fit of the
whole table.  The bottom segment {0, 1} is the single contrast D1 vs C in
both variants, so variant C reads its p, bitwise the same float, from
the raw pairwise p of dose 1 and makes no maxT call for it.

:func:`_stock_families` is the one place the stock families are defined:
the many-to-one (Dunnett) family and variant C's segment families, the
top one being the global Williams family; segment {0, 1} has a family
only as the global one of k = 1.  Each is a plain
:class:`ContrastMatrix` that carries its chains.  Every adjusted p-value
comes from :func:`trendcomp.contrasts._maxt_p`, whose docstring states
its routes: exact in closed form or by quadrature for every stock
family, with no random numbers.  A call passes statistics, standard
errors and group variances, and no correlation: ``_maxt_p`` forms that
of just the bounds it leaves open.

:func:`_procedures` is the one place the four procedures are composed,
over a leading axis of tables.  It tests the Dunnett and the global
Williams family in one ``_maxt_p`` call, computes the raw pairwise p
once for variant P and for segment {0, 1}, and runs the variant C
closure, :func:`_williams_closure`, in which each lower segment is a
one-family call.  :func:`closed_analysis` calls it on the fit of its
one table, with no significance level: the closure asks for each lower
segment's p only above the running maximum, so a segment that cannot
raise it gets no exact value, and, as a segment is asked at one bound
per table, the reported p is the same float.  The simulator calls
it on a chunk of replicates with alpha, which settles every maxT p
against alpha instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np
from scipy.special import ndtr

from .chains import _equal_fields
from .contrasts import (
    TestReport,
    _maxt_p,
    _report,
    _statistics,
    _williams_segments,
    dunnett_matrix,
)
from .data import DoseGroupData
from .model import ModelFit, fit_saturated_logit
from .mvn import MAX_DIMENSION, CorrelationError

__all__ = [
    "CtpResult",
    "raw_pairwise_pvalues",
    "ctp_pairwise",
    "closed_analysis",
]


def raw_pairwise_pvalues(fit: ModelFit) -> np.ndarray:
    """Unadjusted one-sided p-values of each dose-vs-control contrast."""
    eta, var = fit.eta, fit.var_eta
    return ndtr((eta[..., :1] - eta[..., 1:]) / np.sqrt(var[..., 1:] + var[..., :1]))


def ctp_pairwise(fit: ModelFit) -> np.ndarray:
    """Variant P: closed test with pairwise contrasts.

    Segment {0..j} is tested by the raw p of D_j vs C, so the per-dose
    value is the running maximum of the raw pairwise p-values from the
    top dose downward.  Exact given the fit; no integration involved.
    A fit with a leading replicate axis gets one row per replicate.
    """
    return _running_max(raw_pairwise_pvalues(fit))


def _running_max(raw: np.ndarray) -> np.ndarray:
    """Variant P from the raw pairwise p: their running maximum from the top dose down."""
    return np.maximum.accumulate(raw[..., ::-1], axis=-1)[..., ::-1]


def _stock_families(n) -> tuple:
    """The many-to-one family and variant C's segment families for sizes ``n``.

    Returns ``(dunnett, segments)``.  ``segments[j]`` is the Williams
    family on groups {0..j}, over those j + 1 groups only, for j = 2..k,
    the global family being j = k.  Segment {0, 1}, the contrast D1 vs C,
    is built only when k = 1, as the global family: the closure reads it
    from the raw pairwise p.  The segments are built once per process for
    each tuple of sizes, and Dunnett, which depends on k alone, once per
    k, so its chains are found once per k; ``segments`` is a read-only
    mapping and every family is frozen, so all callers share them.  More
    than ``MAX_DIMENSION`` doses raise :class:`CorrelationError` before
    any family is built.
    """
    if len(n) - 1 > MAX_DIMENSION:
        raise CorrelationError(f"dimension {len(n) - 1} exceeds supported {MAX_DIMENSION}")
    return _families_of_sizes(tuple(int(v) for v in n))


@lru_cache(maxsize=64)
def _families_of_sizes(n: tuple) -> tuple:
    k = len(n) - 1
    segments = _williams_segments(np.array(n, dtype=np.float64), min(k, 2))
    return _dunnett_of(k), MappingProxyType(segments)


@lru_cache(maxsize=64)
def _dunnett_of(k: int):
    return dunnett_matrix(range(k + 1))


def _williams_closure(fit: ModelFit, segments, top, raw, alpha=None, routes=None) -> np.ndarray:
    """Variant C: per-dose closed-test p-values p_i = max(S_i, ..., S_k).

    ``fit`` holds one table or a leading axis of them, ``segments`` comes
    from :func:`_stock_families`, ``top`` holds S_k, the value of the
    global family, for each table, and ``raw`` the fit's
    :func:`raw_pairwise_pvalues`.  The lower segments are visited from
    the top down, each only for the tables whose running maximum is still
    below the stop, 1 or else ``alpha``; once it reaches the stop, the
    lower doses of that table get 1.  Segment j gives S_j by
    :func:`~trendcomp.contrasts._maxt_p` at each table's largest
    statistic only: the adjusted p falls as the bound rises, so that
    bound gives the family minimum.  Without ``alpha`` its window is
    [running maximum, inf), so a segment that cannot raise the running
    maximum gets no exact value and every p is the exact float.  With
    ``alpha`` the window is [alpha, alpha], so each p is below alpha
    exactly when the exact one is.  Segment 1, the single contrast D1 vs
    C, is the raw pairwise p of dose 1, read from ``raw``, which is
    exact, and counts as settled by the sandwich, as its one row would
    be in ``_maxt_p``.
    ``routes`` collects the route counts of ``_maxt_p``.  The segment sees
    the first j + 1 groups of the fit as they are: a prefix is never
    refitted, so groups at a boundary keep the corrected values of the
    whole table.
    """
    k = fit.n_groups - 1
    eta = fit.eta.reshape(-1, fit.n_groups)
    var = fit.var_eta.reshape(-1, fit.n_groups)
    running = np.array(top, dtype=np.float64).reshape(-1)
    stop = 1.0 if alpha is None else alpha
    p = np.ones((running.size, k))
    p[:, k - 1] = running
    rows = np.flatnonzero(running < stop)
    for j in range(k - 1, 0, -1):
        if rows.size == 0:
            break
        if j == 1:
            # the single contrast D1 vs C: its one row is its raw p, the
            # raw pairwise p of dose 1 bitwise, and the sandwich settles it
            s_j = raw.reshape(-1, k)[rows, 0]
            if routes is not None:
                routes[0] += rows.size
        else:
            segment = segments[j]
            var_j = var[rows, : j + 1]
            _, se, t = _statistics(segment.coefficients, eta[rows, : j + 1], var_j)
            lo, hi = (running[rows, None], np.inf) if alpha is None else (alpha, alpha)
            t = t.max(axis=-1, keepdims=True)
            s_j = _maxt_p([(segment, t, se, var_j)], lo, hi, routes)[0][:, 0]
        running[rows] = np.maximum(running[rows], s_j)
        p[rows, j - 1] = running[rows]
        rows = rows[running[rows] < stop]
    return p.reshape(fit.eta.shape[:-1] + (k,))


def _procedures(fit: ModelFit, n, alpha=None, routes=None) -> tuple:
    """Dunnett, Williams and both closed-test variants on every table of ``fit``.

    The one composition of the four procedures.  ``fit`` holds one table
    or a leading axis of them, and ``n`` holds the group sizes.  The
    Dunnett and global Williams families of :func:`_stock_families` take
    their statistics from :func:`~trendcomp.contrasts._statistics` and
    their adjusted p from one :func:`~trendcomp.contrasts._maxt_p` call.  The raw pairwise
    p is computed once: variant P is its running maximum, and variant C,
    :func:`_williams_closure`, reads dose 1's value from it and starts
    from the global Williams p, the minimum over the Williams bounds.
    Without ``alpha`` every p is exact and Williams is asked for at every
    row, as a report shows them.  With ``alpha`` every maxT p is asked
    for in [alpha, alpha], so it is below alpha exactly when the exact p
    is, but for a p within 1e-12 of alpha in a family of four or more rows
    (see ``_maxt_p``), and Williams only at its top row and its largest
    statistic: a
    family rejects iff its largest statistic's adjusted p is below alpha,
    so those two are the (W_top, W_any) claims.  ``routes`` collects the
    route counts of ``_maxt_p``.

    Returns ``(tests, (p_d, p_w, p_pairwise, p_c))``.  ``tests`` holds
    ``(contrasts, estimate, std_err, statistic)`` of the Dunnett and the
    global Williams family; each array has one row per table, a fit of
    one table included.
    """
    dunnett, segments = _stock_families(n)
    top = segments[len(n) - 1]
    eta, var = (a.reshape(-1, fit.n_groups) for a in (fit.eta, fit.var_eta))
    tests = [(c, *_statistics(c.coefficients, eta, var)) for c in (dunnett, top)]
    (_, _, se_d, t_d), (_, _, se_w, t_w) = tests
    if alpha is None:
        lo, hi = -np.inf, np.inf
    else:
        lo = hi = alpha
        t_w = np.stack([t_w[:, 0], t_w.max(axis=1)], axis=1)
    p_d, p_w = _maxt_p([(dunnett, t_d, se_d, var), (top, t_w, se_w, var)], lo, hi, routes)
    raw = raw_pairwise_pvalues(fit).reshape(p_d.shape)
    p_c = _williams_closure(fit, segments, p_w.min(axis=1), raw, alpha, routes)
    return tests, (p_d, p_w, _running_max(raw), p_c.reshape(p_d.shape))


@dataclass(frozen=True)
class CtpResult:
    """All four procedures on one dataset, one row per dose; compared by value."""

    __eq__ = _equal_fields

    control_label: str
    dose_labels: tuple
    p_dunnett: np.ndarray
    p_williams_rows: np.ndarray
    p_williams_global: float
    p_ctp_pairwise: np.ndarray
    p_ctp_williams: np.ndarray
    boundary_policy: str
    correction_applied: np.ndarray
    dunnett_report: TestReport
    williams_report: TestReport

    def __post_init__(self):
        k = len(self.dose_labels)
        for name in ("p_dunnett", "p_williams_rows", "p_ctp_pairwise", "p_ctp_williams"):
            p = getattr(self, name)
            if p.shape != (k,):
                raise ValueError(f"{name} must have one entry per dose")
            if np.any(p < 0.0) or np.any(p > 1.0):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        for name in ("p_ctp_pairwise", "p_ctp_williams"):
            if np.any(np.diff(getattr(self, name)) > 0.0):
                raise ValueError(f"{name} must be non-increasing in dose")
        if self.p_williams_global != self.p_williams_rows.min():
            raise ValueError("p_williams_global must be the minimum of p_williams_rows")

    @property
    def k(self) -> int:
        return len(self.dose_labels)


def closed_analysis(data: DoseGroupData, *, boundary_policy: str = "haldane") -> CtpResult:
    """Run Dunnett, Williams and both closed-test variants on one dataset.

    A single saturated fit feeds every procedure, and every adjusted
    p-value is exact: in closed form for a family of one to three rows,
    else integrated with error below 1e-9 (see :mod:`trendcomp.chains`).
    A closed-test segment that provably cannot raise the running maximum
    gets no exact value, by quadrature or closed form
    (:func:`_williams_closure`).  No significance level
    is taken: a claim at any level is a p-value below it.
    """
    fit = fit_saturated_logit(data, boundary_policy=boundary_policy)
    tests, (p_d, p_w, p_p, p_c) = _procedures(fit, data.n)
    dunnett_report, williams_report = (
        _report(c, est[0], se[0], t[0], fit.var_eta, p[0])
        for (c, est, se, t), p in zip(tests, (p_d, p_w))
    )
    for p in (p_p, p_c):
        p.setflags(write=False)
    return CtpResult(
        control_label=data.labels[0],
        dose_labels=data.labels[1:],
        p_dunnett=dunnett_report.p_adjusted,
        p_williams_rows=williams_report.p_adjusted,
        p_williams_global=williams_report.min_adjusted,
        p_ctp_pairwise=p_p[0],
        p_ctp_williams=p_c[0],
        boundary_policy=boundary_policy,
        correction_applied=fit.correction_applied,
        dunnett_report=dunnett_report,
        williams_report=williams_report,
    )
