"""Contrast families on the dose scale and the maxT test report.

Contrasts act on the per-group log odds from a saturated fit.  Two stock
families are provided: many-to-one (each dose against control) and the
ordered family of Williams type, whose rows compare the control with
sample-size weighted means of the q highest dose groups.  Rows are ordered
so that the first row involves the highest dose alone; under a monotone
dose response this row carries the trend signal.

All tests are one-sided against increase.  The joint reference is the
multivariate normal law of the standardized contrasts with the correlation
implied by the fit, so adjusted p-values account for the dependence among
the comparisons.

Every maxT p-value of the package, in :func:`contrast_test`, in the
closed test of :mod:`trendcomp.ctp` and in every decision of
:mod:`trendcomp.simulate`, comes from one function, :func:`_maxt_p`,
over a table axis and a list of families.  It is the only place that
composes the evaluators of :mod:`trendcomp.mvn` and
:mod:`trendcomp.chains`, and its docstring states once how a bound is
settled, evaluated, checked and clipped.

The route of a family comes from its number of rows and then from
:attr:`ContrastMatrix.chains`, found once per matrix from its
coefficients.  One row is its raw normal tail, and two or three rows
have a closed form, within 1e-12 of nested ``quad`` oracles
(:func:`trendcomp.mvn._inclusion_exclusion`).  So every family of k <=
3, the paper's k=3 examples included, and the closed test's segments
{0, 1, 2} and {0, 1, 2, 3} need no quadrature and never look at their
chains.  A larger family with chain structure (see
:mod:`trendcomp.chains`), which covers many-to-one, Williams and so
every closed-test segment, gets the exact quadrature of
:func:`trendcomp.chains.chain_maxt`, with error below 1e-9.  Only the
route of any other family, randomized quasi-Monte Carlo at the default
tolerance of :mod:`trendcomp.mvn`, validates the correlation, through
:class:`trendcomp.mvn.MvnSpec`; the others take it as built from group
variances, positive semidefinite by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.special import ndtr

from .chains import Chains, ContrastError, _equal_fields, chain_maxt, chain_structure
from .model import ModelFit
from .mvn import (
    MAX_DIMENSION,
    CorrelationError,
    MvnSpec,
    _bracket,
    _child_seed,
    _inclusion_exclusion,
    _pair_tails,
    mvn_upper_orthant_complement,
)

__all__ = [
    "ContrastError",
    "ContrastMatrix",
    "TestReport",
    "dunnett_matrix",
    "williams_matrix",
    "contrast_moments",
    "contrast_test",
]

_ROW_SUM_TOL = 1e-12
# a bracket of :func:`trendcomp.mvn._bracket` settles a comparison only
# this far clear of it, ten times the quadrature's error, so it is the
# comparison the exact value makes; an exact p this far outside its
# bracket raises ContrastError
_MARGIN = 1e-7


@dataclass(frozen=True)
class ContrastMatrix:
    """Named rows of contrast coefficients over the treatment groups.

    :attr:`chains` is derived from the coefficients on first use and kept,
    so each family's structure is found once however often it is tested.
    Matrices compare by value.
    """

    __eq__ = _equal_fields

    names: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        C = np.array(self.coefficients, dtype=np.float64)
        if C.ndim != 2 or C.shape[0] < 1 or C.shape[1] < 2:
            raise ContrastError("coefficients must be a matrix with >= 1 row and >= 2 columns")
        if not np.all(np.isfinite(C)):
            raise ContrastError("coefficients must be finite")
        names = tuple(str(s) for s in self.names)
        if len(names) != C.shape[0]:
            raise ContrastError(
                f"got {len(names)} names for {C.shape[0]} contrast rows"
            )
        sums = C.sum(axis=1)
        if np.any(np.abs(sums) > _ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums)))
            raise ContrastError(
                f"contrast {names[bad]!r} coefficients sum to {sums[bad]:.3e}, not 0"
            )
        mixed = np.any(C > 0.0, axis=1) & np.any(C < 0.0, axis=1)
        if not mixed.all():
            bad = int(np.argmin(mixed))
            raise ContrastError(
                f"contrast {names[bad]!r} needs at least one positive and one negative weight"
            )
        C.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "coefficients", C)

    @property
    def n_rows(self) -> int:
        return self.coefficients.shape[0]

    @property
    def n_groups(self) -> int:
        return self.coefficients.shape[1]

    @cached_property
    def chains(self) -> Chains | None:
        """The family's chains (:class:`~trendcomp.chains.Chains`), or None."""
        return chain_structure(self.coefficients)


def dunnett_matrix(n) -> ContrastMatrix:
    """Many-to-one contrasts: dose i minus control, for i = 1..k.

    ``n`` gives the group sample sizes, control first; only its length
    matters for this family.
    """
    k = len(n) - 1
    if k < 1:
        raise ContrastError("need a control group and at least one dose group")
    C = np.zeros((k, k + 1))
    names = []
    for i in range(1, k + 1):
        C[i - 1, 0] = -1.0
        C[i - 1, i] = 1.0
        names.append(f"D{i}-C")
    return ContrastMatrix(names=tuple(names), coefficients=C)


def williams_matrix(n) -> ContrastMatrix:
    """Ordered contrasts of Williams type, highest dose first.

    Row q compares the control with the sample-size weighted mean of the
    q highest dose groups: row 1 is dose k alone, row 2 pools doses k-1
    and k, and the last row pools all doses.  Weights are n_j over the
    pooled total, so the pooled side is the weighted mean response of the
    included groups.
    """
    n = np.asarray(n, dtype=np.float64)
    k = n.size - 1
    if k < 1:
        raise ContrastError("need a control group and at least one dose group")
    if np.any(n <= 0):
        raise ContrastError("group sample sizes must be positive")
    C = np.zeros((k, k + 1))
    names = []
    for q in range(1, k + 1):
        lo = k - q + 1
        total = n[lo:].sum()
        C[q - 1, 0] = -1.0
        C[q - 1, lo:] = n[lo:] / total
        names.append(f"D{lo}:{k}-C" if lo < k else f"D{k}-C")
    return ContrastMatrix(names=tuple(names), coefficients=C)


def contrast_moments(coefficients: np.ndarray, eta: np.ndarray, var_eta: np.ndarray):
    """Estimates, standard errors, statistics and correlation of contrasts.

    Works directly from per-group means and variances, which is all the
    diagonal covariance of a saturated fit requires.  ``eta`` and
    ``var_eta`` may carry leading replicate axes before the group axis;
    the results then carry them too.  Returns the tuple (estimate,
    std_err, statistic, correlation).

    Estimates and variances are elementwise products summed over the
    group axis, which gives every table the same floats whatever the
    number of tables it is batched with.
    """
    C = np.asarray(coefficients, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)[..., None, :]
    var_eta = np.asarray(var_eta, dtype=np.float64)[..., None, :]
    est = np.sum(C * eta, axis=-1)
    var = np.sum((C * C) * var_eta, axis=-1)
    if np.any(var <= 0.0):
        bad = int(np.argmin(var)) % C.shape[0]
        raise ContrastError(f"contrast row {bad} has zero variance")
    se = np.sqrt(var)
    t = est / se
    cov = (C * var_eta) @ C.T
    R = cov / (se[..., :, None] * se[..., None, :])
    R = 0.5 * (R + np.swapaxes(R, -1, -2))
    np.clip(R, -1.0, 1.0, out=R)
    diag = np.arange(C.shape[0])
    R[..., diag, diag] = 1.0
    return est, se, t, R


@dataclass(frozen=True)
class TestReport:
    """Per-contrast results of a maxT multiple-contrast test, compared by value."""

    __eq__ = _equal_fields

    contrasts: ContrastMatrix
    estimate: np.ndarray
    std_err: np.ndarray
    statistic: np.ndarray
    correlation: np.ndarray
    p_raw: np.ndarray
    p_adjusted: np.ndarray

    @property
    def min_adjusted(self) -> float:
        """The smallest adjusted p-value, the family-level p of the test."""
        return float(self.p_adjusted.min())


def _maxt_p(families, lo=-np.inf, hi=np.inf, routes=None) -> list:
    """maxT-adjusted p-values of several families, exact wherever they may lie in [lo, hi].

    Each family is a tuple ``(contrasts, t, std_err, var_eta,
    correlation)``; one p array per family is returned, shaped like its
    ``t``.  Row r of ``t`` holds bounds of table r, whose contrast
    standard errors, group variances and correlation are row r of
    ``std_err``, ``var_eta`` and ``correlation``; ``lo`` and ``hi`` are
    numbers or arrays shaped like every family's ``t``.  Where p is
    proven below ``lo``, the value is an upper bound on p still below it;
    where p is proven at or above ``hi``, a lower bound on p at or above
    it.  Elsewhere the value is p, bitwise that of a call without a
    window.  The steps:

    1. Per family, one row is its raw normal tail, and, given a window,
       the sandwich p_raw <= p <= m p_raw settles a bound with m p_raw <
       lo or p_raw >= hi.  A call without a window runs neither this
       sandwich nor the bracket of step 2: they could settle nothing, so
       every bound of two or more rows is open.
    2. The open bounds of all families of m rows form one set, family by
       family.  Given a window and m >= 3, one :func:`_bracket` call
       brackets the whole set, and the set keeps only the bounds whose
       bracket is not more than ``_MARGIN`` outside the window; each
       other bound is settled at its bracket's end on its side.  Two rows
       skip this step: their bracket is their closed form.
    3. Every bound left in the set takes its bare exact tail.  Two or
       three rows take it from one :func:`_inclusion_exclusion` call over
       the set, with one Plackett integral for three; the bracket and the
       closed form read the pair tails of one :func:`_pair_tails` call.
       With more rows, each family's run of the set takes it from one
       :func:`chain_maxt` call over all its tables if the family has
       :attr:`~ContrastMatrix.chains`, and otherwise from one
       :func:`mvn_upper_orthant_complement` call per bound, on its
       table's correlation, validated by :class:`MvnSpec`, and seeded
       with child c of seed 0 for a bound in column c of ``t``, as
       :func:`trendcomp.mvn.adjust_maxt` seeds statistic c.
    4. One check over the set: a tail more than ``_MARGIN`` outside its
       step-2 bracket raises :class:`ContrastError`, which names the
       route of that bound.  One clip then puts every tail into [p_raw,
       min(1, m p_raw)].

    Each evaluator computes a bound's floats apart from the other
    families' bounds in its set, so every p is bitwise that of a call on
    its family alone.  ``routes``, if given, gains the number of bounds
    settled by step 1, by step 2 or the closed form, and integrated.
    """
    windowed = bool(np.ndim(lo) or np.ndim(hi) or lo > -np.inf or hi < np.inf)
    ends = list(accumulate((family[1].size for family in families), initial=0))
    flat = np.empty(ends[-1])  # the families' p back to back, each returned as a view
    ps, groups = [], {}
    for family, start, end in zip(families, ends, ends[1:]):
        t, m = family[1], family[0].n_rows
        p = flat[start:end].reshape(t.shape)
        p_raw = ndtr(-t)
        if windowed:
            high = p_raw >= hi
            np.multiply(p_raw, m, out=p)
            np.copyto(p, p_raw, where=high)
            # one row is exact; the sandwich leaves open what it cannot put outside [lo, hi]
            i = np.flatnonzero(~high & (p >= lo)) if m > 1 else np.arange(0)
        else:
            p[...] = p_raw  # exact for one row; every bound of more rows is open
            i = np.arange(t.size if m > 1 else 0)
        ps.append(p)
        if i.size:
            # the open bounds by flat index i into t, and where the family starts in flat
            groups.setdefault(m, []).append((family, i, start))
    n_open = n_integrated = 0
    for m, group in sorted(groups.items()):
        # the set of open bounds and their places in flat, which rise family by family
        bound = np.concatenate([family[1].take(i) for family, i, _ in group])
        pos = np.concatenate([start + i for _, i, start in group])
        n_open += bound.size
        # Without a window the bracket could settle nothing and would only
        # check the exact value: bracketing contrast_test's Dunnett and global
        # Williams families made closed_analysis 7% slower over the
        # benchmark's analyze tables on a 2-vCPU host.
        bracketed = windowed and m >= 3
        if m <= 3 or bracketed:
            R = np.concatenate([family[4][i // family[1].shape[1]] for family, i, _ in group])
            t, _, p_raw, rho, pair = _pair_tails(bound[:, None], R)
        if bracketed:
            lower, upper = (x[:, 0] for x in _bracket(m, p_raw, pair))
            w_lo, w_hi = (
                np.concatenate([np.take(w, i) for _, i, _ in group]) if np.ndim(w) else w
                for w in (lo, hi)
            )
            below = upper < w_lo - _MARGIN
            kept = ~below & (lower <= w_hi + _MARGIN)
            flat[pos] = np.where(below, upper, lower)
            bound, pos, lower, upper = bound[kept], pos[kept], lower[kept], upper[kept]
        if m <= 3:
            if bracketed:
                t, p_raw, rho, pair = t[kept], p_raw[kept], rho[kept], pair[kept]
            q = _inclusion_exclusion(m, t, p_raw, rho, pair)[:, 0]
        elif not bound.size:
            continue  # the bracket settled the whole set
        else:
            q = np.empty(bound.size)
            for (contrasts, t, std_err, var_eta, correlation), _, start in group:
                # the family's run of the set: the bounds placed in its block of flat
                run = slice(pos.searchsorted(start), pos.searchsorted(start + t.size))
                index = pos[run] - start
                if contrasts.chains is None:
                    table, column = np.divmod(index, t.shape[1])
                    q[run] = [
                        mvn_upper_orthant_complement(MvnSpec(R), b, seed=_child_seed(0, c)).value
                        for R, c, b in zip(correlation[table], column, bound[run])
                    ]
                elif index.size:
                    table = index // t.shape[1]
                    q[run] = chain_maxt(contrasts.chains, bound[run], std_err, var_eta, table)
            n_integrated += bound.size
        if bracketed:
            inside = (lower - _MARGIN <= q) & (q <= upper + _MARGIN)
            if not inside.all():
                b = np.argmin(inside)
                owner = [family[0] for family, _, start in group if start <= pos[b]][-1]
                route = "closed-form" if m <= 3 else "QMC" if owner.chains is None else "quadrature"
                raise ContrastError(
                    f"{route} p-value {q[b]!r} at t = {bound[b]!r} lies outside "
                    f"its second-order bracket [{lower[b]!r}, {upper[b]!r}]"
                )
        p_raw = ndtr(-bound)
        flat[pos] = np.minimum(np.maximum(q, p_raw), np.minimum(1.0, m * p_raw))
    if routes is not None:
        routes += (flat.size - n_open, n_open - n_integrated, n_integrated)
    return ps


def contrast_test(fit: ModelFit, contrasts: ContrastMatrix) -> TestReport:
    """Run a one-sided maxT test of the given contrasts on a fitted model.

    The route is :func:`_maxt_p`'s.  A family of one to three rows takes
    a closed form, exact to rounding.  A larger family with chain
    structure (every stock family of four or more rows) is integrated
    exactly, with error below 1e-9 (see :mod:`trendcomp.chains`) and no
    random numbers.  Any other family is integrated by quasi-Monte Carlo
    at the defaults of :func:`trendcomp.mvn.mvn_upper_orthant_complement`;
    its p-values are bitwise those of :func:`trendcomp.mvn.adjust_maxt`
    at its default seed.  Only that route validates the correlation with
    :class:`MvnSpec`.  More than ``MAX_DIMENSION`` contrasts raise
    :class:`CorrelationError` on every route.
    """
    return _contrast_tests(fit, (contrasts,))[0]


def _contrast_tests(fit: ModelFit, families) -> list:
    """:func:`contrast_test` of each of ``families`` on ``fit``, by one :func:`_maxt_p` call."""
    for contrasts in families:
        if contrasts.n_groups != fit.eta.size:
            raise ContrastError(
                f"contrast matrix has {contrasts.n_groups} columns "
                f"but the fit has {fit.eta.size} groups"
            )
        if contrasts.n_rows > MAX_DIMENSION:
            raise CorrelationError(
                f"dimension {contrasts.n_rows} exceeds supported {MAX_DIMENSION}"
            )
    moments = [contrast_moments(c.coefficients, fit.eta, fit.var_eta) for c in families]
    var_eta = fit.var_eta[None]
    p_adjusted = _maxt_p(
        [(c, t[None], se[None], var_eta, R[None]) for c, (_, se, t, R) in zip(families, moments)]
    )
    reports = []
    for contrasts, (est, se, t, R), p_adj in zip(families, moments, p_adjusted):
        p_adj = p_adj[0]
        p_raw = ndtr(-t)
        for arr in (est, se, t, R, p_adj, p_raw):
            arr.setflags(write=False)
        reports.append(
            TestReport(
                contrasts=contrasts,
                estimate=est,
                std_err=se,
                statistic=t,
                correlation=R,
                p_raw=p_raw,
                p_adjusted=p_adj,
            )
        )
    return reports
