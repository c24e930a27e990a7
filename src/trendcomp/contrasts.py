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

Every maxT p-value of the package comes from one function,
:func:`_maxt_p`, over a table axis and a list of families.  Its callers
are :func:`contrast_test` and ``trendcomp.ctp._procedures``, the one
composition of Dunnett, Williams and the two closed tests, which
:func:`trendcomp.ctp.closed_analysis` and every decision of
:mod:`trendcomp.simulate` run.  ``contrast_test`` and
``closed_analysis`` build their :class:`TestReport` by one helper,
:func:`_report`.  ``_maxt_p`` is the only place that
composes the evaluators of :mod:`trendcomp.mvn` and
:mod:`trendcomp.chains`, and its docstring states once how a bound is
settled, evaluated, checked and clipped.  A family reaches it as its
statistics, standard errors and group variances.  The correlation, which
only the pair tails and quasi-Monte Carlo read, is formed there for just
the bounds that the sandwich leaves open, by the helper
:func:`contrast_moments` uses, so it is the same float; no other module
forms one for a maxT call.

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
# Under a window with a finite upper end, a three-row bound first takes
# its Plackett integral on _COARSE_NODES nodes, and only a coarse value
# within _COARSE_MARGIN of the window takes the 64-node value.  Against
# 64 nodes, 24 were off by at most 1.5e-8 on the 60,000 stock bounds of
# the sweep in mvn._triple_tail, 1.1e-7 with its wider variances, and
# 2.7e-7 at worst in a local search over stock families: the margin holds
# 180 times that.  16 nodes reached 9.5e-7 in that search, 32 nodes 7.4e-8.
_COARSE_NODES = 24
_COARSE_MARGIN = 5e-5


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
    group axis, and each table's correlation is one matrix product of
    its own rows, so every table gets the same floats whatever the
    number of tables it is batched with; ``tests/test_contrasts.py``
    checks this bitwise.  :func:`_maxt_p` relies on it when it forms
    the correlation of only the tables whose bounds it leaves open.
    """
    C = np.asarray(coefficients, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    var_eta = np.asarray(var_eta, dtype=np.float64)
    est, se, t = _statistics(C, eta, var_eta)
    return est, se, t, _correlation(C, var_eta, se)


def _statistics(C, eta, var_eta) -> tuple:
    """The (estimate, std_err, statistic) of :func:`contrast_moments`, with no correlation."""
    est = np.sum(C * eta[..., None, :], axis=-1)
    var = np.sum((C * C) * var_eta[..., None, :], axis=-1)
    if np.any(var <= 0.0):
        bad = int(np.argmin(var)) % C.shape[0]
        raise ContrastError(f"contrast row {bad} has zero variance")
    se = np.sqrt(var)
    return est, se, est / se


def _correlation(C, var_eta, std_err) -> np.ndarray:
    """The correlation of :func:`contrast_moments`, for each table of ``var_eta`` and ``std_err``."""
    cov = (C * var_eta[..., None, :]) @ C.T
    R = cov / (std_err[..., :, None] * std_err[..., None, :])
    R = 0.5 * (R + np.swapaxes(R, -1, -2))
    np.clip(R, -1.0, 1.0, out=R)
    diag = np.arange(C.shape[0])
    R[..., diag, diag] = 1.0
    return R


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

    Each family is a tuple ``(contrasts, t, std_err, var_eta)``; one p
    array per family is returned, shaped like its ``t``.  Row r of ``t``
    holds bounds of table r, whose contrast standard errors and group
    variances are row r of ``std_err`` and ``var_eta``; ``lo`` and ``hi``
    are numbers or arrays shaped like every family's ``t``.  Where p is
    proven below ``lo``, the value is an upper bound on p still below it;
    where p is proven at or above ``hi``, a lower bound on p at or above
    it.  Elsewhere the value is p, bitwise that of a call without a
    window.  The steps:

    1. Per family, the sandwich p_raw <= p <= m p_raw settles a bound
       with m p_raw < lo or p_raw >= hi.  One row is its raw normal tail,
       1 p_raw.  Without a window the sandwich settles nothing, so every
       bound of two or more rows is open.
    2. The open bounds of all families of m rows form one set, family by
       family.  Where the set's pair tails are read, with two or three
       rows or with a window, each bound's correlation is formed here
       from its table's ``std_err`` and ``var_eta``, by the helper of
       :func:`contrast_moments`, so it is bitwise that function's; no
       other bound's is.  Given a window and m >= 3, one :func:`_bracket`
       call brackets the whole set, and the set keeps only the bounds
       whose bracket is not more than ``_MARGIN`` outside the window;
       each other bound is settled at its bracket's end on its side, and
       a set so settled whole ends here.  Without a window no bracket
       runs: it could settle nothing.  Two rows skip this step: their
       bracket is their closed form.
    3. Every bound left in the set takes its bare exact tail.  Two or
       three rows take it from one :func:`_inclusion_exclusion` call over
       the set, with one Plackett integral on 64 nodes for three; the
       bracket and the closed form read the pair tails of one
       :func:`_pair_tails` call.  Under a window with a finite upper end,
       three rows first take a coarse value q, the same call on
       ``_COARSE_NODES`` nodes: a bound with q + ``_COARSE_MARGIN`` <
       ``lo`` is settled at that upper bound on p, one with q -
       ``_COARSE_MARGIN`` >= ``hi`` at that lower bound, and only the
       rest take the 64-node call.  Without a window, or under [lo, inf),
       three rows take the 64-node call alone, as a coarse value could
       settle little there.  With more rows, each family's run of the set
       takes it from one :func:`chain_maxt` call over all its tables if
       the family has :attr:`~ContrastMatrix.chains`, and otherwise from
       one :func:`mvn_upper_orthant_complement` call per bound, on its
       table's correlation, formed for the run, validated by
       :class:`MvnSpec`, and seeded with child c of seed 0 for a bound in
       column c of ``t``, as :func:`trendcomp.mvn.adjust_maxt` seeds
       statistic c.
    4. One check over the set: a tail more than ``_MARGIN``, or a coarse
       value that settled its bound more than ``_MARGIN +
       _COARSE_MARGIN``, outside its step-2 bracket raises
       :class:`ContrastError`, which names the route of that bound.  One
       clip then puts every tail into [p_raw, min(1, m p_raw)].

    Each evaluator computes a bound's floats apart from the other
    families' bounds in its set, so every p is bitwise that of a call on
    its family alone.  ``routes``, if given, gains the number of bounds
    settled by step 1, by step 2, a coarse value or the closed form, and
    integrated.
    """
    windowed = bool(np.ndim(lo) or np.ndim(hi) or lo > -np.inf or hi < np.inf)
    ends = list(accumulate((family[1].size for family in families), initial=0))
    flat = np.empty(ends[-1])  # the families' p back to back, each returned as a view
    ps, groups = [], {}
    for family, start, end in zip(families, ends, ends[1:]):
        t, m = family[1], family[0].n_rows
        p = flat[start:end].reshape(t.shape)
        p_raw = ndtr(-t)
        high = p_raw >= hi
        np.multiply(p_raw, m, out=p)
        np.copyto(p, p_raw, where=high)
        ps.append(p)
        if m > 1:  # one row is exact
            # the sandwich leaves open what it cannot put outside [lo, hi]: the
            # open bounds by flat index i into t, and where the family starts in flat
            i = np.flatnonzero(~high & (p >= lo))
            if i.size:
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
            # the correlation of each open bound's table, and of no other
            R = np.concatenate(
                [_correlation(c.coefficients, v[i // t.shape[1]], se[i // t.shape[1]])
                 for (c, t, se, v), i, _ in group]
            )
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
                t, p_raw, rho, pair = t[kept], p_raw[kept], rho[kept], pair[kept]
        if not bound.size:
            continue  # the bracket settled the whole set
        shift = 0.0  # takes a coarse value that settles its bound to a bound on p
        if m == 3 and bracketed and np.all(hi < np.inf):  # a decision, where coarse values pay
            w_lo, w_hi = (w[kept] if np.ndim(w) else w for w in (w_lo, w_hi))
            q = _inclusion_exclusion(m, t, p_raw, rho, pair, _COARSE_NODES)[:, 0]
            shift = np.where(q + _COARSE_MARGIN < w_lo, _COARSE_MARGIN, 0.0)
            shift[q - _COARSE_MARGIN >= w_hi] = -_COARSE_MARGIN
            fine = np.flatnonzero(shift == 0.0)
            if fine.size:
                q[fine] = _inclusion_exclusion(
                    m, t[fine], p_raw[fine], rho[fine], pair[fine]
                )[:, 0]
        elif m <= 3:
            q = _inclusion_exclusion(m, t, p_raw, rho, pair)[:, 0]
        else:
            q = np.empty(bound.size)
            for (contrasts, t, std_err, var_eta), _, start in group:
                # the family's run of the set: the bounds placed in its block of flat
                run = slice(pos.searchsorted(start), pos.searchsorted(start + t.size))
                index = pos[run] - start
                if contrasts.chains is None:
                    table, column = np.divmod(index, t.shape[1])
                    R = _correlation(contrasts.coefficients, var_eta[table], std_err[table])
                    q[run] = [
                        mvn_upper_orthant_complement(MvnSpec(r), b, seed=_child_seed(0, c)).value
                        for r, c, b in zip(R, column, bound[run])
                    ]
                elif index.size:
                    table = index // t.shape[1]
                    q[run] = chain_maxt(contrasts.chains, bound[run], std_err, var_eta, table)
            n_integrated += bound.size
        if bracketed:
            slack = _MARGIN + abs(shift)  # a coarse value is only that close
            inside = (lower - slack <= q) & (q <= upper + slack)
            if not inside.all():
                b = np.argmin(inside)
                owner = [family[0] for family, _, start in group if start <= pos[b]][-1]
                route = "closed-form" if m <= 3 else "QMC" if owner.chains is None else "quadrature"
                raise ContrastError(
                    f"{route} p-value {float(q[b])} at t = {float(bound[b])} lies outside "
                    f"its second-order bracket [{float(lower[b])}, {float(upper[b])}]"
                )
        p_raw = ndtr(-bound)
        flat[pos] = np.minimum(np.maximum(q + shift, p_raw), np.minimum(1.0, m * p_raw))
    if routes is not None:
        routes += (flat.size - n_open, n_open - n_integrated, n_integrated)
    return ps


def contrast_test(fit: ModelFit, contrasts: ContrastMatrix) -> TestReport:
    """Run a one-sided maxT test of the given contrasts on a fitted model.

    The route is :func:`_maxt_p`'s.  A family of one to three rows takes
    a closed form, exact for one or two rows.  For three, its Plackett
    integral was within 4.4e-13 of a finer rule on stock families of
    binomial tables, and up to 1e-9 off at near-singular Williams
    correlations (see :func:`trendcomp.mvn._triple_tail`).  A larger
    family with chain structure (every stock family of four or more
    rows) is integrated exactly, with error below 1e-9 (see
    :mod:`trendcomp.chains`) and no random numbers.  Any other family is
    integrated by quasi-Monte Carlo at the defaults of
    :func:`trendcomp.mvn.mvn_upper_orthant_complement`;
    its p-values are bitwise those of :func:`trendcomp.mvn.adjust_maxt`
    at its default seed.  Only that route validates the correlation with
    :class:`MvnSpec`.  More than ``MAX_DIMENSION`` contrasts raise
    :class:`CorrelationError` on every route.
    """
    if contrasts.n_groups != fit.eta.size:
        raise ContrastError(
            f"contrast matrix has {contrasts.n_groups} columns "
            f"but the fit has {fit.eta.size} groups"
        )
    if contrasts.n_rows > MAX_DIMENSION:
        raise CorrelationError(f"dimension {contrasts.n_rows} exceeds supported {MAX_DIMENSION}")
    est, se, t = _statistics(contrasts.coefficients, fit.eta, fit.var_eta)
    p_adjusted = _maxt_p([(contrasts, t[None], se[None], fit.var_eta[None])])[0][0]
    return _report(contrasts, est, se, t, fit.var_eta, p_adjusted)


def _report(contrasts, estimate, std_err, statistic, var_eta, p_adjusted) -> TestReport:
    """The read-only :class:`TestReport` of one table's statistics and adjusted p.

    The correlation is :func:`contrast_moments`'s, formed from the group
    variances ``var_eta`` and ``std_err``.
    """
    R = _correlation(contrasts.coefficients, var_eta, std_err)
    p_raw = ndtr(-statistic)
    for arr in (estimate, std_err, statistic, R, p_raw, p_adjusted):
        arr.setflags(write=False)
    return TestReport(contrasts, estimate, std_err, statistic, R, p_raw, p_adjusted)
