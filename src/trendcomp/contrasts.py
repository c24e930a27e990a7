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

:func:`contrast_test` and the closed test of :mod:`trendcomp.ctp` pick
the route of a family by one dispatcher, :func:`_maxt_p`, from its number
of rows and then its :attr:`ContrastMatrix.chains`, found once per
matrix from its coefficients.  One row is its raw normal tail.  Two rows
are exact in closed form: the maxT tail is 2 Phi(-t) minus a bivariate
normal tail, which :func:`trendcomp.mvn.maxt_bounds` computes through
Owen's T, so the k=2 families and the closed test's segment {0, 1, 2}
need no quadrature and never look at their chains.  Larger families
with chain structure (see :mod:`trendcomp.chains`), which covers
many-to-one, Williams and so every closed-test segment, get exact
quadrature with error below 1e-9 (measured in :mod:`trendcomp.chains`).
None of these routes validates the correlation: it is built from group
variances, so it is positive semidefinite by construction.  The
simulator decides the stock families with the bracket of
:func:`~trendcomp.mvn.maxt_bounds`, exact for two rows, and the same
quadrature.  Any other family goes to the randomized quasi-Monte Carlo
integrator of :mod:`trendcomp.mvn` at its default tolerance, after
:class:`trendcomp.mvn.MvnSpec` validates the correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from .chains import ContrastError, _equal_fields, chain_maxt, chain_structure
from .model import ModelFit
from .mvn import MAX_DIMENSION, CorrelationError, MvnSpec, adjust_maxt, maxt_bounds

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
    def chains(self) -> tuple | None:
        """The chains of the family (:func:`trendcomp.chains.chain_structure`), or None."""
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


def _maxt_p(contrasts: ContrastMatrix, t, std_err, var_eta, correlation) -> np.ndarray:
    """maxT-adjusted p-values of one table at the bounds ``t``, by the family's route.

    ``std_err``, ``var_eta`` and ``correlation`` are the table's, as
    :func:`contrast_moments` returns them.  One row gives its raw normal
    tail.  Two rows give the closed form of :func:`maxt_bounds`, whose
    bounds coincide there: 2 Phi(-t) minus the bivariate normal tail
    through Owen's T, clipped into [p_raw, min(1, 2 p_raw)].  A family
    with :attr:`~ContrastMatrix.chains` goes to :func:`chain_maxt`; any
    other is integrated by quasi-Monte Carlo at the defaults of
    :func:`adjust_maxt`, which needs the whole family's statistics and
    a correlation that :class:`MvnSpec` validates.  Only the last two
    routes read ``chains``.
    """
    m = contrasts.n_rows
    if m == 1:
        return ndtr(-t)
    if m == 2:
        p_raw = ndtr(-t)
        p = maxt_bounds(t[None], correlation[None])[1][0]
        return np.minimum(np.maximum(p, p_raw), np.minimum(1.0, 2.0 * p_raw))
    if contrasts.chains is None:
        return adjust_maxt(t, MvnSpec(correlation))
    return chain_maxt(contrasts.chains, t, std_err, var_eta)


def contrast_test(fit: ModelFit, contrasts: ContrastMatrix) -> TestReport:
    """Run a one-sided maxT test of the given contrasts on a fitted model.

    The route is :func:`_maxt_p`'s.  A family of one or two rows takes
    a closed form, exact to rounding.  A larger family with chain
    structure (every stock family of three or more rows) is integrated
    exactly, with error below 1e-9 (see :mod:`trendcomp.chains`) and no
    random numbers.  Any other family is integrated by quasi-Monte Carlo
    at the defaults of :func:`trendcomp.mvn.adjust_maxt`, and only that
    route validates the correlation with :class:`MvnSpec`.  More than
    ``MAX_DIMENSION`` contrasts raise :class:`CorrelationError` on every
    route.
    """
    if contrasts.n_groups != fit.eta.size:
        raise ContrastError(
            f"contrast matrix has {contrasts.n_groups} columns "
            f"but the fit has {fit.eta.size} groups"
        )
    if contrasts.n_rows > MAX_DIMENSION:
        raise CorrelationError(f"dimension {contrasts.n_rows} exceeds supported {MAX_DIMENSION}")
    est, se, t, R = contrast_moments(contrasts.coefficients, fit.eta, fit.var_eta)
    p_adj = _maxt_p(contrasts, t, se, fit.var_eta, R)
    for arr in (est, se, t, R, p_adj):
        arr.setflags(write=False)
    p_raw = ndtr(-t)
    p_raw.setflags(write=False)
    return TestReport(
        contrasts=contrasts,
        estimate=est,
        std_err=se,
        statistic=t,
        correlation=R,
        p_raw=p_raw,
        p_adjusted=p_adj,
    )
