"""Saturated one-way logistic fit for grouped binomial data.

For a one-way layout with treatment coding the maximum likelihood fit has a
closed form: the group log-odds are ``log(y/(n-y))`` with Wald variance
``1/y + 1/(n-y)``, and the groups are independent, so the covariance is
diagonal.  Contrast inference on these group log-odds is identical to
inference on treatment-coded coefficients of an iteratively fitted model.

The closed form runs over count arrays with any leading axes, so the
simulator fits a whole chunk of replicate tables in one call, with the
same arithmetic and the same boundary policies as :func:`fit_saturated_logit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DoseGroupData

__all__ = [
    "BOUNDARY_POLICIES",
    "BoundaryCountError",
    "NoInformationError",
    "ModelFit",
    "fit_saturated_logit",
]

BOUNDARY_POLICIES = ("haldane", "reject", "smooth")


class BoundaryCountError(ValueError):
    """A responder count of 0 or n makes the group log-odds infinite."""

    def __init__(self, groups):
        self.groups = tuple(int(g) for g in groups)
        super().__init__(
            f"log-odds inestimable for group index(es) {self.groups}: "
            "responder count at 0 or n under boundary policy 'reject'"
        )


class NoInformationError(ValueError):
    """Every group responded fully, or none did; no contrast is informative."""


@dataclass(frozen=True)
class ModelFit:
    """Group log-odds estimates with their diagonal Wald covariance.

    The last axis indexes the groups.  :func:`fit_saturated_logit` returns
    the fit of one table; the simulator stacks the fits of many replicates
    along a leading axis, which the closed tests of :mod:`trendcomp.ctp`
    accept as they are.
    """

    eta: np.ndarray
    var_eta: np.ndarray
    correction_applied: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        var = np.asarray(self.var_eta, dtype=np.float64)
        corr = np.asarray(self.correction_applied, dtype=bool)
        if not (eta.shape == var.shape == corr.shape) or eta.ndim < 1:
            raise ValueError("eta, var_eta and correction_applied must share one shape")
        if not np.all(np.isfinite(eta)):
            raise ValueError("log-odds estimates must be finite")
        if not np.all(var > 0) or not np.all(np.isfinite(var)):
            raise ValueError("every log-odds variance must be finite and > 0")
        for arr in (eta, var, corr):
            arr.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "var_eta", var)
        object.__setattr__(self, "correction_applied", corr)

    @property
    def n_groups(self) -> int:
        return self.eta.shape[-1]


def _saturated_logit(y, n, boundary_policy: str):
    """The closed form over count arrays of shape (..., groups).

    Returns ``(eta, var_eta, at_boundary, no_info, refused)``: the log
    odds and their variances, the groups at 0 or n, the tables with every
    group at the same boundary, and the informative tables that policy
    ``"reject"`` refuses.  Tables of the last two kinds are masked before
    the log, so their ``eta`` and ``var_eta`` are placeholders (0 and 4).
    """
    if boundary_policy not in BOUNDARY_POLICIES:
        raise ValueError(f"unknown boundary policy {boundary_policy!r}")
    at_boundary = (y == 0) | (y == n)
    no_info = np.all(y == 0, axis=-1) | np.all(y == n, axis=-1)
    refused = (boundary_policy == "reject") & at_boundary.any(axis=-1) & ~no_info
    y = y.astype(np.float64)
    n = np.broadcast_to(n, y.shape).astype(np.float64)
    if boundary_policy == "smooth":
        y = y + 1.0
        n = n + 2.0
    else:  # haldane; the boundary tables of "reject" are masked below
        y = np.where(at_boundary, y + 0.5, y)
        n = np.where(at_boundary, n + 1.0, n)
    skip = (no_info | refused)[..., None]
    y = np.where(skip, 1.0, y)
    n = np.where(skip, 2.0, n)
    eta = np.log(y / (n - y))
    var_eta = 1.0 / y + 1.0 / (n - y)
    return eta, var_eta, at_boundary, no_info, refused


def fit_saturated_logit(data: DoseGroupData, boundary_policy: str = "haldane") -> ModelFit:
    """Fit the saturated logistic model to grouped binomial counts.

    Parameters
    ----------
    data:
        Group sizes and responder counts, control first.
    boundary_policy:
        ``"haldane"`` adds 0.5 responders and 0.5 non-responders (y+0.5,
        n+1) to any group with y of 0 or n before the closed form and flags
        it in ``correction_applied``; ``"reject"`` raises
        :class:`BoundaryCountError` instead; ``"smooth"`` adds one
        responder and one non-responder (y+1, n+2) to every group alike,
        so boundary groups need no special casing and all groups shrink
        toward even odds by the same rule.  Groups that sat at a boundary
        are still flagged in ``correction_applied``.

    Raises
    ------
    NoInformationError
        If every group has y = 0, or every group has y = n, under any
        policy: no comparison carries information.
    BoundaryCountError
        Under policy ``"reject"`` when any group count sits at 0 or n.
    """
    eta, var_eta, at_boundary, no_info, refused = _saturated_logit(
        data.y, data.n, boundary_policy
    )
    if no_info:
        raise NoInformationError(
            "all groups at the same boundary (all zero or all full): nothing to compare"
        )
    if refused:
        raise BoundaryCountError(np.flatnonzero(at_boundary))
    return ModelFit(eta=eta, var_eta=var_eta, correction_applied=at_boundary)
