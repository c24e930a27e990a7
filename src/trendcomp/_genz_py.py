"""Lattice-rule integration kernel of the quasi-Monte Carlo route.

Evaluates the sequential-conditioning integrand of a rectangle
probability on shifted root-prime lattices, vectorized over the lattice
points.  Only custom contrast families reach it; the stock families are
integrated exactly by :mod:`trendcomp.chains`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

ARG_LO = 1e-15
ARG_HI = 1.0 - 1e-15


def qmc_shift_means(
    chol: np.ndarray,
    upper: np.ndarray,
    sqrt_primes: np.ndarray,
    shifts: np.ndarray,
    npts: int,
) -> np.ndarray:
    """Per-shift means of the sequential-conditioning integrand.

    ``chol`` is the (possibly rank-deficient) lower Cholesky factor of the
    correlation matrix after variable reordering, ``upper`` the matching
    one-sided upper limits.  Each of the ``shifts`` rows offsets the
    root-prime lattice; the return value holds one integrand mean per shift.
    """
    m = upper.shape[0]
    ns = shifts.shape[0]
    j = np.arange(1.0, npts + 1.0)[:, None]
    if chol[0, 0] > 0.0:
        e_first = float(ndtr(upper[0] / chol[0, 0]))
    else:
        e_first = 1.0 if upper[0] >= 0.0 else 0.0
    out = np.empty(ns)
    yvals = np.empty((npts, m - 1))
    for s in range(ns):
        u = np.abs(2.0 * np.mod(j * sqrt_primes + shifts[s], 1.0) - 1.0)
        f = np.full(npts, e_first)
        e_prev = np.full(npts, e_first)
        for i in range(1, m):
            arg = np.clip(u[:, i - 1] * e_prev, ARG_LO, ARG_HI)
            yvals[:, i - 1] = ndtri(arg)
            acc = np.zeros(npts)
            for l in range(i):
                acc += chol[i, l] * yvals[:, l]
            if chol[i, i] > 0.0:
                e_prev = ndtr((upper[i] - acc) / chol[i, i])
            else:
                e_prev = (upper[i] >= acc).astype(np.float64)
            f = f * e_prev
        out[s] = f.mean()
    return out
