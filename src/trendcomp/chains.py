"""Exact maxT p-values for contrast families with chain structure.

A family has chain structure when every row compares the control
(negative coefficient) with a non-negative weighting of dose groups, rows
whose dose supports overlap are nested with proportional weights, and
the resulting chains have disjoint supports.  Dunnett is k chains of
length one; the Williams family and every zero-padded segment family of
the closed test are a single chain.

Write X_j for the centered group log-odds estimates, independent with
variances v_j.  Given the control term X_0 = x the chains are
independent, and the weighted dose sums W_1 < W_2 < ... of one chain are
the partial sums of independent normal increments, a Gaussian random
walk.  Each row bounds one partial sum from above by a threshold linear
in x, so

    P(all T_q < b) = E_x[ prod over chains P(W_l < c_l(x) for every level l) ],

a one-dimensional outer integral of a product of walk probabilities.  A
walk of length one is a normal CDF; longer walks are integrated level by
level (Genz & Bretz 2009, LNS 195; Miwa, Hayter & Kuriki 2003, JRSS-B
65:223).  The first level needs no nodes: given W_1, W_0 is normal, so
level 1 carries the density of W_1 times one normal CDF.  From there the
density of the walk is carried on Gauss-Legendre nodes below each level's
threshold, one kernel between consecutive levels, and the last level is
closed with a normal CDF; a walk of two or three levels builds no kernel.
The outer integral runs only over the control values where some row is
neither almost sure to fail nor almost sure to hold; above that band the
integrand is the normal density alone and is integrated in closed form.

The walk densities and every transition kernel are entire functions, so
the rules converge faster than any power of the node count.  Node counts
scale with the ratio of the range to the narrowest kernel or density it
has to resolve.  Ranges are cut at ``_TAIL_SD`` standard deviations and
at ``_EPS`` probability, which drops a few times 1e-12 at most.  Doubling
every node count moves none of the 12196 p-values of the 1000 random
tables of the acceptance suite by more than 1e-10, nor any of 60 tables
with k from 7 to 12, so the error is below 1e-9.  Very unequal group
variances make that ratio, and so the rule, huge; a rule of more than
``_MAX_NODES`` nodes raises :class:`ContrastError` before any array is
built.

A caller that only needs to compare p with a level can first bracket it
with :func:`trendcomp.mvn.maxt_bounds`, which needs the rows'
correlation only, not their chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["ContrastError", "Chain", "chain_structure", "chain_maxt"]

# ranges end this many standard deviations out; P(Z < -7) = 1.3e-12
_TAIL_SD = 7.0
# Gauss-Legendre nodes per standard deviation of the narrowest kernel,
# for the walk levels and for the outer integral over the control
_NODES_PER_SD = 1.7
_OUTER_NODES_PER_SD = 5.0
# and per standard deviation of a walk level's own density, which sets the
# rule where every kernel is about as wide: 32 nodes over the 14 sds of a
# whole normal density integrate it to 1e-14, the 24 of 1.7 per sd to 3e-9
_DENSITY_NODES_PER_SD = 2.3
_MIN_NODES = 16
# largest rule built; 16 times the largest any acceptance or benchmark table needs
_MAX_NODES = 4096
# probability below which a constraint counts as certain to fail or hold
_EPS = 1e-13
_Q_LO = float(ndtri(_EPS))
# kernel entries held at once; bounds the working set to a few MB
_CHUNK_ENTRIES = 1 << 17
_PROPORTIONAL_RTOL = 1e-9
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ContrastError(ValueError):
    """A contrast matrix or its sampling moments are unusable.

    The quadrature here raises it for a rule above the node cap.
    :mod:`trendcomp.contrasts` imports this module and re-exports the class.
    """


def _equal_fields(a, b):
    """Dataclass equality over the fields that compare, arrays by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    )


@dataclass(frozen=True)
class Chain:
    """Rows of one chain: nested dose supports, proportional weights.

    ``levels`` holds the distinct supports from smallest to largest as
    tuples of dose columns.  Row ``rows[i]`` has control coefficient
    ``-row_control[i]`` and sits on level ``row_level[i]``; on that
    level's support its dose weights are ``row_scale[i]`` times those of
    the chain's widest row.  Row l of ``increments`` holds the squared
    widest-row weights of the doses that level l adds to the level below,
    and 0 elsewhere, so ``increments @ var_eta[1:]`` gives the variances
    of the walk's increments.  Chains compare by value.
    """

    __eq__ = _equal_fields

    rows: tuple
    levels: tuple
    increments: np.ndarray
    row_control: tuple
    row_level: tuple
    row_scale: tuple


def chain_structure(coefficients) -> tuple | None:
    """The chains of a contrast matrix, or None if it has no chain structure.

    Column 0 is the control.  Decided from the coefficients alone.
    """
    C = np.asarray(coefficients, dtype=np.float64)
    if np.any(C[:, 0] >= 0.0) or np.any(C[:, 1:] < 0.0):
        return None
    W = C[:, 1:]
    supports = [frozenset(np.flatnonzero(row).tolist()) for row in W]
    # Largest supports first: a row joins the one chain it overlaps, inside
    # that chain's smallest support so far, or starts a chain of its own.
    groups = []
    for r in sorted(range(len(W)), key=lambda r: -len(supports[r])):
        hits = [g for g in groups if supports[g[0]] & supports[r]]
        if not hits:
            groups.append([r])
        elif len(hits) == 1 and supports[r] <= supports[hits[0][-1]]:
            hits[0].append(r)
        else:
            return None
    chains = []
    for group in groups:
        base = W[group[0]]
        levels = sorted({supports[r] for r in group}, key=len)
        increments = np.zeros((len(levels), W.shape[1]))
        for lvl, (below, cols) in enumerate(zip([frozenset(), *levels], levels)):
            new = sorted(cols - below)
            increments[lvl, new] = base[new] ** 2
        increments.setflags(write=False)
        row_scale = []
        for r in group:
            cols = sorted(supports[r])
            scale = float(W[r, cols] @ base[cols] / (base[cols] @ base[cols]))
            if np.any(np.abs(W[r, cols] - scale * base[cols]) > _PROPORTIONAL_RTOL * W[r, cols]):
                return None
            row_scale.append(scale)
        chains.append(
            Chain(
                rows=tuple(group),
                levels=tuple(tuple(sorted(s)) for s in levels),
                increments=increments,
                row_control=tuple(float(-C[r, 0]) for r in group),
                row_level=tuple(levels.index(supports[r]) for r in group),
                row_scale=tuple(row_scale),
            )
        )
    return tuple(chains)


@lru_cache(maxsize=128)
def _gauss_legendre(n: int):
    """Nodes on [0, 1] and weights summing to 1, read-only, for even ``n``.

    Newton's method on the Legendre recurrence from Tricomi's estimates of
    the positive roots, mirrored for the negative ones: O(n^2) work, where
    the eigenvalue route of ``numpy.polynomial.legendre.leggauss`` is
    O(n^3) and takes seconds for a rule near the cap.  Newton stops once
    no root moves by 1e-15, after three or four steps for n from 16 to 4096.
    """
    k = np.arange(n // 2, 0, -1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        slope = n * (p_prev - x * p) / (1.0 - x * x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    half = 1.0 / ((1.0 - x * x) * slope * slope)
    x = 0.5 * (1.0 + np.concatenate([-x[::-1], x]))
    w = np.concatenate([half[::-1], half])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _nodes(n: int, lo: float, hi: np.ndarray):
    """Gauss-Legendre nodes and weights on [lo, hi_b] for each batch entry."""
    x, w = _gauss_legendre(n)
    width = np.maximum(hi - lo, 0.0)[:, None]
    return lo + width * x, width * w


def _walk_probability(sigma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P(W_l < c_l for every level l) for a walk with increment sds ``sigma``.

    ``c`` has one row of thresholds per level and one column per batch
    entry.  The first level is integrated in closed form: given W_1 = u,
    W_0 is normal with mean a u and sd s, so level 1 carries the density
    of W_1 times P(W_0 < c_0 | W_1 = u), one normal CDF.  From level 1 on
    the density of the walk lives on Gauss-Legendre nodes between
    ``-_TAIL_SD`` standard deviations and the level's threshold, enough
    of them to resolve that density and the narrower of the kernels into
    and out of the level.  The last level is closed with a normal CDF;
    in a walk of two levels it is level 1 itself.  Batch entries are
    taken in chunks of similar thresholds, and each chunk gets the nodes
    its widest range needs.
    """
    L = sigma.size
    if L == 1:
        return ndtr(c[0] / sigma[0])
    var = np.cumsum(sigma * sigma)
    spread = _TAIL_SD * np.sqrt(var)
    # Levels 1 .. last carry nodes, each enough to resolve its own density
    # and its own increment and the next, or the increment alone on a last
    # level.  The CDF factor of level 1 switches over s / a >= sigma_1, so
    # that rule resolves it.
    last = max(1, L - 2)
    per_unit = np.maximum(
        _NODES_PER_SD / np.minimum(sigma[1:], np.append(sigma[2:], sigma[-1])),
        _DENSITY_NODES_PER_SD / np.sqrt(var[1:]),
    )[:last]
    top = np.minimum(c[1 : last + 1], spread[1 : last + 1, None])
    full = [_node_count(2.0 * spread[i + 1] * per_unit[i]) for i in range(last)]
    chunk = max(1, _CHUNK_ENTRIES // max(p * q for p, q in zip(full, full[1:] + [1])))
    a = var[0] / var[1]
    s = sigma[0] * sigma[1] / math.sqrt(var[1])
    order = np.argsort(c[-1], kind="stable")
    out = np.empty(c.shape[1])
    for start in range(0, order.size, chunk):
        idx = order[start : start + chunk]
        hi = top[:, idx]
        n = [_node_count((hi[i].max() + spread[i + 1]) * per_unit[i]) for i in range(last)]
        u, w = _nodes(n[0], -spread[1], hi[0])
        mass = w * np.exp(-0.5 * u * u / var[1]) * (_INV_SQRT_2PI / math.sqrt(var[1]))
        mass *= ndtr((c[0, idx][:, None] - a * u) / s)
        for lvl in range(2, L - 1):
            u_next, w_next = _nodes(n[lvl - 1], -spread[lvl], hi[lvl - 1])
            # transition kernel exp(-d^2 / 2 sigma^2), built in place
            scale = 1.0 / (math.sqrt(2.0) * sigma[lvl])
            d = np.subtract((u_next * scale)[:, :, None], (u * scale)[:, None, :])
            np.square(d, out=d)
            np.negative(d, out=d)
            np.exp(d, out=d)
            mass = w_next * np.matmul(d, mass[:, :, None])[:, :, 0]
            mass *= _INV_SQRT_2PI / sigma[lvl]
            u = u_next
        if L > 2:
            mass *= ndtr((c[L - 1, idx][:, None] - u) / sigma[L - 1])
        out[idx] = np.sum(mass, axis=1)
    return out


def _node_count(nodes: float) -> int:
    """At least ``nodes`` and ``_MIN_NODES``, rounded up to a multiple of 8.

    The rounding keeps the number of distinct rules, and so the work of
    building them, small.  More than ``_MAX_NODES`` raises
    :class:`ContrastError`.
    """
    if not nodes <= _MAX_NODES:
        raise ContrastError(
            f"exact integration needs a rule of {nodes:.0f} nodes, above the cap of "
            f"{_MAX_NODES}; the group variances are too unequal"
        )
    return 8 * max(_MIN_NODES // 8, math.ceil(nodes / 8.0))


def chain_maxt(chains, t_values, std_err, var_eta) -> np.ndarray:
    """maxT-adjusted one-sided p-values p_q = 1 - P(all T_j < t_q), exactly.

    ``chains`` are the family's
    :attr:`~trendcomp.contrasts.ContrastMatrix.chains`; ``std_err`` are
    the m contrast standard errors and ``var_eta`` the group variances
    they were built from.  ``t_values``
    are the bounds to evaluate, any number of them: the family's
    statistics, or only those a decision leaves open.  As on the QMC
    route each value is clipped into [p_raw_q, min(1, m * p_raw_q)], and a
    single contrast returns its raw normal tail.
    """
    t = np.asarray(t_values, dtype=np.float64)
    se = np.asarray(std_err, dtype=np.float64)
    v = np.asarray(var_eta, dtype=np.float64)
    m = se.size
    p_raw = ndtr(-t)
    if m == 1:
        return p_raw.copy()
    sd0 = math.sqrt(v[0])
    alpha = np.empty(m)  # minus the control coefficient of each row

    walks = []
    row_width = np.empty(m)  # z-scale over which row r's constraint switches on
    for chain in chains:
        sigma = np.sqrt(chain.increments @ v[1:])
        level_sd = np.sqrt(np.cumsum(sigma * sigma))
        for r, a, lvl, s in zip(chain.rows, chain.row_control, chain.row_level, chain.row_scale):
            alpha[r] = a
            row_width[r] = s * level_sd[lvl] / (a * sd0)
        walks.append((chain, sigma))

    # Outer range: below z_lo some row holds with probability < _EPS, so the
    # integrand is negligible; above z_hi every row holds with probability
    # > 1 - _EPS / m, so the integrand is the normal density alone.
    shift = se / (alpha * sd0)
    z_lo = np.max(_Q_LO * row_width - np.outer(t, shift), axis=1)
    z_hi = np.max(-ndtri(_EPS / m) * row_width - np.outer(t, shift), axis=1)
    z_lo = np.clip(z_lo, -_TAIL_SD, _TAIL_SD)
    z_hi = np.clip(z_hi, z_lo, _TAIL_SD)
    width = min(1.0, float(row_width.min()))
    n_z = _node_count(_OUTER_NODES_PER_SD * float(np.max(z_hi - z_lo)) / width)
    gz, gw = _gauss_legendre(n_z)
    z = z_lo[:, None] + (z_hi - z_lo)[:, None] * gz
    zw = (z_hi - z_lo)[:, None] * gw * np.exp(-0.5 * z * z) * _INV_SQRT_2PI
    # batch: one entry per (bound, outer node)
    b = np.repeat(t, n_z)
    x = sd0 * z.ravel()
    inside = np.ones(b.size)
    for chain, sigma in walks:
        c = np.full((sigma.size, b.size), np.inf)
        for r, lvl, s in zip(chain.rows, chain.row_level, chain.row_scale):
            c[lvl] = np.minimum(c[lvl], (b * se[r] + alpha[r] * x) / s)
        inside *= _walk_probability(sigma, c)
    lower = ndtr(-z_hi) + (inside.reshape(t.size, n_z) * zw).sum(axis=1)
    return np.clip(1.0 - lower, p_raw, np.minimum(1.0, m * p_raw))
