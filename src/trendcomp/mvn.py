"""Multivariate normal rectangle probabilities and maxT-adjusted p-values.

This module only evaluates.  ``trendcomp.contrasts._maxt_p`` is the one
place that composes its pieces: it picks each family's route, and it
checks and clips every value.  Three private pieces give closed forms
at a common bound t, for many tables at once.  :func:`_pair_tails`
computes the rows' tails and pair tails, the pair tails by Owen's T.
From them :func:`_bracket` brackets the maxT-adjusted p-value of any
correlation, and :func:`_inclusion_exclusion` gives the exact p-value
of one to three rows, for three rows with one Plackett integral on 64
nodes (:func:`_triple_tail`).  ``_maxt_p`` also asks it for a coarse
value, on fewer nodes, where only a decision is asked.

Any other correlation is integrated by quasi-Monte Carlo.
:func:`mvn_upper_orthant_complement` gives one tail and
:func:`adjust_maxt` a family's p-values, statistic q with child q of
``seed`` (:func:`_child_seed`).  ``_maxt_p`` seeds each bound it
integrates by the same rule, from seed 0.  ``seed``, ``abs_tol`` and
``max_points`` act only on this route.

The tail probability P(max_j T_j >= b) for T ~ N(0, R) is summed over
first passages, P(T_i >= b, T_j < b for j < i), so the rare event leads
every term and the integration samples the tail rather than the bulk.
Each term is a rectangle probability computed by randomized quasi-Monte
Carlo: the correlation matrix is factorized with variable reordering
(most restrictive variable first), the rectangle probability becomes an
integral over the unit cube via sequential conditioning, and the
integral is sampled on a root-prime lattice under a number of
independent random shifts.  The spread of the per-shift means yields the
reported error estimate; the point count grows geometrically until the
estimate meets the requested absolute tolerance.  The inner point loop
is :func:`trendcomp._genz_py.qmc_shift_means`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, owens_t

from . import _genz_py as _kernel
from .chains import _gauss_legendre

__all__ = [
    "BACKEND",
    "DEFAULT_ABS_TOL",
    "DEFAULT_MAX_POINTS",
    "CorrelationError",
    "MvnSpec",
    "TailProbability",
    "mvn_upper_orthant_complement",
    "adjust_maxt",
    "adjusted_p_below",
]

BACKEND = "python"

DEFAULT_ABS_TOL = 5e-5
DEFAULT_MAX_POINTS = 8_000_000

PSD_EIG_TOL = 1e-10

_N_SHIFTS = 12
_FIRST_NPTS = 64
_STAGE_GROWTH = 4

_SQRT_PRIMES = np.sqrt(
    np.array(
        [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
            59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
        ],
        dtype=np.float64,
    )
)
MAX_DIMENSION = _SQRT_PRIMES.size + 1

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class CorrelationError(ValueError):
    """Correlation matrix is not symmetric PSD with unit diagonal."""


@dataclass(frozen=True)
class MvnSpec:
    """A validated correlation matrix for a centered multivariate normal."""

    correlation: np.ndarray

    def __post_init__(self):
        R = np.array(self.correlation, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or R.shape[0] < 1:
            raise CorrelationError("correlation must be a square matrix of dimension >= 1")
        if not np.all(np.isfinite(R)):
            raise CorrelationError("correlation entries must be finite")
        if not np.allclose(R, R.T, atol=1e-8):
            raise CorrelationError("correlation must be symmetric")
        R = 0.5 * (R + R.T)
        if np.any(np.abs(np.diag(R) - 1.0) > 1e-8):
            raise CorrelationError("correlation diagonal must be 1")
        np.fill_diagonal(R, 1.0)
        if np.any(np.abs(R) > 1.0 + 1e-8):
            raise CorrelationError("correlation entries must lie in [-1, 1]")
        np.clip(R, -1.0, 1.0, out=R)
        if R.shape[0] > MAX_DIMENSION:
            raise CorrelationError(f"dimension {R.shape[0]} exceeds supported {MAX_DIMENSION}")
        min_eig = float(np.linalg.eigvalsh(R)[0]) if R.shape[0] > 1 else 1.0
        if min_eig < -PSD_EIG_TOL:
            raise CorrelationError(
                f"correlation is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        R.setflags(write=False)
        object.__setattr__(self, "correlation", R)

    @property
    def dimension(self) -> int:
        return self.correlation.shape[0]


@dataclass(frozen=True)
class TailProbability:
    """An integration result with its estimated absolute error."""

    value: float
    error: float
    points: int

    def __float__(self) -> float:
        return self.value


def _as_seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _child_seed(seed, q: int) -> np.random.SeedSequence:
    """Child q of ``seed``: the seed of statistic q in :func:`adjust_maxt`.

    ``contrasts._maxt_p`` seeds a bound in column q of a table's
    statistics with child q of seed 0.  The child is the q-th that
    ``spawn`` gives a fresh ``SeedSequence(seed)``, derived without
    spawning, so ``seed`` is left as it was and a repeated call repeats
    its result.
    """
    seed = _as_seed_seq(seed)
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key + (q,), pool_size=seed.pool_size
    )


def _clip_to_psd(R: np.ndarray) -> np.ndarray:
    """Clip slightly negative eigenvalues to 0 and restore a unit diagonal."""
    w, V = np.linalg.eigh(R)
    if w[0] >= 0.0:
        return R
    w = np.clip(w, 0.0, None)
    R2 = (V * w) @ V.T
    d = np.sqrt(np.clip(np.diag(R2), 1e-300, None))
    R2 = R2 / np.outer(d, d)
    R2 = 0.5 * (R2 + R2.T)
    np.fill_diagonal(R2, 1.0)
    return R2


def _reorder_cholesky(R: np.ndarray, upper: np.ndarray):
    """Cholesky factor with variable prioritization.

    At each stage the remaining variable with the smallest conditional
    cumulative probability is pivoted next, which concentrates the
    integrand's variation in the outer integration variables.  Pivots that
    are numerically zero (rank-deficient correlation) produce a zero row
    and are resolved by an indicator inside the integrand.
    """
    m = upper.size
    C = np.array(R, dtype=np.float64)
    b = np.array(upper, dtype=np.float64)
    L = np.zeros((m, m))
    y = np.zeros(m)
    for i in range(m):
        best, best_val = i, np.inf
        for j in range(i, m):
            cjj = C[j, j] - float(L[j, :i] @ L[j, :i])
            num = b[j] - float(L[j, :i] @ y[:i])
            if cjj > 1e-12:
                val = float(ndtr(num / math.sqrt(cjj)))
            else:
                val = 1.0 if num >= 0.0 else 0.0
            if val < best_val:
                best, best_val = j, val
        if best != i:
            C[[i, best]] = C[[best, i]]
            C[:, [i, best]] = C[:, [best, i]]
            b[[i, best]] = b[[best, i]]
            L[[i, best], :i] = L[[best, i], :i]
        cii = C[i, i] - float(L[i, :i] @ L[i, :i])
        if cii > 1e-12:
            lii = math.sqrt(cii)
            L[i, i] = lii
            for j in range(i + 1, m):
                L[j, i] = (C[j, i] - float(L[j, :i] @ L[i, :i])) / lii
            e_i = (b[i] - float(L[i, :i] @ y[:i])) / lii
            # conditional mean of a standard normal truncated to (-inf, e_i)
            if e_i > -8.0:
                y[i] = -math.exp(-0.5 * e_i * e_i) * _INV_SQRT_2PI / max(float(ndtr(e_i)), 1e-300)
            else:
                y[i] = e_i - 1.0 / e_i
        # zero pivot: leave the row at zero, variable becomes an indicator
    return np.ascontiguousarray(L), b


def _lower_orthant(
    corr: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
    abs_tol: float,
    max_points: int,
):
    """P(T_1 < upper_1, ..., T_m < upper_m) with error estimate."""
    m = upper.size
    if m == 1:
        return float(ndtr(upper[0])), 0.0, 0
    R = corr
    if float(np.linalg.eigvalsh(R)[0]) < 0.0:
        R = _clip_to_psd(R)
    L, b = _reorder_cholesky(R, upper)
    sqp = np.ascontiguousarray(_SQRT_PRIMES[: m - 1])
    npts = _FIRST_NPTS
    used = 0
    while True:
        shifts = rng.random((_N_SHIFTS, m - 1))
        means = _kernel.qmc_shift_means(L, b, sqp, shifts, npts)
        est = float(means.mean())
        err = 3.0 * float(means.std(ddof=1)) / math.sqrt(_N_SHIFTS)
        used += _N_SHIFTS * npts
        if err <= abs_tol or used + _N_SHIFTS * npts * _STAGE_GROWTH > max_points:
            return min(max(est, 0.0), 1.0), err, used
        npts *= _STAGE_GROWTH


def _upper_tail(corr: np.ndarray, bound: float, rng, abs_tol: float, max_points: int):
    """P(max_j T_j >= bound) as a sum of first passages, with error and points.

    Term i is P(T_i >= bound, T_j < bound for j < i), a lower orthant once
    T_i is negated; each term gets an equal share of ``abs_tol``.
    """
    m = corr.shape[0]
    value = error = 0.0
    used = 0
    for i in range(m):
        sign = np.ones(i + 1)
        sign[-1] = -1.0
        v, e, n = _lower_orthant(
            corr[: i + 1, : i + 1] * np.outer(sign, sign),
            bound * sign,
            rng,
            abs_tol / m,
            max_points,
        )
        value += v
        error += e
        used += n
    return value, error, used


def mvn_upper_orthant_complement(
    spec: MvnSpec,
    bound: float,
    *,
    seed=0,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> TailProbability:
    """1 - P(T_1 < bound, ..., T_m < bound) for T ~ N(0, R).

    Deterministic for a fixed ``seed``; the returned error estimate sums
    the three-standard-error bounds of the first-passage terms (0 for the
    exact one-dimensional case).  The value is clipped into its exact
    envelope [p1, min(1, m * p1)], where p1 is the single-variable tail,
    so the one-variable lower bound and the Bonferroni upper bound hold by
    construction.
    """
    bound = float(bound)
    if not math.isfinite(bound):
        raise ValueError("bound must be finite")
    rng = np.random.default_rng(_as_seed_seq(seed))
    value, err, used = _upper_tail(spec.correlation, bound, rng, abs_tol, max_points)
    p1 = float(ndtr(-bound))
    tail = min(max(value, p1), 1.0, spec.dimension * p1)
    return TailProbability(value=tail, error=err, points=used)


def adjust_maxt(
    t_values,
    spec: MvnSpec,
    *,
    seed=0,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> np.ndarray:
    """maxT-adjusted one-sided p-values: p_q = 1 - P(all T_j < t_q).

    Statistic q is integrated by :func:`mvn_upper_orthant_complement` with
    child q of ``seed`` (:func:`_child_seed`), so equal seeds give equal
    p-values.  That function clips each value into its exact sandwich
    [p_raw_q, min(1, m * p_raw_q)], which guards the integration noise and
    makes the single-statistic case collapse to the raw normal tail.
    """
    t = np.asarray(t_values, dtype=np.float64)
    if t.ndim != 1 or t.size != spec.dimension:
        raise ValueError("t_values length must equal the correlation dimension")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_values must be finite")
    tails = [
        mvn_upper_orthant_complement(
            spec, b, seed=_child_seed(seed, q), abs_tol=abs_tol, max_points=max_points
        )
        for q, b in enumerate(t)
    ]
    return np.array([tail.value for tail in tails])


@lru_cache(maxsize=MAX_DIMENSION)
def _pairs(m: int) -> tuple:
    """The row pairs of :func:`_pair_tails` and :func:`_bracket` for m rows, read-only.

    Returns ``(i, j, stars, path)``: the pairs i < j in ``np.triu_indices``
    order, the m - 1 pairs of the star about each row, one row of
    ``stars`` per row in ascending order, and the mask of the path
    through the rows in order.
    """
    i, j = np.triu_indices(m, 1)
    rows = np.arange(m)[:, None]
    stars = ((i == rows) | (j == rows)).nonzero()[1].reshape(m, m - 1)
    path = j == i + 1
    for a in (i, j, stars, path):
        a.setflags(write=False)
    return i, j, stars, path


# row q: the pairs of _triple_tail's c, a and b when c is pair q, in _pairs order
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
_ROTATIONS.setflags(write=False)


def _triple_tail(t, rho, p_raw, pair, nodes=64) -> np.ndarray:
    """P(T_1 >= t, T_2 >= t, T_3 >= t) for three rows, shaped like ``t``.

    ``rho`` holds each table's three correlations in :func:`_pairs`
    order and ``pair`` the pair tails of :func:`_pair_tails`.  By
    symmetry the tail is the trivariate CDF at h = -t, reduced to one
    integral over a correlation path (Plackett 1954, Biometrika 41:351,
    as Genz 2004, Stat. Comput. 14:251, uses it).  The pivot row is the
    one opposite the correlation c of largest magnitude; its
    correlations a, b with the other two rows shrink to s a, s b, so at
    s = 0 the tail is p_raw times the pair tail at c, and along the path
    its slope is a phi2(h, h; s a) Phi(u_b(s)) + (the same, a and b
    swapped).  Here phi2 is the bivariate normal density and u_b the
    bound of the third row given the other two at h, standardized; its
    conditional variance carries det R(s) = (1 - c^2)(1 - s^2) + s^2 det R,
    which vanishes only for |c| = 1, where u_b is +-inf or, at a zero
    numerator, 0.

    Each term is integrated over its own angle, s a = sin(theta), which
    cancels phi2's factor 1 / sqrt(1 - s^2 a^2) exactly, and theta =
    asin(a) (1 - (1 - x)^2) puts the nodes close to s = 1, where the term
    varies on the scale of 1 - |a| and det R.  A rule over s itself,
    s = 1 - (1 - x)^2, misses that scale: at 64 nodes it was off by 2e-9
    once two correlations came within 1e-3 of 1, and by 1.5e-5 within
    1e-7.  The rule has ``nodes`` nodes over the angles, 64 for every
    exact value.  Against 512 nodes, 64 are within 2.2e-16 on 30,000
    Dunnett bounds and within 4.4e-13 on 30,000 Williams ones, with group
    variances 1 / (n p (1 - p)), n in 2-5000, each times e^Z for a normal
    Z of sd 2, and det R down to 6e-19.  Steep spots remain near det R =
    0: with group variances e^Z for Z of sd 4, Williams bounds were up to
    1e-9 off, Dunnett bounds within 2.2e-16.  At correlations
    (0.99958813, 0.99926813, 0.99995402) and t = 1.532 (det R = 6.4e-10),
    64 nodes are 1.4e-13 off and 128 nodes 2.8e-17.  ``contrasts._maxt_p``
    asks for fewer nodes for a coarse value, and states their error.
    """
    tables = np.arange(rho.shape[0])
    q = np.argmax(np.abs(rho), axis=-1)
    # C order here keeps the arrays below in C order; strided, they made a
    # call of eight bounds about 20% slower
    cab = np.ascontiguousarray(rho[tables[:, None], _ROTATIONS[q]].T)[..., None, None]
    c, a, b = cab
    det = np.maximum((1.0 - c) * (1.0 + c - 2.0 * a * b) - (a - b) ** 2, 0.0)
    # both terms at once, along a leading axis: (a, b) and (b, a)
    a, b = cab[1:], cab[:0:-1]
    x, w = _gauss_legendre(nodes)
    # theta = top - d; its sine and cosine, 1 + sin(theta) and 1 - s are
    # formed from d, free of cancellation where |a| is near 1
    top = np.arcsin(a)
    d = top * (1.0 - x) ** 2
    sin_half, cos_half = np.sin(0.5 * d), np.cos(0.5 * d)
    sin_d = 2.0 * sin_half * cos_half
    cos_top = np.sqrt((1.0 - a) * (1.0 + a))
    cos_theta = cos_top * (1.0 - 2.0 * sin_half**2) + a * sin_d
    one_plus = (1.0 + a) - 2.0 * a * sin_half**2 - cos_top * sin_d
    sine_gap = 2.0 * (cos_top * cos_half + a * sin_half) * sin_half  # a - sin(theta)
    gap = np.divide(sine_gap, a, out=np.zeros_like(d), where=a != 0.0)
    s = 1.0 - gap
    root = np.sqrt((1.0 - c) * (1.0 + c) * gap * (1.0 + s) + s * s * det)
    h = -t[..., None]
    num = h * ((1.0 - c) + s * (a - b)) * (cos_theta / one_plus)
    u = np.where(num == 0.0, 0.0, np.copysign(np.inf, num))
    np.divide(num, root, out=u, where=root > 0.0)
    weight = top * ((1.0 - x) * w / math.pi)
    # each term summed over its own nodes, the last axis, so a table's
    # floats do not depend on the tables it is batched with
    first, second = np.sum(np.exp(-h * h / one_plus) * ndtr(u) * weight, axis=-1)
    start = p_raw * pair[tables, :, q]
    return start + first + second


def _pair_tails(t, correlation) -> tuple:
    """``(t, m, p_raw, rho, pair)``, which :func:`_bracket` and :func:`_inclusion_exclusion` read.

    At a common bound t every row has the tail p_raw = Phi(-t), and rows
    i, j with correlation rho have the pair tail P(T_i > t, T_j > t) =
    Phi(-t) - 2 T(t, sqrt((1 - rho) / (1 + rho))), T being Owen's T,
    whose slope is infinite at rho = -1; clamped at 0, in :func:`_pairs`
    order along the last axis.
    """
    t = np.asarray(t, dtype=np.float64)
    R = np.asarray(correlation, dtype=np.float64)
    m = R.shape[-1]
    i, j = _pairs(m)[:2]
    rho = R[:, i, j]
    p_raw = ndtr(-t)
    ratio = np.divide(1.0 - rho, 1.0 + rho, out=np.full_like(rho, np.inf), where=rho > -1.0)
    slope = np.sqrt(ratio)[:, None, :]
    pair = np.maximum(p_raw[..., None] - 2.0 * owens_t(t[..., None], slope), 0.0)
    return t, m, p_raw, rho, pair


def _inclusion_exclusion(m, t, p_raw, rho, pair, nodes=64) -> np.ndarray:
    """Exact maxT-adjusted p-values of one to three rows, from the output of :func:`_pair_tails`.

    By inclusion-exclusion the value is S1 - S2 with two rows and S1 -
    S2 + S3 with three, S1 summing the rows' tails, S2 their pair tails
    and S3 the triple tail of :func:`_triple_tail` on ``nodes`` nodes.  ``tests/test_mvn.py``
    holds three rows to nested ``quad`` oracles within 1e-12 and to the
    arcsine formula at t = 0 within 1e-15, at correlations of +-1 too.
    ``contrasts._maxt_p``, the one caller, sends no family of more than
    three rows here.
    """
    triple = _triple_tail(t, rho, p_raw, pair, nodes) if m == 3 else 0.0
    return m * p_raw - pair.sum(axis=-1) + triple


def _bracket(m, p_raw, pair) -> tuple:
    """Lower and upper bounds on maxT-adjusted p-values, from the output of :func:`_pair_tails`.

    Returns ``(lower, upper)``, each shaped like ``p_raw``, with lower <=
    P(max_j T_j >= t) <= upper exactly, for any correlation.  S1 sums the
    rows' tails and S2 their pair tails.  The upper bound is S1 minus the
    pair tails along a spanning tree (Hunter 1976, J. Appl. Prob.
    13:597), the heavier of two: the star about the best centre and the
    path through the rows in order.  The lower bound is the larger of
    p_raw and that of Dawson & Sankoff (1967, JASA 62:823), 2 S1 / (k +
    1) - 2 S2 / (k (k + 1)) with k = 1 + floor(2 S2 / S1).  With two rows
    the upper bound is the exact S1 - S2.
    """
    s1 = m * p_raw
    s2 = pair.sum(axis=-1)
    _, _, stars, path = _pairs(m)
    star = pair[..., stars].sum(axis=-1).max(axis=-1)
    path = pair[..., path].sum(axis=-1)
    upper = s1 - np.maximum(star, path)
    k = 1.0 + np.floor(np.divide(2.0 * s2, s1, out=np.zeros_like(s1), where=s1 > 0.0))
    lower = np.maximum(p_raw, 2.0 * s1 / (k + 1.0) - 2.0 * s2 / (k * (k + 1.0)))
    return lower, upper


def adjusted_p_below(
    spec: MvnSpec,
    bound: float,
    alpha: float,
    *,
    seed=0,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> bool:
    """Decide whether the maxT-adjusted p-value at ``bound`` is below alpha.

    Uses the exact sandwich p_raw <= p_adj <= m * p_raw to settle the
    decision without integration whenever the bound alone decides it;
    identical to thresholding :func:`adjust_maxt` output at alpha.
    """
    p_raw = float(ndtr(-bound))
    if p_raw >= alpha:
        return False
    if spec.dimension * p_raw < alpha:
        return True
    tail = mvn_upper_orthant_complement(
        spec, bound, seed=seed, abs_tol=abs_tol, max_points=max_points
    )
    return tail.value < alpha
