"""Exact maxT p-values for contrast families with chain structure.

A family has chain structure when every row compares the control
(negative coefficient) with a non-negative weighting of dose groups, rows
whose dose supports overlap are nested with proportional weights, rows
of one support are multiples of each other, control included, and the
resulting chains have disjoint supports.  Dunnett is k chains of
length one; the Williams family, and so every segment family of the
closed test, is a single chain.

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
density of the walk is carried on Gauss-Legendre nodes below the
thresholds of levels 1 to L-2, or of level 1 alone in a walk of two or
three levels, with one Gaussian kernel between consecutive noded levels,
and a walk of three or more levels is closed with a normal CDF; so a walk
of two or three levels builds no kernel.  Every walk is integrated for a
chunk of batch entries at once: every entry's nodes on a level span the
chunk's widest range, ending at the entry's own threshold, so the
Gaussian kernel between two levels differs from entry to entry only by a
shift.  Factoring that shift out of the exponent leaves one kernel
matrix shared by the chunk and a vector of factors per entry on either
side, and each step is one matrix product.  The outer integral runs only
over the control values where some row is neither almost sure to fail
nor almost sure to hold; above that band the integrand is the normal
density alone and is integrated in closed form.

:func:`chain_structure` returns one read-only :class:`Chains` record
per family, laid out as :func:`chain_maxt` reads it; the layout is found
once per sign pattern of the coefficients.  :func:`chain_maxt` takes
the bounds of any number of tables, each with the index of its table.
Node counts stay each table's own, so a table's p-values do not depend
on the other tables of the call.  The call is one loop over passes of
whole tables, a single pass unless the call is large.  In each pass the
thresholds of every level are one array expression; then a length-one
chain is one normal CDF, and a walk is integrated table by table, as a
chunk's entries share their table's sds.

The walk densities and every transition kernel are entire functions, so
the rules converge faster than any power of the node count.  Node counts
scale with the ratio of the range to the narrowest kernel or density it
has to resolve.  Ranges are cut at ``_TAIL_SD`` standard deviations and
at ``_EPS`` probability, which drops a few times 1e-12 at most.  Doubling
every node density moves none of the p-values of the 1000 random tables
of the acceptance suite by more than 2e-12, nor any of 60 tables with k
from 7 to 12 by more than 4e-12, so the error is below 1e-9.  Very
unequal group variances make that ratio, and so the rule, huge; a rule
of more than ``_MAX_NODES`` nodes raises :class:`ContrastError` before
any array is built, and rules above 256 nodes are rounded up to powers
of sqrt(2), so a table near the cap builds a few large rules.

A family of one to three rows does not need the quadrature: it has a
closed form, :func:`trendcomp.mvn._inclusion_exclusion`, which agrees with
:func:`chain_maxt` within 5.3e-12 on 9,000 bounds of three-row stock
families, some of tables near the node cap.  So this module integrates
only families of four or more rows: Dunnett and Williams at k >= 4 and
the closed-test segments of four or more doses.  Which bounds reach it,
and how its values are checked and clipped, is the policy of
``trendcomp.contrasts._maxt_p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["ContrastError", "Chains", "chain_structure", "chain_maxt"]

# ranges end this many standard deviations out; P(Z < -7) = 1.3e-12
_TAIL_SD = 7.0
# Gauss-Legendre nodes per standard deviation of the narrowest normal CDF
# factor of a walk level, and of the narrowest row over the control
_NODES_PER_SD = 1.7
_OUTER_NODES_PER_SD = 5.0
# and per standard deviation of a normal density: a walk level's own, or
# a Gaussian kernel into or out of the level.  32 nodes over the 14 sds of
# a whole normal density integrate it to 1e-14, the 24 of 1.7 per sd to
# 3e-9; a walk of six levels at 1.7 per kernel sd is off by 1e-7
_DENSITY_NODES_PER_SD = 2.3
_MIN_NODES = 16
# largest rule built; 16 times the largest any acceptance or benchmark table needs
_MAX_NODES = 4096
# larger rules are rounded up to a power of sqrt(2): 368, 512, 728, ... 4096
_LADDER_FROM = 256
# probability below which a constraint counts as certain to fail or hold
_EPS = 1e-13
_Q_LO = float(ndtri(_EPS))
# entries of one batch-by-nodes array: a walk holds 2^14 at once, in
# about six such arrays, but at least 32 entries share each kernel
# matrix, so a rule near the cap does not rebuild it every few entries
_KERNEL_CHUNK_ENTRIES = 1 << 14
_MIN_KERNEL_CHUNK = 32
# entries, one per bound and outer node, above which chain_maxt cuts a
# call into passes: a pass takes whole tables, so it may hold more, and
# it keeps a call's working set near a single table's, a few arrays of
# one chain's levels by a pass's entries
_PASS_ENTRIES = 1 << 11
# One product with a shared kernel matrix covers at most _CHUNK_ENTRIES
# kernel entries, rows times matrix size: BLAS runs such a product on one
# thread, and a threaded one stalls while the other CPUs are busy.  200 x
# 80 by 80 x 80 took 0.3 ms on an idle 2-vCPU machine and 12 ms with one
# CPU busy, against 0.08 ms in blocks.
_CHUNK_ENTRIES = 1 << 17
# The largest exponent of a factored kernel's per-entry factors: e^400 is
# far from overflow at e^709, and where the shared kernel matrix
# underflows at e^-745 the true kernel is below e^-345.
_MAX_EXPONENT = 400.0
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
class Chains:
    """The chains of one contrast family, laid out for :func:`chain_maxt`.

    Chain i has level columns ``first[i]`` up to ``first[i + 1]``, one
    per distinct dose support of its rows, from smallest to largest.  The
    rows of one level are scalar multiples of each other, so they are one
    statistic with one threshold (Miwa, Hayter & Kuriki 2003), and
    ``level_rows[l]`` is the first row of level column l.  That row has
    control coefficient ``-control[l]`` and, on its support, ``scale[l]``
    times the dose weights of its chain's widest row.  Row l of
    ``increments`` holds the squared widest-row weights of the doses
    level column l adds to the level below, so ``increments @
    var_eta[1:]`` gives the variances of the walks' increments.  Arrays
    are read-only; records compare by value.
    """

    __eq__ = _equal_fields

    first: tuple
    level_rows: np.ndarray
    control: np.ndarray
    scale: np.ndarray
    increments: np.ndarray


def chain_structure(coefficients) -> Chains | None:
    """The chains of a contrast matrix, or None if it has no chain structure.

    Column 0 is the control.  The layout depends only on the signs of the
    coefficients (:func:`_layout`); the proportionality of each chain's
    weights, and of the whole rows that share a level, the row scales and
    the increments are computed per matrix.
    """
    C = np.asarray(coefficients, dtype=np.float64)
    layout = _layout(np.sign(C).tobytes(), C.shape)
    if layout is None:
        return None
    first, col, level_rows, widest, support, (level, dose, base) = layout
    W = C[:, 1:]
    scale = np.empty(len(C))
    for r, (top, cols) in enumerate(zip(widest, support)):
        w, v = W[r, cols], W[top, cols]
        scale[r] = w @ v / (v @ v)
        if (np.abs(w - scale[r] * v) > _PROPORTIONAL_RTOL * w).any():
            return None
    # rows sharing a level are multiples of its first row, control included
    ratio = -C[:, 0] / scale
    if (np.abs(ratio - ratio[level_rows[col]]) > _PROPORTIONAL_RTOL * ratio).any():
        return None
    increments = np.zeros((first[-1], W.shape[1]))
    increments[level, dose] = W[base, dose] ** 2
    control, scale = -C[level_rows, 0], scale[level_rows]
    control, scale, increments = (_frozen(a) for a in (control, scale, increments))
    return Chains(first, level_rows, control, scale, increments)


@lru_cache(maxsize=256)
def _layout(signs: bytes, shape: tuple) -> tuple | None:
    """The chain layout of every matrix whose coefficients have these signs.

    ``signs`` holds the bytes of ``np.sign`` of a float matrix of
    ``shape``.  Returns None when a control coefficient is not negative,
    a dose coefficient is negative or the supports do not nest into
    disjoint chains.  Otherwise returns ``first`` as in :class:`Chains`;
    each row's level column; ``level_rows`` as in :class:`Chains`; each
    row's chain's widest row and the row's support; and, as the rows of
    one array, the level column, dose column and widest row of every
    dose a level adds to the one below.  Arrays are read-only index
    arrays.
    """
    S = np.frombuffer(signs, dtype=np.float64).reshape(shape)
    if np.any(S[:, 0] >= 0.0) or np.any(S[:, 1:] < 0.0):
        return None
    supports = [frozenset(np.flatnonzero(row).tolist()) for row in S[:, 1:]]
    # Largest supports first: a row joins the one chain it overlaps, inside
    # that chain's smallest support so far, or starts a chain of its own.
    groups = []
    for r in sorted(range(len(supports)), key=lambda r: -len(supports[r])):
        hits = [g for g in groups if supports[g[0]] & supports[r]]
        if not hits:
            groups.append([r])
        elif len(hits) == 1 and supports[r] <= supports[hits[0][-1]]:
            hits[0].append(r)
        else:
            return None
    first, col, widest, added = [0], [0] * len(supports), [0] * len(supports), []
    for group in groups:
        sets = sorted({supports[r] for r in group}, key=len)
        for r in group:
            col[r], widest[r] = first[-1] + sets.index(supports[r]), group[0]
        for dose in sorted(sets[-1]):  # added by the smallest level that holds it
            lvl = next(lvl for lvl, s in enumerate(sets) if dose in s)
            added.append((first[-1] + lvl, dose, group[0]))
        first.append(first[-1] + len(sets))
    return (
        tuple(first),
        _frozen(col, np.intp),
        _frozen(np.unique(col, return_index=True)[1], np.intp),
        tuple(widest),
        tuple(_frozen(sorted(s), np.intp) for s in supports),
        _frozen(added, np.intp).reshape(-1, 3).T,
    )


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a new read-only array."""
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


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


def _nodes(n: int, lo, width):
    """Gauss-Legendre nodes and weights on [lo, lo + width], per batch entry or shared."""
    x, w = _gauss_legendre(n)
    return lo + width * x, width * w


def _chunks(order, top, reach, sigma, size):
    """Runs of ``order``, at most ``size`` entries each, that can share kernels.

    ``top`` and ``reach`` have a row of range ends and widths per noded
    level, one column per batch entry, and ``sigma`` the sd of each
    kernel between them.  A run ends before the spread of some kernel's
    offsets top_l - top_(l-1), times the widest ranges of the two levels
    it joins over sigma_l^2, exceeds ``_MAX_EXPONENT``.  Without kernels
    every run but the last is full.
    """
    start = 0
    while start < order.size:
        idx = order[start : start + size]
        if sigma.size:
            offset = np.diff(top[:, idx], axis=0)
            span = np.maximum.accumulate(offset, axis=1) - np.minimum.accumulate(offset, axis=1)
            width = np.maximum.accumulate(reach[:, idx], axis=1)
            exponent = span * (width[:-1] + width[1:]) / (sigma * sigma)[:, None]
            fits = np.all(exponent <= _MAX_EXPONENT, axis=0)
            if not fits.all():
                idx = idx[: max(1, int(np.argmin(fits)))]
        yield idx
        start += idx.size


def _kernel_step(mass, sd, n_in, r_in, n_out, r_out, offset):
    """Carry a chunk's ``mass`` through a Gaussian kernel of sd ``sd``.

    Entry b has nodes lo_b + r_in x_j on the level below, the Gauss-Legendre
    rule of ``n_in`` nodes, and lo_b + offset_b + r_out x_i on this level,
    the rule of ``n_out`` nodes, so the kernel's argument is
    offset_b + r_out x_i - r_in x_j.  Write offset_b = r + e_b and
    D_ij = r + r_out x_i - r_in x_j: the kernel factors as

        exp(-(e_b + D_ij)^2 / 2 sd^2) = exp(-D_ij^2 / 2 sd^2)
            * exp(-e_b (r + e_b / 2 + r_out x_i) / sd^2)
            * exp(e_b r_in x_j / sd^2),

    one matrix shared by the chunk and a vector of factors per entry on
    either side of it, so the step is one matrix product.  The reference
    r is the point of the offsets nearest 0, which keeps the constant
    factor exp((r^2 - offset_b^2) / 2 sd^2) at most 1; :func:`_chunks`
    keeps the others within e^+-``_MAX_EXPONENT``.  The product runs in
    blocks of rows that cover at most ``_CHUNK_ENTRIES`` kernel entries.
    Scales ``mass`` in place and returns the mass on this level's nodes,
    times their weights.
    """
    x_in = _gauss_legendre(n_in)[0]
    x_out, w_out = _gauss_legendre(n_out)
    ref = min(max(0.0, offset.min()), offset.max())
    kernel = np.subtract.outer(r_in * x_in / sd, (ref + r_out * x_out) / sd)
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel *= _INV_SQRT_2PI / sd
    e = (offset - ref)[:, None] / (sd * sd)
    mass *= np.exp(e * (r_in * x_in))
    rows = max(1, _CHUNK_ENTRIES // kernel.size)
    mass = np.concatenate([mass[i : i + rows] @ kernel for i in range(0, mass.shape[0], rows)])
    mass *= (r_out * w_out) * np.exp(-e * (0.5 * (ref + offset)[:, None] + r_out * x_out))
    return mass


def _level_rules(sigma):
    """The quadrature set-up of one walk with increment sds ``sigma``.

    Returns the variances of the levels, the ``_TAIL_SD`` sds at which
    their ranges are cut, and the nodes per unit of length that each
    noded level needs: levels 1 .. L-2, or level 1 alone in a walk of
    two or three levels.  A noded level resolves its own density and its
    own increment and the next, or the increment alone on a last level.
    The CDF factor of level 1 switches over s / a >= sigma_1, so that
    rule resolves it.
    """
    L = sigma.size
    last = max(1, L - 2)
    var = np.cumsum(sigma * sigma)
    # increments 2 .. L-2 are kernels between noded levels, the others
    # normal CDF factors
    rate = np.full(L, _NODES_PER_SD)
    rate[2 : L - 1] = _DENSITY_NODES_PER_SD
    step = rate / sigma
    per_unit = np.maximum(
        np.maximum(step[1 : last + 1], step[min(2, L - 1) : last + 2]),
        _DENSITY_NODES_PER_SD / np.sqrt(var[1 : last + 1]),
    )
    return var, _TAIL_SD * np.sqrt(var), per_unit


def _level_one(u, w, c0, var, sigma):
    """The mass of a walk on level-1 nodes ``u`` with weights ``w``.

    Given W_1 = u, W_0 is normal with mean a u and sd s, so the mass is
    the density of W_1 times P(W_0 < ``c0`` | W_1 = u), one normal CDF.
    ``var`` and ``sigma`` hold the walk's level variances and increment
    sds.
    """
    a = var[0] / var[1]
    s = sigma[0] * sigma[1] / np.sqrt(var[1])
    mass = -0.5 * u
    mass *= u
    mass /= var[1]
    np.exp(mass, out=mass)
    mass *= w
    mass *= _INV_SQRT_2PI / np.sqrt(var[1])
    mass *= _cdf(c0, a * u, s)
    return mass


def _cdf(c, x, s):
    """Phi((c - x) / s), computed in place in ``x``, which it overwrites."""
    np.subtract(c, x, out=x)
    x /= s
    return ndtr(x, out=x)


def _walk_probability(sigma, c, table) -> np.ndarray:
    """P(W_l < c_l for every level l) for walks of two or more levels.

    ``c`` has one row of thresholds per level and one column per batch
    entry.  ``sigma`` holds one row of increment sds per table, and
    ``table`` gives each entry's row; the entries of one table are
    contiguous, and each table's are integrated alone
    (:func:`_table_walk`), so no entry's value depends on the other
    tables.
    """
    # the entries of table table[i] are [i, j) for consecutive cuts i, j
    cuts = [0, *(np.flatnonzero(table[1:] != table[:-1]) + 1).tolist(), table.size]
    out = np.empty(c.shape[1])
    for i, j in zip(cuts[:-1], cuts[1:]):
        out[i:j] = _table_walk(sigma[table[i]], c[:, i:j])
    return out


def _table_walk(sigma, c) -> np.ndarray:
    """:func:`_walk_probability` for the entries of one table.

    The first level is integrated in closed form (:func:`_level_one`).
    From level 1 on the density of the walk lives on Gauss-Legendre
    nodes on levels 1 .. max(1, L-2), enough of them to resolve that
    density and the increments into and out of the level: a Gaussian
    kernel at ``_DENSITY_NODES_PER_SD`` per sd, a normal CDF factor at
    ``_NODES_PER_SD``.  A Gaussian kernel carries the mass from one noded
    level to the next, and a walk of three or more levels is closed with
    a normal CDF on the last noded level's nodes; in a walk of two levels
    level 1 is the last.

    The entries are taken in chunks of similar last thresholds.  Every
    entry of a chunk gets the chunk's widest range on each level, ending
    at its own threshold, with the nodes that range needs, so a kernel
    differs between entries only by a shift and the chunk shares one
    kernel matrix (:func:`_kernel_step`).  :func:`_chunks` ends a chunk
    before the shifts spread too far for that.
    """
    L = sigma.size
    var, spread, per_unit = _level_rules(sigma)
    last = max(1, L - 2)
    # a threshold below a level's range leaves the range empty; clipped to
    # its lower end it leaves the offsets between levels finite
    bound = spread[1 : last + 1, None]
    top = np.maximum(np.minimum(c[1 : last + 1], bound), -bound)
    reach = top + bound
    full = [_node_count(2.0 * spread[i + 1] * per_unit[i]) for i in range(last)]
    order = np.argsort(c[-1], kind="stable")
    out = np.empty(c.shape[1])
    size = max(_MIN_KERNEL_CHUNK, _KERNEL_CHUNK_ENTRIES // max(full))
    for idx in _chunks(order, top, reach, sigma[2:-1], size):
        width = reach[:, idx].max(axis=1)
        n = [_node_count(width[i] * per_unit[i]) for i in range(last)]
        # the widest range of each level, shared by the chunk
        lo = top[:, idx] - width[:, None]
        u, w = _nodes(n[0], lo[0][:, None], width[0])
        mass = _level_one(u, w, c[0, idx][:, None], var, sigma)
        for i in range(1, last):  # the kernel into level i + 1
            offset = lo[i] - lo[i - 1]
            mass = _kernel_step(mass, sigma[i + 1], n[i - 1], width[i - 1], n[i], width[i], offset)
        if L > 2:  # the closing CDF, on the last noded level's nodes
            u = _nodes(n[-1], lo[-1][:, None], width[-1])[0]
            mass *= _cdf(c[L - 1, idx][:, None], u, sigma[L - 1])
        out[idx] = np.sum(mass, axis=1)
    return out


def _node_count(nodes: float) -> int:
    """At least ``nodes`` and ``_MIN_NODES``, rounded up to a multiple of 8.

    Above ``_LADDER_FROM`` nodes the count is first rounded up to a power
    of sqrt(2).  The rounding keeps the number of distinct rules, and so
    the work of building them, small: a near-cap table builds a few large
    rules, not one per chunk.  More than ``_MAX_NODES`` raises
    :class:`ContrastError`.
    """
    if not nodes <= _MAX_NODES:
        raise ContrastError(
            f"exact integration needs a rule of {nodes:.0f} nodes, above the cap of "
            f"{_MAX_NODES}; the group variances are too unequal"
        )
    if nodes > _LADDER_FROM:
        nodes = 2.0 ** (math.ceil(2.0 * math.log2(nodes)) / 2.0)
    return 8 * max(_MIN_NODES // 8, math.ceil(nodes / 8.0))


def chain_maxt(chains, t_values, std_err, var_eta, table) -> np.ndarray:
    """maxT-adjusted one-sided p-values p_q = 1 - P(all T_j < t_q), exactly.

    ``chains`` is the family's :class:`Chains` record, as
    :attr:`~trendcomp.contrasts.ContrastMatrix.chains` holds it.
    ``t_values`` are the bounds to evaluate, one or more of them: the
    family's statistics, or only those a decision leaves open.
    ``std_err`` holds a row of m contrast standard errors per table,
    ``var_eta`` a row of the group variances they were built from, and
    ``table`` the row of each bound.  The values are the bare tails, not
    clipped into the sandwich [p_raw_q, min(1, m * p_raw_q)]: the caller,
    ``trendcomp.contrasts._maxt_p``, checks and clips them.

    Node counts are each table's own: the outer rule's comes from the
    widest outer range among the table's bounds, a walk chunk's from the
    widest range among its entries, all of one table (see
    :func:`_table_walk`).  So every p-value is bitwise the one a
    call with its table's bounds alone returns, in any order of the
    tables.  A bound given twice for one table is integrated once, at its
    first occurrence, so its copies are equal.

    The bounds are sorted by outer rule and table once.  A call of more
    than ``_PASS_ENTRIES`` entries, one per bound and outer node, is cut
    into passes of whole tables, so its working set stays near one
    table's.  In a pass, the bounds that share an outer rule form one run
    of equal node count.  The thresholds of every level column are built
    at once, then each chain's factor in chain order: a
    length-one chain is one normal CDF, a longer one a
    :func:`_walk_probability`.  Each outer rule is summed over its run.
    """
    b = np.asarray(t_values, dtype=np.float64)
    se = np.asarray(std_err, dtype=np.float64)
    v = np.asarray(var_eta, dtype=np.float64)
    m = se.shape[1]
    # the first row of each level column, whose threshold is the level's
    se = se[:, chains.level_rows]
    table = np.asarray(table)
    keys = list(zip(table.tolist(), b.tolist()))
    repeat = None
    if len(set(keys)) < len(keys):  # each (table, bound) once, at its first occurrence
        slot = {}
        repeat = np.array([slot.setdefault(key, len(slot)) for key in keys])
        once = np.unique(repeat, return_index=True)[1]
        b, table = b[once], table[once]
    # only the tables with a bound, renumbered in order
    present = np.bincount(table, minlength=len(se)) > 0
    se, v, table = se[present], v[present], (np.cumsum(present) - 1)[table]
    sd0 = np.sqrt(v[:, 0])
    first, control, scale = chains.first, chains.control, chains.scale
    sigma = np.sqrt((chains.increments * v[:, None, 1:]).sum(axis=-1))
    level_var = sigma * sigma
    for f, e in zip(first[:-1], first[1:]):
        if e - f > 1:
            level_var[:, f:e] = level_var[:, f:e].cumsum(axis=1)
    # z-scale over which level column l's constraint switches on
    level_width = scale * np.sqrt(level_var) / (control * sd0[:, None])

    # Outer range: below z_lo some level holds with probability < _EPS, so the
    # integrand is negligible; above z_hi every row holds with probability
    # > 1 - _EPS / m, so the integrand is the normal density alone.
    shift = b[:, None] * (se / (control * sd0[:, None]))[table]
    width = level_width[table]
    z_lo = (_Q_LO * width - shift).max(axis=1)
    z_hi = (-ndtri(_EPS / m) * width - shift).max(axis=1)
    z_lo = np.minimum(np.maximum(z_lo, -_TAIL_SD), _TAIL_SD)
    z_hi = np.minimum(np.maximum(z_hi, z_lo), _TAIL_SD)
    span = z_hi - z_lo
    widest = np.zeros(len(se))
    np.maximum.at(widest, table, span)
    unit = np.minimum(1.0, level_width.min(axis=1))
    n_z = np.array([_node_count(_OUTER_NODES_PER_SD * s / u) for s, u in zip(widest, unit)])

    # Bounds sorted by outer rule, then by table, so a rule's bounds and a
    # table's are consecutive.  A call of more than _PASS_ENTRIES entries,
    # one per bound and outer node, is cut into passes of whole tables: with
    # e the entries before a table, the table goes to pass e // _PASS_ENTRIES.
    order = np.lexsort((table, n_z[table]))
    nz = n_z[table[order]]
    cuts = []
    if nz.sum() > _PASS_ENTRIES:
        heads = np.flatnonzero(np.r_[True, np.diff(table[order]) != 0])
        filled = (np.cumsum(nz) - nz)[heads] // _PASS_ENTRIES
        cuts = heads[1:][filled[1:] != filled[:-1]]
    control, scale = control[:, None], scale[:, None]
    lower = ndtr(-z_hi)
    for sel, nz in zip(np.split(order, cuts), np.split(nz, cuts)):
        # the pass's runs of bounds that share an outer rule, each bound with
        # a row of entries, one per node
        starts = [0, *(np.flatnonzero(nz[1:] != nz[:-1]) + 1).tolist()]
        z, zw = [], []
        for i, j in zip(starts, [*starts[1:], sel.size]):
            gz, gw = _gauss_legendre(int(nz[i]))  # a Python int, the rule cache's key
            sp = span[sel[i:j], None]
            z.append(z_lo[sel[i:j], None] + sp * gz)
            zw.append(sp * gw * np.exp(-0.5 * z[-1] * z[-1]) * _INV_SQRT_2PI)
        tab = np.repeat(table[sel], nz)
        x = sd0[tab] * np.concatenate([a.ravel() for a in z])
        c = (np.repeat((b[sel, None] * se[table[sel]]).T, nz, axis=1) + control * x) / scale
        inside = np.ones(x.size)
        for f, e in zip(first, first[1:]):
            if e - f == 1:
                inside *= ndtr(c[f] / sigma[tab, f])
            else:
                inside *= _walk_probability(sigma[:, f:e], c[f:e], tab)
        end = 0
        for i, w in zip(starts, zw):
            w *= inside[end : end + w.size].reshape(w.shape)
            lower[sel[i : i + len(w)]] += w.sum(axis=1)
            end += w.size
    return 1.0 - lower if repeat is None else (1.0 - lower)[repeat]
