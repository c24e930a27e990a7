"""Monte Carlo estimation of per-pair power, any-pair power and FWER.

Each replicate draws independent binomial counts from its own seeded
generator (:func:`_draw`).  A chunk of replicates is then fitted by the
closed form of :mod:`trendcomp.model` and decided at once by
:func:`_decide`, one row per replicate, through
``trendcomp.ctp._procedures``, the one composition of the four
procedures, which :func:`trendcomp.ctp.closed_analysis` calls on one
table.  No correlation is formed here: ``_maxt_p`` forms that of each
bound its sandwich leaves open.  Decisions, not p-values, are
accumulated: every maxT p is asked for in the window [alpha, alpha], so
each value is below alpha exactly when the p-value of
``closed_analysis`` on the same table is, a coarse value settling a
bound only as far from alpha as ``_maxt_p`` requires.
The Dunnett and global Williams families are decided over the whole
chunk by one call, so at k = 3 their three-row bounds share one set of
pair tails, one bracket and one coarse Plackett integral, and the few
whose coarse value lies near alpha share one 64-node integral; each
lower segment takes one call with one bound per table, but for segment
{0, 1}, read from the pairwise p of dose 1.  The stages (sandwich,
second-order bracket, coarse value, exact value) are those of
``_maxt_p``, whose docstring states them; each table's p-values are the
ones a call on that table and family alone returns.  How many bounds
the sandwich settled, how many the bracket, a coarse value or a closed
form ("by closed form or second-order bounds"), and how many were
integrated is counted per scenario and reported on stderr, not in
:meth:`ScenarioResult.to_dict`.

The default boundary policy here is ``smooth`` (one pseudo-responder
and one pseudo-non-responder added to every group), not the analysis
default ``haldane``.  At the small response rates where power studies
operate, zero counts are routine, and a correction applied only to the
affected groups hands those replicates an outsized log-odds shift that
inflates every rejection rate; smoothing all groups by the same rule
keeps boundary replicates comparable with interior ones.

Reproducibility contract: replicate ``rep`` draws its table from the
generator of ``SeedSequence(seed, spawn_key=(rep, 0))``, which depends on
(scenario seed, replicate index) alone; every row of a chunk is computed
with the same floats whatever rows share its chunk; and results reduce
by integer count accumulation.  So output is bit-identical for any
parallelism level and any chunking of the replicate range.  A chunk is
drawn in whole-array passes that reproduce NumPy's arithmetic exactly:
:func:`_states` runs the ``SeedSequence`` hash over all its replicate
indices in three passes, :func:`_pcg64_doubles` jumps every replicate's
``PCG64`` from its seed to each state it draws from in one pass of
128-bit products held as uint64 words, and each group's count is
NumPy's inversion of one double, read off thresholds that
:func:`_inversion` computes once per (n, p).  Only a design with a group
NumPy draws by BTPE (n * min(p, 1 - p) > 30), and a replicate whose
inversion would restart, build NumPy's generator replicate by replicate.
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np
import yaml
from numpy.random.bit_generator import ISeedSequence

from .chains import _equal_fields
from .ctp import _procedures
from .model import BOUNDARY_POLICIES, ModelFit, _saturated_logit
from .mvn import MAX_DIMENSION

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "StudyConfigError",
    "run_scenario",
    "run_study",
    "load_study",
]

SCHEMA_VERSION = 1

_CHUNK = 512
# a replicate index of 2**32 or more is a two-word spawn key, which
# _states does not hash
_MAX_REPLICATES = 2**32


class StudyConfigError(ValueError):
    """A study configuration file is malformed or inconsistent."""


def _probability(value, name: str) -> float:
    """``value`` as a float strictly inside (0, 1); else raise, naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < 1.0:
        return float(value)
    raise ValueError(f"{name} must be a number strictly in (0, 1), got {value!r}")


def _integer(value, name: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``; bools and fractions raise, naming ``name``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if integral and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: true probabilities, sizes and run settings."""

    pi: tuple
    n: tuple
    replicates: int = 5000
    alpha: float = 0.05
    seed: int = 0
    boundary_policy: str = "smooth"
    name: str = ""

    def __post_init__(self):
        pi = tuple(_probability(p, "pi") for p in self.pi)
        n = tuple(_integer(v, "n", 1) for v in self.n)
        if len(pi) < 2:
            raise ValueError("pi needs a control group and at least one dose group")
        if len(pi) - 1 > MAX_DIMENSION:
            # analyze cannot test more contrasts than the MVN layer accepts
            raise ValueError(
                f"pi has {len(pi)} entries, but at most {MAX_DIMENSION} dose groups "
                "can be analyzed"
            )
        if len(pi) != len(n):
            raise ValueError(f"pi has {len(pi)} entries but n has {len(n)}")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(
                f"boundary_policy must be one of {BOUNDARY_POLICIES}, got {self.boundary_policy!r}"
            )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates", 1))
        if self.replicates > _MAX_REPLICATES:
            raise ValueError(f"replicates must be at most 2**32, got {self.replicates}")
        object.__setattr__(self, "alpha", _probability(self.alpha, "alpha"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        object.__setattr__(self, "name", str(self.name))

    @property
    def k(self) -> int:
        return len(self.pi) - 1


@dataclass(frozen=True)
class ScenarioResult:
    """Estimated rejection rates for one scenario.

    Per-dose entries are the probabilities of claiming that specific dose
    significant; ``*_any`` entries are the probabilities of claiming any
    dose at all.  For the Williams procedure ``rate_williams_top`` is the
    decision of its highest-dose contrast row and ``rate_williams_any``
    the decision of the global trend test.  ``elapsed`` is wall time in
    seconds.  ``n_sandwich``, ``n_second_order`` and ``n_integrated``
    count the maxT bounds decided by the first-order sandwich, by the
    closed form of two or three rows or the second-order bounds, and by
    the quadrature.  Timing and these counts
    describe how the rates were computed, not what they are, so they stay
    out of :meth:`to_dict`.  Results compare by value, timing aside.
    """

    __eq__ = _equal_fields

    scenario: Scenario
    rate_dunnett: np.ndarray
    rate_dunnett_any: float
    rate_williams_top: float
    rate_williams_any: float
    rate_ctp_pairwise: np.ndarray
    rate_ctp_pairwise_any: float
    rate_ctp_williams: np.ndarray
    rate_ctp_williams_any: float
    n_boundary: int
    n_degenerate: int
    elapsed: float = field(compare=False)
    n_sandwich: int = 0
    n_second_order: int = 0
    n_integrated: int = 0

    def __post_init__(self):
        k = self.scenario.k
        for name, any_name in (
            ("rate_dunnett", "rate_dunnett_any"),
            ("rate_ctp_pairwise", "rate_ctp_pairwise_any"),
            ("rate_ctp_williams", "rate_ctp_williams_any"),
        ):
            per_dose = getattr(self, name)
            any_rate = getattr(self, any_name)
            if per_dose.shape != (k,):
                raise ValueError(f"{name} must have one entry per dose")
            lowest, highest = per_dose.min(), per_dose.max()
            if not (0.0 <= lowest and highest <= 1.0 and 0.0 <= any_rate <= 1.0):
                raise ValueError(f"{name} rates must lie in [0, 1]")
            if highest > any_rate:
                raise ValueError(f"{any_name} cannot be below a per-dose rate")
        if not 0.0 <= self.rate_williams_top <= self.rate_williams_any <= 1.0:
            raise ValueError("williams any-pair rate cannot be below the top-row rate")
        if self.n_boundary < 0 or self.n_degenerate < 0:
            raise ValueError("replicate counters cannot be negative")
        if self.n_boundary + self.n_degenerate > self.scenario.replicates:
            raise ValueError("replicate counters exceed the replicate total")

    def to_dict(self) -> dict:
        """Plain-type rendering with full precision; excludes timing."""
        sc = self.scenario
        return {
            "name": sc.name,
            "pi": list(sc.pi),
            "n": list(sc.n),
            "replicates": sc.replicates,
            "alpha": sc.alpha,
            "seed": sc.seed,
            "boundary_policy": sc.boundary_policy,
            "rates": {
                "dunnett": {
                    "per_dose": [float(v) for v in self.rate_dunnett],
                    "any": float(self.rate_dunnett_any),
                },
                "williams": {
                    "top": float(self.rate_williams_top),
                    "any": float(self.rate_williams_any),
                },
                "ctp_pairwise": {
                    "per_dose": [float(v) for v in self.rate_ctp_pairwise],
                    "any": float(self.rate_ctp_pairwise_any),
                },
                "ctp_williams": {
                    "per_dose": [float(v) for v in self.rate_ctp_williams],
                    "any": float(self.rate_ctp_williams_any),
                },
            },
            "n_boundary": self.n_boundary,
            "n_degenerate": self.n_degenerate,
        }


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), in 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating state from the pool
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const, mult: int):
    """Hash of the 32-bit ``value`` under ``const``, and the next constant.

    ``value`` and ``const`` are Python ints or uint64 arrays that broadcast.
    """
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """Pool word ``x`` mixed with the hashed word ``y``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=64)
def _hash_consts(const: int, mult: int, count: int):
    """The ``count`` hash constants from ``const`` on, as a read-only uint64 column, and the next one."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts[:-1], dtype=np.uint64)[:, None]
    column.setflags(write=False)
    return column, consts[-1]


def _states(seed: int, reps: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(rep, 0)).generate_state(4, np.uint64)``, row by rep.

    ``reps`` is a uint64 array of replicate indices below 2**32, each one
    word of spawn key.  The pool of the seed's own words is NumPy's pool
    of ``SeedSequence(seed)``: a spawn key pads the seed's words with
    zeros to the pool size, and with no spawn key NumPy hashes a 0 into
    each pool word the seed leaves empty, which is the same.  Then the
    spawn words are hashed in, the pool a (4, n) uint64 array with one
    column per replicate: the replicate word is mixed into all four pool
    words in one pass, the padding 0 in a second, and the eight output
    words are hashed from the pool in a third.  Masking to 32 bits after
    every product and difference keeps both exact.
    """
    words = max(1, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    # the seed took one hash constant per pool word, one per ordered pair of
    # pool words, and one per pool word for each word past the pool size
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(_POOL_SIZE, words), 2**32) & _MASK32
    for word in (reps, 0):
        consts, const = _hash_consts(const, _MULT_A, _POOL_SIZE)
        pool = _mix(pool, _hashmix(word, consts, _MULT_A)[0])
    consts, _ = _hash_consts(_INIT_B, _MULT_B, 8)  # four uint64 words
    state = _hashmix(pool[np.arange(8) % _POOL_SIZE], consts, _MULT_B)[0]
    # little-endian pairs of 32-bit words; PCG64 reads a row, so rows are contiguous
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


class _State(ISeedSequence):
    """A seed sequence whose generator state is already computed.

    ``PCG64`` asks for ``generate_state(4, np.uint64)``, which is the row of
    :func:`_states` it is given.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


# NumPy's PCG64 (numpy/random/src/pcg64): the 128-bit LCG s -> a s + inc,
# held here as high and low uint64 words, with the XSL-RR output
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


@lru_cache(maxsize=MAX_DIMENSION + 1)
def _pcg_jumps(count: int) -> np.ndarray:
    """a^(i+2) and 1 + a + ... + a^(i+2) mod 2**128, for i < ``count``, as read-only uint64 rows.

    Of each, the rows hold the high words, the low words and the low
    words' low and high 32-bit halves.
    """
    jumps = np.empty((2, 4, count), dtype=np.uint64)
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for i in range(count):
        power = power * _PCG_MULT % 2**128
        total = (total + power) % 2**128
        for rows, value in zip(jumps, (power, total)):
            rows[:, i] = value >> 64, value & 2**64 - 1, value & _MASK32, value >> 32 & _MASK32
    jumps.setflags(write=False)
    return jumps


def _mulhi(x, y0, y1):
    """The high word of the 128-bit product of the uint64 ``x`` and y = y1 2**32 + y0.

    Summed from 32-bit halves, no partial sum reaching 2**64.
    """
    x0, x1 = x & _MASK32, x >> 32
    mid = x1 * y0 + (x0 * y0 >> 32)
    return x1 * y1 + (mid >> 32) + (x0 * y1 + (mid & _MASK32) >> 32)


def _pcg64_doubles(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` ``random()`` of ``PCG64(_State(row))``, a row per row of ``states``.

    The seed is the first two words of a row and the stream the last two,
    high word first, and inc = 2 stream + 1.  Seeding steps from state 0,
    adds the seed and steps again, to a (seed + inc) + inc; each double
    steps, then takes the top 53 bits of the output.  So double i reads
    the state a^(i+2) seed + (1 + a + ... + a^(i+2)) inc mod 2**128: two
    128-bit products with the constant rows of :func:`_pcg_jumps`,
    for every double of every row in one pass.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = states.T[:, :, None]
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    (a_hi, a_lo, a0, a1), (b_hi, b_lo, b0, b1) = _pcg_jumps(count)
    first = seed_lo * a_lo
    lo = first + inc_lo * b_lo
    hi = (
        _mulhi(seed_lo, a0, a1) + _mulhi(inc_lo, b0, b1) + (lo < first)
        + seed_lo * a_hi + seed_hi * a_lo + inc_lo * b_hi + inc_hi * b_lo
    )
    rot = hi >> 58
    out = hi ^ lo
    out = out >> rot | out << (64 - rot & 63)
    return (out >> 11) * 2.0**-53


@lru_cache(maxsize=1024)
def _inversion(n: int, p: float):
    """How ``Generator.binomial(n, p)`` turns one ``random()`` U into a count.

    NumPy (``random_binomial``) draws by BTPE, using a varying number of
    doubles, where n * min(p, 1 - p) > 30; then this returns None.  Else
    it inverts U for Binomial(n, min(p, 1 - p)) and, when p > 0.5
    (``flipped``), returns n minus that count.  Returns ``(flipped,
    thresholds)``: the inverted count is the number of thresholds <= U,
    and when that is all of them NumPy restarts with a fresh double.
    """
    flipped = p > 0.5
    if flipped:
        p = 1.0 - p
    if p * n > 30.0:
        return None
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    # NumPy's q**n; exp(n * log(q)) differs in the last bits, moving thresholds
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, bound + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    px = np.array(px)
    # NumPy counts x up while U_x > px_x, U_x being U less px_0, ..., px_{x-1}
    # in turn; once U_x <= px_x every later U_x is <= 0.  So the count exceeds
    # x exactly when U_x > px_x, and as U_x never falls when U rises, bisect
    # for every x at once the least U = m / 2**53 (the values random() takes)
    # with U_x > px_x: the count is the number of these thresholds <= U.
    walk = np.empty((px.size, px.size))
    walk[:, 1:] = px[:-1]
    lo, hi = np.zeros(px.size, dtype=np.int64), np.full(px.size, 2**53)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        walk[:, 0] = mid * 2.0**-53
        passed = np.subtract.accumulate(walk, axis=1).diagonal() > px
        lo, hi = np.where(passed, lo, mid + 1), np.where(passed, mid, hi)
    thresholds = hi * 2.0**-53
    thresholds.flags.writeable = False  # every caller shares the cached array
    return flipped, thresholds


def _generator_tables(sc: Scenario, states: np.ndarray) -> np.ndarray:
    """The tables drawn by ``Generator(PCG64(_State(row)))``, one per row of ``states``."""
    tables = []
    for state in states:
        binomial = np.random.Generator(np.random.PCG64(_State(state))).binomial
        tables.append([binomial(n, p) for n, p in zip(sc.n, sc.pi)])
    return np.array(tables, dtype=np.int64)


def _draw(sc: Scenario, start: int, count: int) -> np.ndarray:
    """The tables of replicates [start, start+count), one row each, seeded by contract.

    Where NumPy inverts every group, the chunk is drawn in whole-array
    passes: one ``random()`` per group and replicate from
    :func:`_pcg64_doubles`, inverted by :func:`_inversion`.  A design
    with a BTPE group, and the rare replicate whose inversion restarts,
    take NumPy's own generator, replicate by replicate.
    """
    states = _states(sc.seed, np.arange(start, start + count, dtype=np.uint64))
    inversions = [_inversion(n, p) for n, p in zip(sc.n, sc.pi)]
    if any(inversion is None for inversion in inversions):
        return _generator_tables(sc, states)
    u = _pcg64_doubles(states, len(inversions))
    tables = np.empty(u.shape, dtype=np.int64)
    restart = np.zeros(count, dtype=bool)
    for g, (n, (flipped, thresholds)) in enumerate(zip(sc.n, inversions)):
        x = np.searchsorted(thresholds, u[:, g], side="right")
        restart |= x == thresholds.size
        tables[:, g] = n - x if flipped else x
    if restart.any():
        tables[restart] = _generator_tables(sc, states[restart])
    return tables


def _decide(sc: Scenario, y: np.ndarray) -> np.ndarray:
    """Integer decision counts over the tables ``y``, then how they were decided.

    ``y`` holds one table of counts per row.  The fit takes all rows at
    once, and so does ``trendcomp.ctp._procedures`` under the window
    [alpha, alpha].  The claims of each table form one boolean row with
    one column per rate; the counts are its column sums.

    Layout: [D_1..D_k, D_any, W_top, W_any, P_1..P_k, P_any,
    C_1..C_k, C_any, n_boundary, n_degenerate, n_sandwich,
    n_second_order, n_integrated], the last three counting the maxT
    bounds each stage of ``trendcomp.contrasts._maxt_p`` decided.
    """
    n = np.asarray(sc.n, dtype=np.int64)
    alpha = sc.alpha
    routes = np.zeros(3, dtype=np.int64)

    # no_info tables are degenerate; refused ones ("reject") make no claims
    eta, var_eta, at_boundary, no_info, refused = _saturated_logit(y, n, sc.boundary_policy)
    fitted = ~(no_info | refused)
    fit = ModelFit(eta[fitted], var_eta[fitted], correction_applied=at_boundary[fitted])
    # the Williams p pair, below alpha, is the (W_top, W_any) claim pair
    _, (p_d, p_w, p_p, p_c) = _procedures(fit, n, alpha, routes)
    per_dose = (p_d < alpha, p_p < alpha, p_c < alpha)
    (d, d_any), (p, p_any), (c, c_any) = ((x, x.any(axis=1, keepdims=True)) for x in per_dose)
    claims = np.hstack([d, d_any, p_w < alpha, p, p_any, c, c_any])
    n_boundary = np.sum(at_boundary.any(axis=1) & ~no_info)
    return np.array([*claims.sum(axis=0), n_boundary, no_info.sum(), *routes], dtype=np.int64)


def _count_chunk(sc: Scenario, start: int, count: int) -> np.ndarray:
    """The counts of :func:`_decide` over replicates [start, start+count)."""
    return _decide(sc, _draw(sc, start, count))


def _estimate(sc: Scenario, pool: ProcessPoolExecutor | None = None) -> ScenarioResult:
    """All rates of one scenario, its chunks counted in ``pool`` if it has several."""
    t0 = time.perf_counter()
    k = sc.k
    starts = range(0, sc.replicates, _CHUNK)
    chunks = ([sc] * len(starts), starts, [min(_CHUNK, sc.replicates - s) for s in starts])
    chunk_map = pool.map if pool is not None and len(starts) > 1 else map
    counts = sum(chunk_map(_count_chunk, *chunks))
    # _decide's layout: D_1..D_k, D_any, W_top, W_any, P_1..P_k, P_any,
    # C_1..C_k, C_any, then five counters
    rates = counts[:-5] / sc.replicates
    r = rates.tolist()
    n_boundary, n_degenerate, n_sandwich, n_second_order, n_integrated = counts[-5:].tolist()
    return ScenarioResult(
        scenario=sc,
        rate_dunnett=rates[:k],
        rate_dunnett_any=r[k],
        rate_williams_top=r[k + 1],
        rate_williams_any=r[k + 2],
        rate_ctp_pairwise=rates[k + 3 : 2 * k + 3],
        rate_ctp_pairwise_any=r[2 * k + 3],
        rate_ctp_williams=rates[2 * k + 4 : 3 * k + 4],
        rate_ctp_williams_any=r[3 * k + 4],
        n_boundary=n_boundary,
        n_degenerate=n_degenerate,
        elapsed=time.perf_counter() - t0,
        n_sandwich=n_sandwich,
        n_second_order=n_second_order,
        n_integrated=n_integrated,
    )


def run_scenario(sc: Scenario, parallelism: int = 1) -> ScenarioResult:
    """Estimate all rates for one scenario.

    ``parallelism`` caps the worker process count, as in
    :func:`run_study`; the result is bit-identical for every value
    because replicate seeds depend only on the replicate index and
    integer counts commute under addition.
    """
    return run_study([sc], parallelism)[0]


def run_study(scenarios, parallelism: int = 1):
    """Run scenarios in order and return their results in the same order.

    With ``parallelism`` > 1 one pool of worker processes serves the whole
    study, so what the workers cache for one scenario (contrast families,
    quadrature rules, inversion thresholds) serves the next.  A scenario's
    chunks of ``_CHUNK`` replicates are counted together, one scenario at
    a time, so the pool has at most as many workers as the largest
    scenario has chunks, and none for a study of one-chunk scenarios.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    scenarios = list(scenarios)
    for sc in scenarios:
        if not isinstance(sc, Scenario):
            raise TypeError(f"expected Scenario, got {type(sc).__name__}")
    chunks = max((-(-sc.replicates // _CHUNK) for sc in scenarios), default=1)
    workers = min(parallelism, chunks)
    if workers == 1:
        return [_estimate(sc) for sc in scenarios]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [_estimate(sc, pool) for sc in scenarios]


def _required(mapping, key, where):
    if key not in mapping:
        raise StudyConfigError(f"{where}.{key}: required field is missing")
    return mapping[key]


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise StudyConfigError(f"{where}.{key}: unknown field")


_SCENARIO_KEYS = frozenset(f.name for f in fields(Scenario))
# pi, seed and name describe one scenario; the other fields may be shared
_DEFAULT_KEYS = _SCENARIO_KEYS - {"pi", "seed", "name"}


def load_study(path) -> list:
    """Parse a study configuration file into a list of scenarios.

    The file is a YAML (or JSON) mapping with ``schema_version: 1``, a
    ``master_seed``, optional ``defaults`` shared by all scenarios, and a
    ``scenarios`` list.  A scenario without an explicit ``seed`` gets one
    derived from the master seed and its position, so adding or
    reordering other scenarios never changes its stream.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise StudyConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise StudyConfigError(f"config {path} is not valid YAML/JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise StudyConfigError("config root must be a mapping")
    _check_keys(raw, {"schema_version", "master_seed", "defaults", "scenarios"}, "config")
    version = _required(raw, "schema_version", "config")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise StudyConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    master_seed = _required(raw, "master_seed", "config")
    if not isinstance(master_seed, int) or isinstance(master_seed, bool) or master_seed < 0:
        raise StudyConfigError("config.master_seed: must be a nonnegative integer")
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise StudyConfigError("config.defaults: must be a mapping")
    _check_keys(defaults, _DEFAULT_KEYS, "config.defaults")
    entries = _required(raw, "scenarios", "config")
    if not isinstance(entries, list) or not entries:
        raise StudyConfigError("config.scenarios: must be a non-empty list")

    scenarios = []
    for i, entry in enumerate(entries):
        where = f"scenarios[{i}]"
        if not isinstance(entry, dict):
            raise StudyConfigError(f"{where}: must be a mapping")
        _check_keys(entry, _SCENARIO_KEYS, where)
        merged = {**defaults, **entry}
        for f in fields(Scenario):
            if f.default is MISSING:
                _required(merged, f.name, where)
        state = np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(1, np.uint64)
        merged.setdefault("seed", int(state[0]))
        merged["name"] = merged.get("name") or f"scenario-{i}"
        try:
            scenarios.append(Scenario(**merged))
        except (TypeError, ValueError) as exc:
            raise StudyConfigError(f"{where}: {exc}") from exc
    return scenarios
