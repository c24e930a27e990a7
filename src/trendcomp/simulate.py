"""Monte Carlo estimation of per-pair power, any-pair power and FWER.

Each replicate draws independent binomial counts, fits the saturated
model with :func:`trendcomp.model.fit_saturated_logit` and records which
dose-level claims every procedure makes at the scenario alpha, by the
same definitions :func:`trendcomp.ctp.closed_analysis` uses: the
many-to-one family, :func:`trendcomp.ctp.ctp_pairwise`, and variant C's
segment families and closure from :mod:`trendcomp.ctp`, integrated
exactly by :mod:`trendcomp.chains`.  Decisions, not p-values, are
accumulated: each maxT decision is settled from the exact sandwich
p_raw <= p_adj <= m * p_raw whenever possible and integrated only at
the bounds it leaves open, one per lower segment, so every claim
equals thresholding the p-values of ``closed_analysis`` on the same table.

The default boundary policy here is ``smooth`` (one pseudo-responder
and one pseudo-non-responder added to every group), not the analysis
default ``haldane``.  At the small response rates where power studies
operate, zero counts are routine, and a correction applied only to the
affected groups hands those replicates an outsized log-odds shift that
inflates every rejection rate; smoothing all groups by the same rule
keeps boundary replicates comparable with interior ones.

Reproducibility contract: replicate ``rep`` draws its table from the
generator of ``SeedSequence(seed, spawn_key=(rep, 0))``, which depends on
(scenario seed, replicate index) alone, and results reduce by integer
count accumulation, so output is bit-identical for any parallelism
level and any chunking of the replicate range.
"""

from __future__ import annotations

import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml
from scipy.special import ndtr

from .chains import chain_maxt, chain_structure
from .contrasts import contrast_moments, dunnett_matrix
from .ctp import _segment_families, _williams_closure, ctp_pairwise
from .data import DoseGroupData
from .model import (
    BOUNDARY_POLICIES,
    BoundaryCountError,
    NoInformationError,
    fit_saturated_logit,
)

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
        if len(pi) != len(n):
            raise ValueError(f"pi has {len(pi)} entries but n has {len(n)}")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(
                f"boundary_policy must be one of {BOUNDARY_POLICIES}, got {self.boundary_policy!r}"
            )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates", 1))
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
    seconds and deliberately stays out of :meth:`to_dict`.
    """

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
            if np.any(per_dose < 0.0) or np.any(per_dose > 1.0) or not 0.0 <= any_rate <= 1.0:
                raise ValueError(f"{name} rates must lie in [0, 1]")
            if np.any(per_dose > any_rate):
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


def _below(family, t, std_err, var_eta, alpha) -> np.ndarray:
    """Whether the maxT-adjusted p-value at each bound in ``t`` is below alpha.

    ``family`` holds the chains of the contrast family.  The exact sandwich
    p_raw <= p_adj <= m * p_raw settles most bounds; :func:`chain_maxt`
    integrates the rest, so the answer equals thresholding the adjusted
    p-values of :func:`trendcomp.contrasts.contrast_test`.
    """
    p_raw = ndtr(-t)
    below = std_err.size * p_raw < alpha
    open_ = ~below & (p_raw < alpha)
    if open_.any():
        below[open_] = chain_maxt(family, t[open_], std_err, var_eta) < alpha
    return below


def _run_chunk(sc: Scenario, start: int, count: int) -> np.ndarray:
    """Integer decision counts over replicates [start, start+count).

    Layout: [D_1..D_k, D_any, W_top, W_any, P_1..P_k, P_any,
    C_1..C_k, C_any, n_boundary, n_degenerate].
    """
    k = sc.k
    n = np.asarray(sc.n, dtype=np.int64)
    labels = tuple(str(i) for i in range(k + 1))
    alpha = sc.alpha
    C_dun = dunnett_matrix(n).coefficients
    chains_dun = chain_structure(C_dun)
    segments = _segment_families(n)
    C_top, chains_top = segments[k]

    def decide(chains, t, std_err, var_eta):
        # 0 where the adjusted p is below alpha, else 1: the same claims at alpha
        return np.where(_below(chains, t, std_err, var_eta, alpha), 0.0, 1.0)

    counts = np.zeros(3 * k + 7, dtype=np.int64)
    i_dany, i_wtop, i_wany = k, k + 1, k + 2
    i_p0, i_pany = k + 3, 2 * k + 3
    i_c0, i_cany = 2 * k + 4, 3 * k + 4
    i_bnd, i_deg = 3 * k + 5, 3 * k + 6

    for rep in range(start, start + count):
        draw = np.random.default_rng(np.random.SeedSequence(sc.seed, spawn_key=(rep, 0)))
        data = DoseGroupData(labels=labels, n=n, y=draw.binomial(n, sc.pi))
        try:
            fit = fit_saturated_logit(data, boundary_policy=sc.boundary_policy)
        except NoInformationError:
            counts[i_deg] += 1
            continue
        except BoundaryCountError:
            # policy "reject": the replicate cannot be analyzed, no claims
            counts[i_bnd] += 1
            continue
        if fit.correction_applied.any():
            counts[i_bnd] += 1
        eta, var_eta = fit.eta, fit.var_eta

        _, se_d, t_d, _ = contrast_moments(C_dun, eta, var_eta)
        dunnett = _below(chains_dun, t_d, se_d, var_eta, alpha)
        counts[:k] += dunnett
        counts[i_dany] += dunnett.any()

        pairwise = ctp_pairwise(fit) < alpha
        counts[i_p0 : i_p0 + k] += pairwise
        counts[i_pany] += pairwise.any()

        # a family rejects iff its largest statistic's adjusted p is below alpha
        _, se_w, t_w, _ = contrast_moments(C_top, eta, var_eta)
        w_top, w_any = _below(chains_top, t_w[[0, t_w.argmax()]], se_w, var_eta, alpha)
        counts[i_wtop] += w_top
        counts[i_wany] += w_any

        claims = _williams_closure(fit, segments, 0.0 if w_any else 1.0, decide) < alpha
        counts[i_c0 : i_c0 + k] += claims
        counts[i_cany] += claims.any()
    return counts


def _chunk_worker(args) -> np.ndarray:
    return _run_chunk(*args)


def run_scenario(sc: Scenario, parallelism: int = 1) -> ScenarioResult:
    """Estimate all rates for one scenario.

    ``parallelism`` sets the worker process count; the result is
    bit-identical for every value because replicate seeds depend only on
    the replicate index and integer counts commute under addition.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    t0 = time.perf_counter()
    k = sc.k
    tasks = [
        (sc, start, min(_CHUNK, sc.replicates - start))
        for start in range(0, sc.replicates, _CHUNK)
    ]
    counts = np.zeros(3 * k + 7, dtype=np.int64)
    if parallelism == 1 or len(tasks) == 1:
        for task in tasks:
            counts += _run_chunk(*task)
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            for vec in pool.map(_chunk_worker, tasks):
                counts += vec
    reps = float(sc.replicates)
    rate = counts / reps
    return ScenarioResult(
        scenario=sc,
        rate_dunnett=rate[:k],
        rate_dunnett_any=float(rate[k]),
        rate_williams_top=float(rate[k + 1]),
        rate_williams_any=float(rate[k + 2]),
        rate_ctp_pairwise=rate[k + 3 : 2 * k + 3],
        rate_ctp_pairwise_any=float(rate[2 * k + 3]),
        rate_ctp_williams=rate[2 * k + 4 : 3 * k + 4],
        rate_ctp_williams_any=float(rate[3 * k + 4]),
        n_boundary=int(counts[3 * k + 5]),
        n_degenerate=int(counts[3 * k + 6]),
        elapsed=time.perf_counter() - t0,
    )


def run_study(scenarios, parallelism: int = 1):
    """Run scenarios in order and return their results in the same order."""
    scenarios = list(scenarios)
    for sc in scenarios:
        if not isinstance(sc, Scenario):
            raise TypeError(f"expected Scenario, got {type(sc).__name__}")
    return [run_scenario(sc, parallelism) for sc in scenarios]


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
