"""Monte Carlo estimation of per-pair power, any-pair power and FWER.

Each replicate draws independent binomial counts, fits the saturated
model with :func:`trendcomp.model.fit_saturated_logit` and records which
dose-level claims every procedure makes at the scenario alpha, by the
same definitions :func:`trendcomp.ctp.closed_analysis` uses: the same
contrast families, exact integration by :mod:`trendcomp.chains`, and the
closure rule :func:`trendcomp.ctp.closed_test`.  Decisions, not p-values,
are accumulated: each maxT decision is settled from the exact sandwich
p_raw <= p_adj <= m * p_raw whenever possible and integrated only at the
bounds the sandwich leaves open, so every claim equals thresholding the
p-values of ``closed_analysis`` on the same table.

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

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.special import ndtr

from .chains import chain_maxt, chain_structure
from .contrasts import contrast_moments, dunnett_matrix, pad_to_full, williams_matrix
from .ctp import closed_test
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

DEFAULT_REPLICATES = 5000

_CHUNK = 512


class StudyConfigError(ValueError):
    """A study configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: true probabilities, sizes and run settings."""

    pi: tuple
    n: tuple
    replicates: int = DEFAULT_REPLICATES
    alpha: float = 0.05
    seed: int = 0
    boundary_policy: str = "smooth"
    name: str = ""

    def __post_init__(self):
        pi = tuple(float(p) for p in self.pi)
        n = tuple(int(v) for v in self.n)
        if len(pi) < 2:
            raise ValueError("pi needs a control group and at least one dose group")
        if len(pi) != len(n):
            raise ValueError(f"pi has {len(pi)} entries but n has {len(n)}")
        if any(not 0.0 < p < 1.0 for p in pi):
            raise ValueError("every pi must lie strictly in (0, 1)")
        if any(v < 1 for v in n):
            raise ValueError("every group size must be >= 1")
        if int(self.replicates) < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 < float(self.alpha) < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ValueError(
                f"boundary_policy must be one of {BOUNDARY_POLICIES}, got {self.boundary_policy!r}"
            )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "replicates", int(self.replicates))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "seed", int(self.seed))
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
    # segment j uses the Williams family on groups {0..j}, zero-padded;
    # segment k is the global Williams family
    C_seg = {
        j: pad_to_full(williams_matrix(n[: j + 1]), k + 1).coefficients
        for j in range(1, k + 1)
    }
    chains_dun = chain_structure(C_dun)
    chains_seg = {j: chain_structure(C) for j, C in C_seg.items()}
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

        p_raw = ndtr(-t_d)
        pairwise = closed_test(lambda j: p_raw[j - 1], k) < alpha
        counts[i_p0 : i_p0 + k] += pairwise
        counts[i_pany] += pairwise.any()

        # a family rejects iff its largest statistic's adjusted p is below alpha
        _, se_w, t_w, _ = contrast_moments(C_seg[k], eta, var_eta)
        w_top, w_any = _below(chains_seg[k], t_w[[0, t_w.argmax()]], se_w, var_eta, alpha)
        counts[i_wtop] += w_top
        counts[i_wany] += w_any

        def segment_p(j):
            if j == k:
                return 0.0 if w_any else 1.0
            _, se, t, _ = contrast_moments(C_seg[j], eta, var_eta)
            rejects = _below(chains_seg[j], t.max(keepdims=True), se, var_eta, alpha)[0]
            return 0.0 if rejects else 1.0

        claims = closed_test(segment_p, k) < alpha
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


def _cfg_get(mapping, key, where, required=False, default=None):
    if key in mapping:
        return mapping[key]
    if required:
        raise StudyConfigError(f"{where}.{key}: required field is missing")
    return default


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise StudyConfigError(f"{where}.{key}: unknown field")


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
    version = _cfg_get(raw, "schema_version", "config", required=True)
    if version != SCHEMA_VERSION:
        raise StudyConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    master_seed = _cfg_get(raw, "master_seed", "config", required=True)
    if not isinstance(master_seed, int) or master_seed < 0:
        raise StudyConfigError("config.master_seed: must be a nonnegative integer")
    defaults = _cfg_get(raw, "defaults", "config", default={})
    if not isinstance(defaults, dict):
        raise StudyConfigError("config.defaults: must be a mapping")
    _check_keys(
        defaults,
        {"n", "replicates", "alpha", "boundary_policy"},
        "config.defaults",
    )
    entries = _cfg_get(raw, "scenarios", "config", required=True)
    if not isinstance(entries, list) or not entries:
        raise StudyConfigError("config.scenarios: must be a non-empty list")

    scenarios = []
    for i, entry in enumerate(entries):
        where = f"scenarios[{i}]"
        if not isinstance(entry, dict):
            raise StudyConfigError(f"{where}: must be a mapping")
        _check_keys(
            entry,
            {"name", "pi", "n", "replicates", "alpha", "boundary_policy", "seed"},
            where,
        )
        merged = dict(defaults)
        merged.update(entry)
        pi = _cfg_get(merged, "pi", where, required=True)
        n = _cfg_get(merged, "n", where, required=True)
        if "seed" in entry:
            seed = entry["seed"]
            if not isinstance(seed, int) or seed < 0:
                raise StudyConfigError(f"{where}.seed: must be a nonnegative integer")
        else:
            seed = int(
                np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(
                    1, dtype=np.uint64
                )[0]
            )
        try:
            scenarios.append(
                Scenario(
                    pi=tuple(pi) if isinstance(pi, (list, tuple)) else pi,
                    n=tuple(n) if isinstance(n, (list, tuple)) else n,
                    replicates=merged.get("replicates", DEFAULT_REPLICATES),
                    alpha=merged.get("alpha", 0.05),
                    seed=seed,
                    boundary_policy=merged.get("boundary_policy", "smooth"),
                    name=str(merged.get("name") or f"scenario-{i}"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise StudyConfigError(f"{where}: {exc}") from exc
    return scenarios
