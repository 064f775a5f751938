"""Synthetic request-trace generation.

Two generators: a dynamic-catalog one where documents are published by a
Poisson process and each receives Poisson requests over a box-shaped
intensity profile, and a static-catalog IRM one (i.i.d. draws from a fixed
popularity law). A Monte Carlo counter of distinct documents per window
doubles as the numerical oracle for the analytic working-set formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .trace import Trace, _make_trace

__all__ = [
    "DocumentProfile",
    "GeneratorConfig",
    "Population",
    "sample_population",
    "generate_box_trace",
    "generate_irm_trace",
    "MonteCarloDistinct",
    "monte_carlo_distinct_docs",
]

#: Default warmup: documents published this long before the window may
#: still be alive at its start. Taken as the 99.9th percentile of the
#: lifespan pool, approximating a catalog that has been publishing forever.
WARMUP_TAU_PERCENTILE = 99.9


@dataclass(frozen=True)
class DocumentProfile:
    """One document of the box model: publication time, request rate and
    lifespan. Requests arrive at constant rate `lam` on
    ``[arrival, arrival + tau]`` and nowhere else."""

    arrival: float
    lam: float
    tau: float

    def __post_init__(self):
        if self.lam <= 0 or self.tau <= 0:
            raise ValueError("rate and lifespan must be positive")

    @property
    def mean_requests(self) -> float:
        return self.lam * self.tau


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the dynamic-catalog trace generator.

    `lambdas`/`taus` form the (rate, lifespan) pool sampled uniformly with
    replacement per published document; a single-entry pool pins every
    document to that fixed pair. `warmup` extends publication before the
    window start so the catalog looks stationary at time 0; when None it
    defaults to the :data:`WARMUP_TAU_PERCENTILE` percentile of the
    lifespan pool (documents with longer lifespans are ignored before the
    window, a small documented edge bias).
    """

    gamma: float
    window: int
    lambdas: np.ndarray
    taus: np.ndarray
    warmup: Optional[float] = None

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        tau = np.atleast_1d(np.asarray(self.taus, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "taus", tau)
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if len(lam) != len(tau) or len(lam) == 0:
            raise ValueError("lambdas and taus must be parallel, non-empty")
        if np.any(lam <= 0) or np.any(tau <= 0):
            raise ValueError("rates and lifespans must be positive")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @property
    def warmup_ms(self) -> float:
        if self.warmup is not None:
            return float(self.warmup)
        if len(self.taus) == 1:
            return float(self.taus[0])
        return float(np.percentile(self.taus, WARMUP_TAU_PERCENTILE))

    @classmethod
    def fixed_pair(cls, gamma, window, lam, tau, warmup=None) -> "GeneratorConfig":
        return cls(gamma, window, np.array([lam]), np.array([tau]), warmup)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        """Load a config from its JSON document form:
        ``{gamma, window_ms, warmup_ms?, pairs: [[lambda, tau], ...]}``."""
        data = json.loads(text)
        pairs = np.asarray(data["pairs"], dtype=float)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be a list of [lambda, tau] pairs")
        return cls(
            gamma=float(data["gamma"]),
            window=int(data["window_ms"]),
            lambdas=pairs[:, 0],
            taus=pairs[:, 1],
            warmup=float(data["warmup_ms"]) if "warmup_ms" in data else None,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "gamma": self.gamma,
                "window_ms": self.window,
                "warmup_ms": self.warmup_ms,
                "pairs": [[float(l), float(t)] for l, t in zip(self.lambdas, self.taus)],
            }
        )


@dataclass(frozen=True)
class Population:
    """A sampled document population with its raw (unclipped) requests.

    `counts` holds each document's full-lifespan Poisson request count;
    `req_doc`/`req_times` flatten all requests (continuous times, possibly
    outside the observation window) with `req_doc` indexing into the
    per-document arrays.
    """

    arrivals: np.ndarray
    lambdas: np.ndarray
    taus: np.ndarray
    counts: np.ndarray
    req_doc: np.ndarray
    req_times: np.ndarray


def sample_population(config: GeneratorConfig, rng: np.random.Generator) -> Population:
    """Draw one document population and its requests from the generator.

    Publications form a Poisson process of rate `gamma` on
    ``[-warmup, window]``; each document samples a (rate, lifespan) pair
    from the pool, a Poisson(rate * lifespan) request count, and i.i.d.
    uniform request times over its lifespan. No window clipping here.
    """
    warmup = config.warmup_ms
    span = warmup + config.window
    n_docs = rng.poisson(config.gamma * span)
    arrivals = np.sort(rng.uniform(-warmup, config.window, n_docs))
    if len(config.lambdas) == 1:
        lam = np.full(n_docs, config.lambdas[0])
        tau = np.full(n_docs, config.taus[0])
    else:
        idx = rng.integers(0, len(config.lambdas), n_docs)
        lam = config.lambdas[idx]
        tau = config.taus[idx]
    counts = rng.poisson(lam * tau)
    req_doc = np.repeat(np.arange(n_docs), counts)
    req_times = arrivals[req_doc] + rng.random(len(req_doc)) * tau[req_doc]
    return Population(arrivals, lam, tau, counts, req_doc, req_times)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def _indexed_trace(times, doc_idx, n_docs: int, window: int) -> Trace:
    """The trace of requests to documents `doc_idx` of a catalog of
    `n_docs`, each named ``d%08d`` after its index; only the names of
    requested documents are formatted."""
    names = np.empty(n_docs, dtype=object)
    used = np.flatnonzero(np.bincount(doc_idx, minlength=n_docs))
    names[used] = [f"d{i:08d}" for i in used.tolist()]
    return _make_trace(times, doc_idx, names, window_length=window)


def generate_box_trace(config: GeneratorConfig, seed) -> Trace:
    """Generate a dynamic-catalog trace.

    Requests falling outside the observation window are dropped; surviving
    times are rounded half-up to integer milliseconds. Deterministic for a
    fixed seed (an int, or a pre-built ``numpy.random.SeedSequence``).
    """
    rng = np.random.default_rng(seed)
    pop = sample_population(config, rng)
    inside = (pop.req_times >= 0) & (pop.req_times <= config.window)
    times = _round_half_up(pop.req_times[inside])
    return _indexed_trace(times, pop.req_doc[inside], len(pop.arrivals), config.window)


def generate_irm_trace(
    popularities: Sequence[float], total_requests: int, window: int, seed: int
) -> Trace:
    """Generate a static-catalog IRM trace.

    Documents are drawn i.i.d. proportionally to `popularities` and placed
    at i.i.d. uniform integer timestamps on ``[0, window]``.
    """
    weights = np.asarray(popularities, dtype=float)
    if len(weights) == 0 or np.any(weights <= 0):
        raise ValueError("popularities must be positive")
    if total_requests < 0:
        raise ValueError("total_requests must be >= 0")
    if window <= 0:
        raise ValueError("window must be positive")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(weights), size=total_requests, p=weights / weights.sum())
    times = rng.integers(0, window + 1, size=total_requests)
    return _indexed_trace(times, draws, len(weights), window)


@dataclass(frozen=True)
class MonteCarloDistinct:
    """Per-window-length sample statistics of the distinct-document count."""

    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    reps: int
    min_requests: int

    @property
    def variance(self) -> np.ndarray:
        """Sample variance of the counts per window length."""
        return self.stderr**2 * self.reps


def monte_carlo_distinct_docs(
    config: GeneratorConfig,
    t_grid: Sequence[float],
    reps: int,
    seed: int,
    min_requests: int = 1,
) -> MonteCarloDistinct:
    """Monte Carlo estimate of the mean distinct-document count per window.

    Each replication generates one trace (with a seed derived from the
    root seed and the replication index, so replications are independent
    and schedule-invariant) and counts the documents with at least
    `min_requests` requests timestamped within ``[0, t]`` for every t of
    the grid. With ``min_requests=1`` this is the numerical oracle for
    :func:`cachechurn.boxmodel.box_working_set`; with 2 it checks the
    repeat-document kernel.

    Returns
    -------
    MonteCarloDistinct
        Sample mean and standard error per grid point.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if np.any(t_grid < 0) or np.any(t_grid > config.window):
        raise ValueError("t_grid values must lie within [0, window]")
    counts = np.empty((reps, len(t_grid)), dtype=np.int64)
    for rep in range(reps):
        trace = generate_box_trace(config, np.random.SeedSequence([seed, rep]))
        for k, t in enumerate(t_grid):
            upto = np.searchsorted(trace.timestamps, t, side="right")
            per_doc = np.bincount(trace.docs[:upto])
            counts[rep, k] = np.count_nonzero(per_doc >= min_requests)
    mean = counts.mean(axis=0)
    stderr = counts.std(axis=0, ddof=1) / math.sqrt(reps)
    return MonteCarloDistinct(
        t=t_grid, mean=mean, stderr=stderr, reps=reps, min_requests=min_requests
    )
