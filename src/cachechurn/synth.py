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
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._order import _BLOCK, _stable_order
from .trace import Trace, _compact, _make_trace

__all__ = [
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
class GeneratorConfig:
    """Parameters of the dynamic-catalog trace generator.

    `lambdas`/`taus` form the (rate, lifespan) pool sampled uniformly with
    replacement per published document; a single-entry pool pins every
    document to that fixed pair. `warmup` extends publication before the
    window start so the catalog looks stationary at time 0; when None it
    defaults to the :data:`WARMUP_TAU_PERCENTILE` percentile of the
    lifespan pool (documents with longer lifespans are ignored before the
    window, a small documented edge bias). `window` is at most 2**52 ms:
    request times are drawn in float64, which holds every half millisecond
    up to there, so each one rounded half-up stays in [0, window].
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
        for name, value in (("gamma", self.gamma), ("lambdas", lam), ("taus", tau),
                            ("warmup", self.warmup or 0.0)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.window > 2**52:
            raise ValueError(f"window must be at most 2**52 ms, got {self.window}")
        if len(lam) != len(tau) or len(lam) == 0:
            raise ValueError("lambdas and taus must be parallel, non-empty")
        if np.any(lam <= 0) or np.any(tau <= 0):
            raise ValueError("rates and lifespans must be positive")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @cached_property
    def warmup_ms(self) -> float:
        if self.warmup is not None:
            return float(self.warmup)
        # np.percentile's "linear" rule, bit for bit, without its import of numpy.ma
        taus, k = np.sort(self.taus), (len(self.taus) - 1) * (WARMUP_TAU_PERCENTILE / 100)
        if k >= len(taus) - 1:
            return float(taus[-1])
        a, b, g = taus[int(k)], taus[int(k) + 1], k - int(k)
        return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)

    @classmethod
    def fixed_pair(cls, gamma, window, lam, tau, warmup=None) -> "GeneratorConfig":
        return cls(gamma, window, np.array([lam]), np.array([tau]), warmup)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        """Load a config from its JSON document form:
        ``{gamma, window_ms, warmup_ms?, pairs: [[lambda, tau], ...]}``.

        Raises ValueError when the document is not of that form: not an
        object, a key missing, or a value of the wrong kind or out of its
        range.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("generator config must be a JSON object")
        missing = [key for key in ("gamma", "window_ms", "pairs") if key not in data]
        if missing:
            raise ValueError(f"generator config lacks {', '.join(missing)}")
        pairs = data["pairs"]
        if not (isinstance(pairs, list) and pairs
                and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
            raise ValueError("pairs must be a list of [lambda, tau] pairs")
        values = [data[key] for key in ("gamma", "window_ms", "warmup_ms") if key in data]
        for value in values + [value for pair in pairs for value in pair]:
            if type(value) not in (int, float):  # not a bool, a str or null
                raise ValueError(f"generator config has a malformed value: {value!r}")
        if data["window_ms"] % 1:  # not integral, or not finite
            raise ValueError("generator config has a malformed value: window_ms "
                             f"{data['window_ms']!r} is not an integer")
        try:
            pairs = np.asarray(pairs, dtype=float)
            gamma, window = float(data["gamma"]), int(data["window_ms"])
            warmup = float(data["warmup_ms"]) if "warmup_ms" in data else None
        except OverflowError as exc:  # an integer beyond float
            raise ValueError(f"generator config has a malformed value: {exc}") from None
        try:
            return cls(gamma=gamma, window=window, lambdas=pairs[:, 0], taus=pairs[:, 1],
                       warmup=warmup)
        except ValueError as exc:
            raise ValueError(f"generator config is out of range: {exc}") from None

    def to_dict(self) -> dict:
        """The JSON document form that :meth:`from_json` reads, as a dict."""
        return {"gamma": self.gamma, "window_ms": self.window, "warmup_ms": self.warmup_ms,
                "pairs": np.column_stack((self.lambdas, self.taus)).tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class Population:
    """A sampled document population with its raw (unclipped) requests.

    `counts` holds each document's full-lifespan Poisson request count;
    `req_doc`/`req_times` flatten all requests (continuous times, possibly
    outside the observation window) with `req_doc`, int32 (int64 from
    2**31 documents), indexing into the per-document arrays.
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
    idx = rng.integers(0, len(config.lambdas), n_docs)  # a one-pair pool draws no bits
    lam, tau = config.lambdas[idx], config.taus[idx]
    counts = rng.poisson(lam * tau)
    req_doc = np.repeat(np.arange(n_docs, dtype=np.int32 if n_docs < 2**31 else np.int64), counts)
    req_times = rng.random(len(req_doc))
    for lo in range(0, len(req_doc), _BLOCK):  # arrival + u * tau, in place
        doc = req_doc[lo:lo + _BLOCK]
        req_times[lo:lo + _BLOCK] *= np.take(tau, doc)
        req_times[lo:lo + _BLOCK] += np.take(arrivals, doc)
    return Population(arrivals, lam, tau, counts, req_doc, req_times)


def _indexed_trace(times, docs, used, n_docs: int, window: int) -> Trace:
    """The trace of requests to documents `docs`, which index the catalog
    indices `used` of a catalog of `n_docs` (see :func:`_compact`), each
    document named ``d%08d`` after its catalog index. Names of one width
    sort like their indices, so the table is ascending as made: from 10**8
    documents on, every index is padded to the width of the largest."""
    width = max(8, len(str(n_docs - 1)))
    names = np.array(list(map(f"d%0{width}d".__mod__, used.tolist())), dtype=object)
    return _make_trace(times, docs, names, window_length=window)


def generate_box_trace(config: GeneratorConfig, seed) -> Trace:
    """Generate a dynamic-catalog trace.

    Requests falling outside the observation window are dropped; surviving
    times are rounded half-up to integer milliseconds. Deterministic for a
    fixed seed (an int, or a pre-built ``numpy.random.SeedSequence``).
    """
    pop = sample_population(config, np.random.default_rng(seed))
    times, docs, n_docs = pop.req_times, pop.req_doc, len(pop.arrivals)
    del pop  # so each request column is held once
    kept = 0
    for lo in range(0, len(times), _BLOCK):  # the rows inside the window, moved down in place
        inside = (times[lo:lo + _BLOCK] >= 0) & (times[lo:lo + _BLOCK] <= config.window)
        rows = lo + np.flatnonzero(inside)
        end = kept + len(rows)
        times[kept:end], docs[kept:end] = np.floor(times[rows] + 0.5), docs[rows]
        kept = end
    docs, used = _compact(docs[:kept], np.arange(n_docs))
    times = times[:kept].astype(np.int64)
    return _indexed_trace(times, docs, used, n_docs, config.window)


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
    draws, used = _compact(draws, np.arange(len(weights)))
    return _indexed_trace(times, draws, used, len(weights), window)


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
    if min_requests < 1:
        raise ValueError("min_requests must be >= 1")
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if not np.all((t_grid >= 0) & (t_grid <= config.window)):  # NaN fails both
        raise ValueError("t_grid values must be finite and lie within [0, window]")
    counts = np.empty((reps, len(t_grid)), dtype=np.int64)
    for rep in range(reps):
        trace = generate_box_trace(config, np.random.SeedSequence([seed, rep]))
        # a document counts at t when its min_requests-th request is within [0, t]
        if min_requests == 1:
            kth_times = np.full(trace.distinct_docs, np.iinfo(np.int64).max)
            np.minimum.at(kth_times, trace.docs, trace.timestamps)
        else:
            per_doc = np.bincount(trace.docs)
            kth = (np.cumsum(per_doc) - per_doc)[per_doc >= min_requests] + (min_requests - 1)
            kth_times = trace.timestamps[_stable_order(trace.docs)[kth]]
        counts[rep] = np.searchsorted(np.sort(kth_times), t_grid, side="right")
    stderr = counts.std(axis=0, ddof=1) / math.sqrt(reps)
    return MonteCarloDistinct(t_grid, counts.mean(axis=0), stderr, reps, min_requests)
