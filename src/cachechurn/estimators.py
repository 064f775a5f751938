"""Per-document lifespan and request-rate estimation.

Each document observed at least twice yields an estimated lifespan and an
estimated request intensity from only its request count and its first and
last request times. The collection of those estimates, together with the
count of single-request documents, is the empirical sample that drives the
analytic hit-ratio prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .trace import Trace, TraceSummary

__all__ = [
    "EmpiricalJointSample",
    "solve_n_prime",
    "estimate_catalog_rate",
    "build_joint_sample",
    "rank_frequency",
]

#: Lifespan estimates are clamped below at 1 ms so that multi-request
#: documents whose requests share one timestamp still yield finite rates.
MIN_LIFESPAN_MS = 1.0

N_PRIME_TOL = 1e-10


@dataclass(frozen=True)
class EmpiricalJointSample:
    """Empirical joint (rate, lifespan) sample plus noise-class counts.

    `lambdas` and `taus` are parallel arrays holding one estimate pair per
    estimable document; `n1`/`n2` count the documents below/at the request
    threshold used to build the sample; `mean_n_multi` is the average
    request count over the estimable class; `window` is the observation
    window in ms.
    """

    lambdas: np.ndarray
    taus: np.ndarray
    n1: int
    n2: int
    mean_n_multi: float
    window: int

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        tau = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "taus", tau)
        if len(lam) != len(tau):
            raise ValueError("lambdas and taus length mismatch")
        if len(lam) != self.n2:
            raise ValueError("pair count must equal the estimable-doc count")
        if len(lam) and (np.any(lam <= 0) or np.any(tau <= 0)):
            raise ValueError("all pairs must be positive")

    @property
    def distinct_docs(self) -> int:
        return self.n1 + self.n2


def solve_n_prime(n, tol: float = N_PRIME_TOL, max_iter: int = 200):
    """Invert the zero-truncation bias of an observed Poisson count.

    Solves ``x / (1 - exp(-x)) = n`` for x: when a Poisson variable is
    observed only if positive, its conditional mean relates to the
    underlying mean x this way. Bracketed bisection on [0, n]; the left
    side is strictly increasing, so the positive root is unique. n = 1
    maps to the limit value 0.

    Parameters
    ----------
    n : float or array-like
        Observed counts, all >= 1.
    tol : float
        Residual bound ``|x/(1-exp(-x)) - n|`` of the returned root.

    Returns
    -------
    float or ndarray
        The root, scalar when `n` is scalar.
    """
    arr = np.asarray(n, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 1):
        raise ValueError("counts must be >= 1")
    lo = np.zeros_like(arr)
    hi = arr.copy()
    root = np.zeros_like(arr)
    open_mask = arr > 1  # n == 1 stays at the limit root 0
    for _ in range(max_iter):
        if not np.any(open_mask):
            break
        mid = 0.5 * (lo + hi)
        f = mid / -np.expm1(-mid)  # mid > 0: lo >= 0 and hi >= 1
        below = f < arr
        lo = np.where(open_mask & below, mid, lo)
        hi = np.where(open_mask & ~below, mid, hi)
        root = np.where(open_mask, mid, root)
        open_mask = open_mask & (np.abs(f - arr) > tol)
    return float(root[0]) if scalar else root


def estimate_catalog_rate(summary: TraceSummary, window: int) -> float:
    """Estimate the catalog publication rate, in documents per millisecond.

    Every distinct document observed in the window is taken as one catalog
    arrival, giving ``distinct_docs / window``.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    return summary.distinct_docs / window


def build_joint_sample(trace: Trace, min_requests: int = 2) -> EmpiricalJointSample:
    """Estimate (rate, lifespan) for every estimable document of a trace.

    Documents with fewer than `min_requests` requests form the noise class
    counted by ``n1``; the rest contribute one estimate pair each. The
    default threshold of 2 keeps every document the estimators are defined
    for; a higher threshold trades sample size against the high variance
    of two-request estimates.

    A document's lifespan is estimated from its n >= 2 requests spanning
    ``theta_last - theta_first``: the span of n uniform points on an
    interval underestimates the interval length by the factor
    (n-1)/(n+1), and the estimator inverts that bias. The result is
    clamped below at :data:`MIN_LIFESPAN_MS`. The observed count n
    overstates the underlying Poisson mean because zero-request documents
    are never observed; :func:`solve_n_prime` removes that bias before
    dividing by the estimated lifespan to give the request rate.

    Returns
    -------
    EmpiricalJointSample
    """
    if min_requests < 2:
        raise ValueError("min_requests must be >= 2")
    counts = np.bincount(trace.docs, minlength=len(trace.doc_names))
    first = np.full(len(counts), np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(len(counts), -1, dtype=np.int64)
    np.minimum.at(first, trace.docs, trace.timestamps)
    np.maximum.at(last, trace.docs, trace.timestamps)
    multi = counts >= min_requests
    n = counts[multi].astype(float)
    span = (last[multi] - first[multi]).astype(float)
    tau_hat = np.maximum(span * (n + 1) / (n - 1), MIN_LIFESPAN_MS)
    lambda_hat = solve_n_prime(n) / tau_hat
    return EmpiricalJointSample(
        lambdas=lambda_hat,
        taus=tau_hat,
        n1=int(np.count_nonzero(~multi)),
        n2=int(np.count_nonzero(multi)),
        mean_n_multi=float(n.mean()) if len(n) else 0.0,
        window=trace.window.length,
    )


def rank_frequency(trace: Trace) -> List[Tuple[int, int]]:
    """Request count per popularity rank, most requested first."""
    counts = np.sort(np.bincount(trace.docs, minlength=len(trace.doc_names)))
    return list(enumerate(counts[::-1].tolist(), start=1))
