"""Analytic LRU hit-ratio prediction for box-shaped document popularities.

A document published at some arrival time receives Poisson requests at a
constant rate over a finite lifespan (a "box" intensity profile); the
catalog itself grows as a homogeneous Poisson process. Under the Che
approximation the LRU hit ratio then follows from the mean working set
Psi(t), the expected number of distinct documents requested within any
window of length t: the cache size C maps to a characteristic time
t_C = Psi^{-1}(C), and a cached document survives roughly t_C without
being re-requested.

When Psi is estimated from a trace, single-request documents carry no
usable (rate, lifespan) estimate; they enter as a homogeneous "noise"
stream that linearly inflates the working set and produces no hits. The
classic IRM (static catalog) Che approximation is included as a baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Sequence

import numpy as np

if TYPE_CHECKING:  # an annotation only: `validate` runs without estimators
    from .estimators import EmpiricalJointSample

__all__ = [
    "WorkingSetModel",
    "CharacteristicTime",
    "box_working_set",
    "noise_working_set",
    "repeat_doc_window_mean",
    "characteristic_time",
    "expected_hits_per_doc",
    "mean_expected_hits",
    "box_hit_ratio_curve",
    "irm_che_curve",
]

#: Residual tolerance of the characteristic-time inversion, relative to C.
T_C_RESIDUAL_FACTOR = 1e-6

#: Below this x, series expansions replace the direct evaluation of the
#: exponential remainder terms: the direct forms cancel to O(x^2), losing
#: ~2*eps/x relative accuracy, while the series truncate at ~x^5 relative.
#: 5e-3 keeps both paths under ~1e-13 relative error.
SERIES_THRESHOLD = 5e-3


def _one_minus_exp(x):
    """1 - exp(-x), accurate for small x."""
    return -np.expm1(-x)


def _gap_weight(x):
    """1 - exp(-x) - x*exp(-x), accurate for small x.

    Equals the probability that a Poisson(x) count is at least 2. The two
    leading terms cancel to O(x^2), so small arguments use the series
    x^2/2 - x^3/3 + x^4/8 - x^5/30 + x^6/144.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(-np.expm1(-x) - x * np.exp(-x))
    small = x < SERIES_THRESHOLD
    x = x[small]  # the series only on the cells that use it
    out[small] = 0.5 * x * x * (1 - (2.0 / 3.0) * x + 0.25 * x * x - x**3 / 15.0 + x**4 / 72.0)
    return out if out.ndim else float(out)


def _ws_pair(lam, tau, t):
    """Working-set contribution of one (rate, lifespan) pair over a window
    of length t: 2s + (1 - e^{-lam s})(l - s - 2/lam) with s = min(tau, t)
    and l = max(tau, t). The lifespan and the window enter symmetrically,
    so past the lifespan (t > tau) it grows linearly in t."""
    s = np.minimum(tau, t)
    return 2.0 * s + _one_minus_exp(lam * s) * (np.maximum(tau, t) - s - 2.0 / lam)


def _repeat_pair(lam, tau, t):
    """Repeat-documents kernel of one pair over a window of length t:
    2s(1 - e^{-lam s}) + G(lam s)(l - s - 4/lam) with s = min(tau, t),
    l = max(tau, t) and G the :func:`_gap_weight`."""
    s = np.minimum(tau, t)
    return 2.0 * s * _one_minus_exp(lam * s) + _gap_weight(lam * s) * (
        np.maximum(tau, t) - s - 4.0 / lam
    )


def box_working_set(t, gamma: float, lambdas, taus):
    """Mean number of distinct documents requested in a window of length t.

    Averages the per-document window coverage over the (rate, lifespan)
    population and scales by the catalog publication rate `gamma`. For a
    document alive longer than the window the coverage grows sub-linearly
    with t; once the window outlives the document it grows linearly, each
    new catalog arrival contributing its probability of being requested at
    all.

    Parameters
    ----------
    t : float or 1-d array
        Window length(s), ms, >= 0.
    gamma : float
        Catalog publication rate, documents per ms, >= 0.
    lambdas, taus : array-like
        The (rate, lifespan) population, parallel arrays.

    Returns
    -------
    float or ndarray
        Matches the shape of `t`.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    lam = np.asarray(lambdas, dtype=float)
    tau = np.asarray(taus, dtype=float)
    if len(lam) == 0:
        return np.zeros_like(t_arr) if t_arr.ndim else 0.0
    tt = np.atleast_1d(t_arr)[:, None]
    per_pair = _ws_pair(lam, tau, tt)
    out = gamma * per_pair.mean(axis=1)
    return out if t_arr.ndim else float(out[0])


def noise_working_set(t, n_singles: int, window: int):
    """Working-set share of single-request documents.

    The noise class is modeled as a homogeneous request stream, so its
    expected distinct-document count over a window of length t is simply
    ``n_singles * t / window``.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    if window <= 0:
        raise ValueError("window must be positive")
    out = n_singles * t_arr / window
    return out if t_arr.ndim else float(out)


def repeat_doc_window_mean(lam, tau, t):
    """Per-pair kernel: expected distinct documents with at least two
    requests inside a window of length t, per unit catalog rate.

    Scaled by the catalog rate and averaged over the population this is
    the multi-request counterpart of :func:`noise_working_set`; the two
    together rebuild the full working set. `lam`, `tau` and `t` broadcast
    against each other.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be non-negative")
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    out = _repeat_pair(lam, tau, t_arr)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WorkingSetModel:
    """Estimated working-set function of a trace.

    Combines the linear noise share of the ``n1`` single-request documents
    with the catalog-rate-scaled population mean of the repeat-document
    kernel over the empirical (rate, lifespan) sample. Instances are
    callable: ``model(t)`` evaluates the estimated working set, a
    non-decreasing function with value 0 at t = 0.
    """

    gamma_hat: float
    sample: EmpiricalJointSample

    def __post_init__(self):
        if self.sample.n2 > 0 and self.gamma_hat <= 0:
            raise ValueError("gamma_hat must be positive for a non-empty sample")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        noise = noise_working_set(t_arr, self.sample.n1, self.sample.window)
        if self.sample.n2 == 0:
            return noise
        tt = np.atleast_1d(t_arr)[:, None]
        kernel = repeat_doc_window_mean(self.sample.lambdas, self.sample.taus, tt)
        out = noise + self.gamma_hat * kernel.mean(axis=1)
        return out if t_arr.ndim else float(out[0])


@dataclass(frozen=True)
class CharacteristicTime:
    """Inversion result t_C of the working set at one cache size."""

    t_c: float
    cache_size: float
    residual: float

    def __post_init__(self):
        if self.residual > T_C_RESIDUAL_FACTOR * self.cache_size:
            raise ValueError(
                f"characteristic time residual {self.residual:g} exceeds "
                f"{T_C_RESIDUAL_FACTOR:g} * C"
            )


def characteristic_time(
    cache_sizes,
    working_set: Callable[[np.ndarray], np.ndarray],
    initial_upper: float = 1.0,
) -> List[CharacteristicTime]:
    """Invert a monotone working-set function at every cache size at once.

    Each size grows its upper bracket geometrically (factor 2, starting
    from `initial_upper`, typically the observation window) until the
    working set reaches it, then bisects to a residual of at most
    ``1e-6 * C``. The sizes still open share one `working_set` call per
    step, on the array of their window lengths, and each takes the steps
    it would take alone. Returns one CharacteristicTime per size.

    Raises
    ------
    ValueError
        When the working set stops growing (or the bracket overflows)
        below a cache size: the cache is larger than the reachable catalog.
    """
    sizes = np.atleast_1d(np.asarray(cache_sizes, dtype=float))
    if np.any(sizes <= 0):
        raise ValueError("cache_size must be positive")
    if initial_upper <= 0:
        raise ValueError("initial_upper must be positive")
    lo = np.zeros_like(sizes)
    hi = np.full_like(sizes, float(initial_upper))
    val = np.asarray(working_set(hi), dtype=float)
    grow = val < sizes
    while np.any(grow):
        prev = val[grow]
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        val[grow] = working_set(hi[grow])
        stuck = np.flatnonzero(grow)[(val[grow] <= prev) | ~np.isfinite(hi[grow])]
        if len(stuck):
            i = stuck[0]
            raise ValueError(
                f"cache larger than reachable catalog: working set "
                f"saturates near {val[i]:g} below C={sizes[i]:g}"
            )
        grow = val < sizes
    tol = T_C_RESIDUAL_FACTOR * sizes
    t = hi.copy()
    residual = np.abs(val - sizes)
    for _ in range(200):
        bisect = ~(residual <= tol)
        if not np.any(bisect):
            break
        mid = 0.5 * (lo[bisect] + hi[bisect])
        v = np.asarray(working_set(mid), dtype=float)
        t[bisect] = mid
        residual[bisect] = np.abs(v - sizes[bisect])
        below = v < sizes[bisect]
        lo[bisect] = np.where(below, mid, lo[bisect])
        hi[bisect] = np.where(below, hi[bisect], mid)
    return [
        CharacteristicTime(t_c=float(tc), cache_size=float(c), residual=float(r))
        for tc, c, r in zip(t, sizes, residual)
    ]


def _hits_pair(lam, tau, t_c):
    """Expected hits of one pair: x(1 - e^{-y}) - G(y) with x = lam*tau and
    y = lam*min(tau, t_C), G the :func:`_gap_weight`. This is
    (x-1)(1-e^-y) + y e^-y written so that it stays cancellation-free for
    y <= x; at y = x it is x - 1 + e^-x, the mean Poisson count beyond the
    first."""
    x = lam * tau
    y = lam * np.minimum(tau, t_c)
    return x * _one_minus_exp(y) - _gap_weight(y)


def expected_hits_per_doc(lam, tau, t_c):
    """Expected LRU hits to one document at characteristic time t_C.

    A request hits when the gap since the previous request of the same
    document is at most t_C. A lifespan no longer than t_C keeps every
    request after the first as a hit; a longer one loses the gaps that
    exceed t_C. One formula covers both, in min(tau, t_C). Broadcasts
    over array `lam`/`tau`.

    Returns
    -------
    float or ndarray
        Non-negative, at most ``lam * tau``.
    """
    if np.any(np.asarray(t_c) < 0):
        raise ValueError("t_c must be non-negative")
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(tau, dtype=float)
    out = _hits_pair(lam, tau, t_c)
    return out if out.ndim else float(out)


def mean_expected_hits(lambdas, taus, t_c):
    """Population mean of :func:`expected_hits_per_doc`, one per t_C.

    Returns a float for a scalar `t_c`, an array for a 1-d `t_c`.
    """
    lam = np.asarray(lambdas, dtype=float)
    if len(lam) == 0:
        raise ValueError("empty population")
    t_arr = np.asarray(t_c, dtype=float)
    tt = np.atleast_1d(t_arr)[:, None]
    out = expected_hits_per_doc(lam, np.asarray(taus, float), tt).mean(axis=1)
    return out if t_arr.ndim else float(out[0])


def box_hit_ratio_curve(
    sample: EmpiricalJointSample, gamma_hat: float, sizes: Sequence[int]
):
    """Predicted LRU hit-ratio curve over a cache-size grid.

    Inverts the estimated working set at every cache size, averages the
    per-document expected hits over the sample at each t_C, and divides
    by the mean request count per document. Single-request documents
    produce no hits but dilute the denominator by ``n1/n2`` requests per
    estimable document.

    Returns
    -------
    (HitRatioCurve, list of CharacteristicTime)
        The curve shares the conventions of the simulated one (relative
        size is against the distinct documents of the source trace); the
        characteristic times are returned for diagnostics.

    Raises
    ------
    ValueError
        When the sample holds no estimable documents (n2 = 0).
    """
    from .lrusim import HitRatioCurve, check_cache_sizes

    if sample.n2 == 0:
        raise ValueError("no estimable documents")
    sizes = check_cache_sizes(sizes)
    model = WorkingSetModel(gamma_hat=gamma_hat, sample=sample)
    times = characteristic_time(sizes, model, initial_upper=sample.window)
    t_c = np.array([tc.t_c for tc in times])
    hits = mean_expected_hits(sample.lambdas, sample.taus, t_c)
    denominator = sample.mean_n_multi + sample.n1 / sample.n2
    curve = HitRatioCurve(
        cache_sizes=sizes,
        relative_sizes=sizes / sample.distinct_docs,
        hit_ratios=hits / denominator,
    )
    return curve, times


def irm_che_curve(
    doc_counts: Sequence[int], window: int, sizes: Sequence[int]
) -> HitRatioCurve:
    """Classic Che approximation for a static catalog (IRM baseline).

    Treats each document as an independent Poisson stream of rate
    ``count / window``. For each cache size C the characteristic time
    solves ``sum_d (1 - exp(-rate_d * t)) = C`` and the hit ratio is the
    request-weighted mean of the per-document hit probabilities.

    Cache sizes at or beyond the number of documents cannot be inverted;
    those points are clamped to the cold-miss ceiling
    ``1 - m / total_requests`` with a warning.
    """
    from .lrusim import HitRatioCurve, check_cache_sizes

    counts = np.asarray(doc_counts, dtype=float)
    if len(counts) == 0 or np.any(counts <= 0):
        raise ValueError("doc_counts must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    sizes = check_cache_sizes(sizes)
    rates = counts / window
    total = counts.sum()
    m = len(counts)

    def occupancy(t):
        return np.sum(_one_minus_exp(rates * t[:, None]), axis=1)

    ratios = np.full(len(sizes), 1.0 - m / total)
    inside = sizes < m
    times = characteristic_time(sizes[inside], occupancy, initial_upper=float(window))
    t_c = np.array([tc.t_c for tc in times])[:, None]
    ratios[inside] = np.sum(counts * _one_minus_exp(rates * t_c), axis=1) / total
    if not np.all(inside):
        warnings.warn(
            "cache sizes >= document count clamped to the cold-miss ceiling",
            stacklevel=2,
        )
    return HitRatioCurve(
        cache_sizes=sizes,
        relative_sizes=sizes / m,
        hit_ratios=ratios,
        total_requests=int(total),
    )
