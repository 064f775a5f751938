"""Trace randomizations (semi-experiments) and their comparison harness.

Each randomization destroys one correlation structure of a request trace
while preserving the rest, so the shift of the resulting LRU hit-ratio
curve measures how much that structure matters:

- global: every request is re-timestamped i.i.d. uniformly over the whole
  window, erasing all temporal structure (the result is an IRM trace);
- positional: each document's request block keeps its inter-arrival times
  but is shifted as a whole to a uniform position, erasing correlation
  between documents' publication times;
- local: each document keeps its first and last request times, interior
  requests are redrawn i.i.d. uniformly in between, erasing within-
  document structure while preserving per-document count, first and last
  times (and hence the lifespan/rate estimators).

Each randomization makes a few whole-array draws from one stream per
(seed, kind), in canonical order: by document code (name order), then by
time. So rows of different documents at one instant may come in any
order. Seeded outputs changed at 0.2.0, which replaced one stream per
document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from . import RANDOMIZATION_KINDS
from .lrusim import HitRatioCurve, hit_ratio_curve, mare
from ._order import _stable_order
from .trace import Trace, _make_trace

__all__ = [
    "RANDOMIZATION_KINDS",
    "SemiExperimentReport",
    "randomize_global",
    "randomize_positional",
    "randomize_local",
    "randomize",
    "run_semi_experiments",
]


def _stream(kind: str, seed: int) -> np.random.Generator:
    """The one stream of a randomization."""
    return np.random.default_rng([seed, RANDOMIZATION_KINDS.index(kind)])


def _canonical(trace: Trace, kind: str, seed: int):
    """The stream of a randomization, the timestamps and user codes in
    canonical order, and each document's request count."""
    order = _stable_order(trace.docs)
    users = None if trace.users is None else trace.users[order]
    counts = np.bincount(trace.docs, minlength=len(trace.doc_names))
    return _stream(kind, seed), trace.timestamps[order], users, counts


def _rebuild(trace: Trace, new_ts: np.ndarray, users, counts: np.ndarray) -> Trace:
    """The trace of the requests in canonical order, re-timed to `new_ts`."""
    docs = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    return _make_trace(new_ts, docs, trace.doc_names, users, trace.user_names, trace.window.length)


def randomize_global(trace: Trace, seed: int) -> Trace:
    """Re-timestamp every request i.i.d. uniformly over [0, window].

    Preserves document identities and per-document request counts;
    endpoints are inclusive. Deterministic for a fixed seed.
    """
    # only the users are needed in canonical order: every time is redrawn
    users = None if trace.users is None else trace.users[_stable_order(trace.docs)]
    counts = np.bincount(trace.docs, minlength=len(trace.doc_names))
    ts = _stream("global", seed).integers(0, trace.window.length, size=len(trace),
                                          endpoint=True)
    return _rebuild(trace, ts, users, counts)


def randomize_positional(trace: Trace, seed: int) -> Trace:
    """Shift each document's whole request block to a uniform position.

    The vector of inter-arrival times of every document is preserved
    exactly; the block start is drawn uniformly over the positions that
    keep the block inside the window (a block spanning the full window
    cannot move).
    """
    rng, ts, users, counts = _canonical(trace, "positional", seed)
    ends = np.cumsum(counts)
    first = ts[ends - counts]
    start = rng.integers(0, trace.window.length - (ts[ends - 1] - first), endpoint=True)
    ts += np.repeat(start - first, counts)
    return _rebuild(trace, ts, users, counts)


def randomize_local(trace: Trace, seed: int) -> Trace:
    """Redraw each document's interior request times uniformly.

    First and last request times stay fixed; requests in between are
    redrawn i.i.d. uniformly (inclusive endpoints) on that range.
    Documents with at most two requests, or with a zero-length span, are
    left unchanged. Preserves per-document (count, first, last) and
    therefore the lifespan/rate estimates. The i-th request of a document
    takes the i-th of its new times, so its users keep their order.
    """
    rng, ts, users, counts = _canonical(trace, "local", seed)
    ends = np.cumsum(counts)
    first, last = ts[ends - counts], ts[ends - 1]
    spans = last - first
    interior = np.where((counts > 2) & (spans > 0), counts - 2, 0)
    inner = np.repeat(interior > 0, counts)
    inner[ends - counts] = inner[ends - 1] = False
    ts[inner] = rng.integers(np.repeat(first, interior), np.repeat(last, interior),
                             endpoint=True)
    # each document's times lie in [first, last]: moved past the documents
    # before it, they sort by document and then by time, in one np.sort
    if sum(spans.tolist()) + len(spans) < 2**63:
        shift = np.cumsum(spans + 1) - spans - 1 - first
        ts += np.repeat(shift, counts)
        ts.sort()
        ts -= np.repeat(shift, counts)
    else:  # too wide for one int64 key
        ts = ts[np.lexsort((ts, np.repeat(np.arange(len(counts)), counts)))]
    return _rebuild(trace, ts, users, counts)


_RANDOMIZERS = {
    "global": randomize_global,
    "positional": randomize_positional,
    "local": randomize_local,
}


def randomize(trace: Trace, kind: str, seed: int) -> Trace:
    """Apply one randomization by name; see :data:`RANDOMIZATION_KINDS`."""
    if kind not in _RANDOMIZERS:
        raise ValueError(f"unknown randomization kind {kind!r}")
    return _RANDOMIZERS[kind](trace, seed)


@dataclass(frozen=True)
class SemiExperimentReport:
    """Hit-ratio curves of a trace and its three randomizations, plus the
    MARE of each randomized curve against the original (NaN where the
    original hit ratio is zero at some grid point, which leaves the MARE
    undefined). All curves share one cache-size grid."""

    original: HitRatioCurve
    randomized: Dict[str, HitRatioCurve]
    mare_values: Dict[str, float]


def run_semi_experiments(
    trace: Trace, sizes: Sequence[int], seed: int
) -> SemiExperimentReport:
    """Run all three randomizations and compare hit-ratio curves.

    Parameters
    ----------
    trace : Trace
        Non-empty trace.
    sizes : sequence of int
        Shared cache-size grid, positive strictly ascending.
    seed : int
        Root seed; each randomization derives its own stream.

    Returns
    -------
    SemiExperimentReport
    """
    if len(trace) == 0:
        raise ValueError("semi-experiments require a non-empty trace")
    original = hit_ratio_curve(trace, sizes)
    randomized = {}
    mare_values = {}
    for kind in RANDOMIZATION_KINDS:
        # each randomized trace goes with its curve, before the next is drawn
        curve = hit_ratio_curve(_RANDOMIZERS[kind](trace, seed), sizes)
        randomized[kind] = curve
        try:
            mare_values[kind] = mare(original, curve)
        except ValueError:  # zero reference hit ratio; the grids are shared
            mare_values[kind] = np.nan
    return SemiExperimentReport(
        original=original, randomized=randomized, mare_values=mare_values
    )
