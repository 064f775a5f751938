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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .lrusim import HitRatioCurve, hit_ratio_curve, mare
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

RANDOMIZATION_KINDS = ("global", "positional", "local")

_KIND_CODE = {kind: i for i, kind in enumerate(RANDOMIZATION_KINDS)}


def _doc_rng(seed: int, kind: str, doc: str) -> np.random.Generator:
    """Per-document random stream, stable under document iteration order.

    Mixes the root seed, the randomization kind and a stable 64-bit hash
    of the document identifier, so parallel and serial execution (and any
    grouping order) produce identical traces.
    """
    digest = hashlib.blake2b(doc.encode("utf-8"), digest_size=8).digest()
    entropy = [seed, _KIND_CODE[kind], int.from_bytes(digest, "little")]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _doc_groups(trace: Trace):
    """Each document's name and the indices of its requests, in time
    order, documents in name order."""
    order = np.argsort(trace.docs, kind="stable")  # groups, time order within
    ends = np.cumsum(np.bincount(trace.docs, minlength=len(trace.doc_names)))
    return zip(trace.doc_names, np.split(order, ends[:-1]))


def _rebuild(trace: Trace, new_ts: np.ndarray) -> Trace:
    return _make_trace(new_ts, trace.docs, trace.doc_names, trace.users,
                       trace.user_names, trace.window.length)


def randomize_global(trace: Trace, seed: int) -> Trace:
    """Re-timestamp every request i.i.d. uniformly over [0, window].

    Preserves document identities and per-document request counts;
    endpoints are inclusive. Deterministic for a fixed seed.
    """
    window = trace.window.length
    new_ts = trace.timestamps.copy()
    for doc, idx in _doc_groups(trace):
        rng = _doc_rng(seed, "global", doc)
        new_ts[idx] = rng.integers(0, window + 1, size=len(idx))
    return _rebuild(trace, new_ts)


def randomize_positional(trace: Trace, seed: int) -> Trace:
    """Shift each document's whole request block to a uniform position.

    The vector of inter-arrival times of every document is preserved
    exactly; the block start is drawn uniformly over the positions that
    keep the block inside the window (a block spanning the full window
    cannot move).
    """
    window = trace.window.length
    new_ts = trace.timestamps.copy()
    for doc, idx in _doc_groups(trace):
        rng = _doc_rng(seed, "positional", doc)
        ts = trace.timestamps[idx]
        span = int(ts[-1] - ts[0])
        start = int(rng.integers(0, window - span + 1))
        new_ts[idx] = start + (ts - ts[0])
    return _rebuild(trace, new_ts)


def randomize_local(trace: Trace, seed: int) -> Trace:
    """Redraw each document's interior request times uniformly.

    First and last request times stay fixed; requests in between are
    redrawn i.i.d. uniformly (inclusive endpoints) on that range.
    Documents with at most two requests, or with a zero-length span, are
    left unchanged. Preserves per-document (count, first, last) and
    therefore the lifespan/rate estimates.
    """
    new_ts = trace.timestamps.copy()
    for doc, idx in _doc_groups(trace):
        if len(idx) <= 2:
            continue
        ts = trace.timestamps[idx]
        first, last = int(ts[0]), int(ts[-1])
        if first == last:
            continue
        rng = _doc_rng(seed, "local", doc)
        interior = rng.integers(first, last + 1, size=len(idx) - 2)
        new_ts[idx] = np.concatenate(([first], np.sort(interior), [last]))
    return _rebuild(trace, new_ts)


_RANDOMIZERS = {
    "global": randomize_global,
    "positional": randomize_positional,
    "local": randomize_local,
}


def randomize(trace: Trace, kind: str, seed: int) -> Trace:
    """Apply one randomization by name; see :data:`RANDOMIZATION_KINDS`."""
    try:
        fn = _RANDOMIZERS[kind]
    except KeyError:
        raise ValueError(f"unknown randomization kind {kind!r}")
    return fn(trace, seed)


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
        Root seed; each randomization derives its own streams.

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
        shuffled = _RANDOMIZERS[kind](trace, seed)
        curve = hit_ratio_curve(shuffled, sizes)
        randomized[kind] = curve
        try:
            mare_values[kind] = mare(original, curve)
        except ValueError:  # zero reference hit ratio; the grids are shared
            mare_values[kind] = np.nan
    return SemiExperimentReport(
        original=original, randomized=randomized, mare_values=mare_values
    )
