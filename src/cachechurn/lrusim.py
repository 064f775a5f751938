"""Exact LRU hit-ratio computation via stack distances.

A request hits an LRU cache of capacity C exactly when its stack distance
(the number of distinct documents requested since the previous request to
the same document, counting the document itself) is at most C. One
computation of all M stack distances therefore yields the hit ratio at
every cache size simultaneously. It counts, for every request at once, the
earlier requests whose previous-request position lies below its own, with
O(log M) whole-array passes of a wavelet matrix: O(M log M) time and no
Python loop per request. An explicit-list simulator is kept as an oracle.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence, Union

import numpy as np

from ._order import _BLOCK, _stable_order
from .trace import Trace

__all__ = [
    "StackDistanceProfile",
    "HitRatioCurve",
    "stack_distances",
    "hit_ratio_curve",
    "check_cache_sizes",
    "brute_force_lru",
    "mare",
    "log_size_grid",
    "write_curve_csv",
    "read_curve_csv",
]

DEFAULT_GRID_POINTS = 40


@dataclass(frozen=True)
class StackDistanceProfile:
    """Per-request stack distances of a trace.

    `distances` holds one entry per request in trace order; first requests
    of a document (infinite distance) are stored as -1 and reported under
    the ``math.inf`` key of :attr:`histogram`.
    """

    distances: np.ndarray

    @property
    def total_requests(self) -> int:
        return len(self.distances)

    @property
    def infinite_count(self) -> int:
        """Requests with no prior request to the same document."""
        return int(np.count_nonzero(self.distances < 0))

    @property
    def histogram(self) -> Dict[Union[int, float], int]:
        """Map from stack distance (or ``math.inf``) to request count."""
        finite = self.distances[self.distances >= 0]
        values, counts = np.unique(finite, return_counts=True)
        hist: Dict[Union[int, float], int] = {
            int(v): int(c) for v, c in zip(values, counts)
        }
        inf = self.infinite_count
        if inf:
            hist[math.inf] = inf
        return hist

    def hits_at(self, sizes: Sequence[int]) -> np.ndarray:
        """Number of requests with stack distance <= C, per cache size C."""
        sizes, finite = np.asarray(sizes), self.distances[self.distances >= 0]
        top = min(int(sizes.max(initial=0)), int(finite.max(initial=0))) + 1
        hits = np.cumsum(np.bincount(np.minimum(finite, top, out=finite), minlength=top + 1))
        return hits[np.clip(sizes, 0, top - 1)]  # no distance is 0, so no size < 1 hits


@dataclass(frozen=True)
class HitRatioCurve:
    """Hit ratio as a function of cache size, on a fixed size grid.

    `relative_sizes` expresses each cache size as a fraction of the
    distinct documents of the source trace.
    """

    cache_sizes: np.ndarray
    relative_sizes: np.ndarray
    hit_ratios: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "cache_sizes", np.asarray(self.cache_sizes, dtype=np.int64)
        )
        object.__setattr__(
            self, "relative_sizes", np.asarray(self.relative_sizes, dtype=float)
        )
        object.__setattr__(
            self, "hit_ratios", np.asarray(self.hit_ratios, dtype=float)
        )
        if not (
            len(self.cache_sizes) == len(self.relative_sizes) == len(self.hit_ratios)
        ):
            raise ValueError("curve columns must have equal length")

    def __len__(self) -> int:
        return len(self.cache_sizes)

    @property
    def points(self):
        """Iterate (cache_size, relative_size, hit_ratio) tuples."""
        return list(
            zip(
                (int(c) for c in self.cache_sizes),
                (float(r) for r in self.relative_sizes),
                (float(h) for h in self.hit_ratios),
            )
        )


def stack_distances(trace: Trace) -> StackDistanceProfile:
    """Compute the stack distance of every request with whole-array passes.

    Let ``v[i]`` be one plus the position of the previous request to the
    document of request i, or 0 for a first request. The requests j
    between that previous request and i with ``v[j] < v[i]`` are the
    first requests there to each distinct document, and the ``v[i]``
    requests up to and including the previous one all have
    ``v[j] < v[i]``, so a repeat's stack distance is
    ``#{j < i : v[j] < v[i]} - v[i] + 1``.

    These prefix rank counts are answered together by a wavelet matrix
    over ``v`` (Claude, Navarro & Ordonez, 2015). The upper end of query
    ``[0, i)`` is where ``v[i]`` stands in each level's order, so a level
    takes one cumulative count of zeros, one gather of it and one scatter
    of each value's next bit; a lower end depends only on the bits above
    the level, so a table per prefix holds it. O(M log M) time for M
    requests, in a few int32 working arrays (int64 from 2**31 requests).

    Parameters
    ----------
    trace : Trace

    Returns
    -------
    StackDistanceProfile
    """
    m = len(trace)
    idx = np.int32 if m < 2**31 else np.int64
    order = _stable_order(trace.docs).astype(idx)
    codes = trace.docs[order]
    prev = order[:-1] + 1  # candidate v of the request that follows in `order`
    prev *= codes[1:] == codes[:-1]
    del codes  # free each array when done: the peak is about 29 bytes a request
    v = np.zeros(m, dtype=idx)
    v[order[1:]] = prev
    del order, prev

    levels = max(m - 1, 0).bit_length()  # v < m
    pos = np.arange(m, dtype=idx)  # where each value stands in the level's order
    zero = np.less(v, 1 << levels >> 1)  # the level's bits, 0 as True, in that order
    rank0 = np.zeros(m + 1, dtype=idx)  # zeros among the first j values
    below = np.zeros(m, dtype=idx)
    # per prefix of the bits above the level: its node's start, and the zeros
    # before the starts where the prefix has a 1, which the lower ends count
    start = lower = np.zeros(1, dtype=idx)
    for level in reversed(range(levels)):
        np.cumsum(zero, dtype=idx, out=rank0[1:])
        z = rank0[m]
        r, size = rank0[start], ((m - 1) >> level) + 1
        lower = np.column_stack((lower, lower + r)).ravel()[:size]
        start = np.column_stack((r, start - r + z)).ravel()[:size] if level else None
        for lo in range(0, m, _BLOCK):
            p, u = pos[lo:lo + _BLOCK], v[lo:lo + _BLOCK]
            r, one = np.take(rank0, p), u >> level
            one &= 1
            # a value with this bit set counts the zeros before it and moves
            # to the ones, at z + p - r; any other moves to the zeros, at r.
            # As one sum, which is faster than masked ufuncs.
            p += z - 2 * r
            p *= one
            p += r
            below[lo:lo + _BLOCK] += r * one
            if level:  # the next level's bits, each to its value's new place
                zero[p] = u & (1 << level >> 1) == 0
    del pos, zero, rank0, start

    below -= lower[v]
    below -= v - 1
    dist = below.astype(np.int64)
    dist[v == 0] = -1
    return StackDistanceProfile(dist)


def brute_force_lru(trace: Trace, size: int) -> int:
    """Count LRU hits by explicit simulation of a capacity-`size` cache.

    Oracle counterpart of the stack-distance path; O(M) per cache size.
    """
    if size < 1:
        raise ValueError("cache size must be >= 1")
    cache: OrderedDict = OrderedDict()
    hits = 0
    for doc in trace.docs.tolist():
        if doc in cache:
            hits += 1
            cache.move_to_end(doc)
        else:
            if len(cache) >= size:
                cache.popitem(last=False)
            cache[doc] = None
    return hits


def log_size_grid(max_size: int, count: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Logarithmically spaced integer cache sizes from 1 to `max_size`.

    Duplicates after rounding are dropped, so the grid may hold fewer than
    `count` sizes for small catalogs.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    return _rounded_sizes(np.geomspace(1, max_size, count))


def _rounded_sizes(grid) -> np.ndarray:
    """The distinct integer cache sizes an ascending real-valued `grid`
    rounds to, ascending. Rounding keeps the order, so a size is new when
    it differs from the one before it."""
    sizes = np.rint(grid).astype(np.int64)
    return sizes[np.diff(sizes, prepend=sizes[:1] - 1) != 0]


def check_cache_sizes(sizes: Sequence[int]) -> np.ndarray:
    """Cache sizes as an int64 array, checked non-empty, positive and
    strictly ascending."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) == 0 or sizes[0] < 1 or np.any(np.diff(sizes) <= 0):
        raise ValueError("sizes must be positive and strictly ascending")
    return sizes


def hit_ratio_curve(trace: Trace, sizes: Sequence[int]) -> HitRatioCurve:
    """Simulate the LRU hit ratio of a trace at every requested cache size.

    Parameters
    ----------
    trace : Trace
        Non-empty request trace.
    sizes : sequence of int
        Cache sizes, positive and strictly ascending.

    Returns
    -------
    HitRatioCurve
    """
    if len(trace) == 0:
        raise ValueError("hit ratio undefined for an empty trace")
    sizes = check_cache_sizes(sizes)
    profile = stack_distances(trace)
    hits = profile.hits_at(sizes)
    total = profile.total_requests
    distinct = trace.distinct_docs
    return HitRatioCurve(
        cache_sizes=sizes,
        relative_sizes=sizes / distinct,
        hit_ratios=hits / total,
    )


def mare(reference: HitRatioCurve, model: HitRatioCurve) -> float:
    """Mean absolute relative error of `model` against `reference`.

    Computes ``(1/N) * sum(|x_i - y_i| / |x_i|)`` with x the reference
    curve, over a shared cache-size grid.

    Raises
    ------
    ValueError
        When the grids differ, or a reference value is zero (naming the
        grid point).
    """
    if len(reference) != len(model) or np.any(
        reference.cache_sizes != model.cache_sizes
    ):
        raise ValueError("curves are on different cache-size grids")
    x = reference.hit_ratios
    zero = np.flatnonzero(x == 0)
    if len(zero):
        c = int(reference.cache_sizes[zero[0]])
        raise ValueError(f"reference hit ratio is zero at cache size {c}")
    return float(np.mean(np.abs(x - model.hit_ratios) / np.abs(x)))


def write_curve_csv(curve: HitRatioCurve, writer) -> None:
    """Write a curve as `cache_size,relative_size,hit_ratio` CSV rows.

    Floats carry 6 significant digits.
    """
    out = csv.writer(writer, lineterminator="\n")
    out.writerow(["cache_size", "relative_size", "hit_ratio"])
    for c, r, h in curve.points:
        out.writerow([c, f"{r:.6g}", f"{h:.6g}"])


def read_curve_csv(reader) -> HitRatioCurve:
    """Read a curve written by :func:`write_curve_csv`."""
    rows = csv.reader(reader)
    header = next(rows)
    if header != ["cache_size", "relative_size", "hit_ratio"]:
        raise ValueError(f"unexpected curve header {header!r}")
    sizes, rel, ratios = [], [], []
    for row in rows:
        if not row:
            continue
        sizes.append(int(row[0]))
        rel.append(float(row[1]))
        ratios.append(float(row[2]))
    return HitRatioCurve(np.array(sizes), np.array(rel), np.array(ratios))
