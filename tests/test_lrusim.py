import io
import math
import tracemalloc

import numpy as np
import pytest

from cachechurn.lrusim import (
    HitRatioCurve,
    StackDistanceProfile,
    brute_force_lru,
    hit_ratio_curve,
    log_size_grid,
    mare,
    read_curve_csv,
    stack_distances,
    write_curve_csv,
)
from cachechurn.trace import build_trace

from conftest import random_trace


def naive_stack_distances(docs):
    """Quadratic per-request distinct-count scan (oracle)."""
    last, out = {}, []
    docs = list(docs)
    for i, d in enumerate(docs):
        if d in last:
            out.append(len(set(docs[last[d] + 1 : i])) + 1)
        else:
            out.append(-1)
        last[d] = i
    return out


def test_stack_distances_aba():
    prof = stack_distances(build_trace([0, 1, 2], ["a", "b", "a"]))
    assert prof.histogram == {2: 1, math.inf: 2}


def test_stack_distances_immediate_repeat():
    prof = stack_distances(build_trace([0, 1], ["a", "a"]))
    assert prof.histogram == {1: 1, math.inf: 1}


def test_stack_distances_against_naive_scan(rng):
    tr = random_trace(rng, 1000, 40)
    prof = stack_distances(tr)
    assert list(prof.distances) == naive_stack_distances(tr.doc_names[tr.docs])
    assert sum(prof.histogram.values()) == prof.total_requests


@pytest.mark.parametrize(
    "m", sorted({1, 2, 3} | {2**k + e for k in range(1, 11) for e in (-1, 0, 1)})
)
def test_stack_distances_every_length(rng, m):
    # the closing immediate repeat makes the largest position value M - 1
    # occur, so a pass over one bit too few would miss it
    docs = [f"d{int(i)}" for i in rng.integers(0, max(m // 4, 1), m)]
    if m > 1:
        docs[-1] = docs[-2]
    tr = build_trace(np.arange(m), docs)
    prof = stack_distances(tr)
    assert prof.distances.dtype == np.int64
    assert list(prof.distances) == naive_stack_distances(docs)
    # the first document returns only at the last request: the smallest
    # repeat value, 1, at the last position
    docs = ["first"] + docs[1:-1] + ["first"] * (m > 1)
    prof = stack_distances(build_trace(np.arange(len(docs)), docs))
    assert list(prof.distances) == naive_stack_distances(docs)


def test_stack_distances_all_distinct():
    prof = stack_distances(build_trace(np.arange(300), [f"d{i}" for i in range(300)]))
    assert np.all(prof.distances == -1)
    assert prof.histogram == {math.inf: 300}


def test_stack_distances_single_document():
    prof = stack_distances(build_trace(np.arange(257), ["a"] * 257))
    assert prof.distances[0] == -1 and np.all(prof.distances[1:] == 1)


def test_stack_distances_equal_timestamps(rng):
    # simultaneous requests keep their input order
    docs = [f"d{int(i)}" for i in rng.integers(0, 9, 200)]
    prof = stack_distances(build_trace(np.full(200, 42), docs))
    assert list(prof.distances) == naive_stack_distances(docs)


def test_stack_distances_memory_budget(rng):
    # int32 working arrays peak near 30 bytes a request; int64 ones would
    # take about twice that, which shows in the peak RSS of every simulation
    tr = random_trace(rng, 2**17, 5000)
    tracemalloc.start()
    try:
        stack_distances(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(tr)
    assert peak <= 34 * len(tr)


@pytest.mark.parametrize("sizes", [[1, 3, 2], [5, 0, -2, 1], [10**12, 4, 2**40], []])
@pytest.mark.parametrize("distances", [
    [-1, -1, 1, 2, 1, -1, 3, 2],
    [-1, -1, -1],  # no finite distance
    [],
])
def test_hits_at_counts_distances_up_to_each_size(sizes, distances):
    prof = StackDistanceProfile(np.array(distances, dtype=np.int64))
    expected = [sum(0 <= d <= c for d in distances) for c in sizes]
    assert prof.hits_at(np.array(sizes, dtype=np.int64)).tolist() == expected


def test_hit_ratio_aba():
    tr = build_trace([0, 1, 2], ["a", "b", "a"])
    curve = hit_ratio_curve(tr, [1, 2])
    assert curve.hit_ratios[0] == 0.0
    assert curve.hit_ratios[1] == pytest.approx(1 / 3)


def test_hit_ratio_cold_miss_ceiling(rng):
    tr = random_trace(rng, 500, 25)
    distinct = tr.distinct_docs
    curve = hit_ratio_curve(tr, [distinct, distinct + 10])
    expected = 1 - distinct / len(tr)
    assert curve.hit_ratios[0] == pytest.approx(expected)
    assert curve.hit_ratios[1] == pytest.approx(expected)


def test_hit_ratio_matches_brute_force(rng):
    tr = random_trace(rng, 10_000, 300)
    sizes = list(range(1, 51))
    curve = hit_ratio_curve(tr, sizes)
    for c, ratio in zip(sizes, curve.hit_ratios):
        assert ratio == pytest.approx(brute_force_lru(tr, c) / len(tr), abs=0)


def test_hit_ratio_monotone(rng):
    tr = random_trace(rng, 2000, 100)
    curve = hit_ratio_curve(tr, list(range(1, 120, 3)))
    assert np.all(np.diff(curve.hit_ratios) >= 0)


def test_hit_ratio_depends_on_order_only(rng):
    tr = random_trace(rng, 800, 60)
    sizes = [1, 2, 5, 10, 40]
    # re-space timestamps, preserving order
    respaced = build_trace(
        np.arange(len(tr)) * 7, tr.doc_names[tr.docs], None, window_length=len(tr) * 7
    )
    a = hit_ratio_curve(tr, sizes)
    b = hit_ratio_curve(respaced, sizes)
    assert np.array_equal(a.hit_ratios, b.hit_ratios)


def test_hit_ratio_empty_trace():
    with pytest.raises(ValueError, match="empty"):
        hit_ratio_curve(build_trace([], []), [1])


def test_hit_ratio_bad_sizes(rng):
    tr = random_trace(rng, 10, 3)
    with pytest.raises(ValueError):
        hit_ratio_curve(tr, [0, 1])
    with pytest.raises(ValueError):
        hit_ratio_curve(tr, [2, 2])


def test_relative_sizes(rng):
    tr = random_trace(rng, 400, 37)
    curve = hit_ratio_curve(tr, [1, 10])
    assert curve.relative_sizes[1] == pytest.approx(10 / tr.distinct_docs)


def test_brute_force_examples():
    assert brute_force_lru(build_trace([0, 1, 2], ["a", "b", "a"]), 2) == 1
    assert brute_force_lru(build_trace([0, 1, 2, 3], ["a", "b", "c", "a"]), 2) == 0


def test_brute_force_full_capacity(rng):
    tr = random_trace(rng, 700, 40)
    assert brute_force_lru(tr, tr.distinct_docs) == len(tr) - tr.distinct_docs


def test_equal_timestamp_repeat_is_hit():
    # two simultaneous requests to one doc: the second hits at any C >= 1
    tr = build_trace([5, 5], ["a", "a"])
    assert brute_force_lru(tr, 1) == 1
    prof = stack_distances(tr)
    assert prof.histogram[1] == 1


def make_curve(sizes, ratios):
    sizes = np.asarray(sizes)
    return HitRatioCurve(sizes, sizes / 10, np.asarray(ratios))


def test_mare_identical_zero():
    a = make_curve([1, 2], [0.5, 0.6])
    assert mare(a, a) == 0.0


def test_mare_single_point():
    assert mare(make_curve([1], [0.5]), make_curve([1], [0.4])) == pytest.approx(0.2)


def test_mare_two_points():
    m = mare(make_curve([1, 2], [0.5, 0.2]), make_curve([1, 2], [0.45, 0.25]))
    assert m == pytest.approx(0.175)


def test_mare_grid_mismatch():
    with pytest.raises(ValueError, match="grid"):
        mare(make_curve([1, 2], [0.5, 0.6]), make_curve([1, 3], [0.5, 0.6]))


def test_mare_zero_reference_names_point():
    with pytest.raises(ValueError, match="cache size 2"):
        mare(make_curve([1, 2], [0.5, 0.0]), make_curve([1, 2], [0.5, 0.1]))


def test_log_size_grid():
    grid = log_size_grid(1000, 40)
    assert grid[0] == 1 and grid[-1] == 1000
    assert np.all(np.diff(grid) > 0)
    assert len(grid) <= 40


def test_curve_csv_roundtrip(rng):
    tr = random_trace(rng, 300, 20)
    curve = hit_ratio_curve(tr, [1, 3, 9])
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "cache_size,relative_size,hit_ratio"
    assert len(lines) == 4
    back = read_curve_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.cache_sizes, curve.cache_sizes)
    assert np.allclose(back.hit_ratios, curve.hit_ratios, rtol=1e-5)
