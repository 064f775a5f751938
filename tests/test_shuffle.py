from collections import Counter

import numpy as np
import pytest

from cachechurn.estimators import build_joint_sample
from cachechurn.lrusim import log_size_grid, mare, hit_ratio_curve
from cachechurn.shuffle import (
    randomize_global,
    randomize_local,
    randomize_positional,
    run_semi_experiments,
)
from cachechurn.synth import GeneratorConfig, generate_box_trace, generate_irm_trace
from cachechurn.trace import build_trace, trace_stats

from conftest import random_trace


def doc_counts(trace):
    return Counter(trace.doc_names[trace.docs])


def doc_times(trace):
    times = {}
    for t, d in zip(trace.timestamps, trace.doc_names[trace.docs]):
        times.setdefault(d, []).append(int(t))
    return times


@pytest.mark.parametrize(
    "randomize", [randomize_global, randomize_positional, randomize_local]
)
def test_preserves_counts_and_window(rng, randomize):
    tr = random_trace(rng, 400, 30)
    out = randomize(tr, seed=7)
    assert doc_counts(out) == doc_counts(tr)
    assert len(out) == len(tr)
    assert out.window.length == tr.window.length
    assert out.timestamps.min() >= 0
    assert out.timestamps.max() <= tr.window.length


@pytest.mark.parametrize(
    "randomize", [randomize_global, randomize_positional, randomize_local]
)
def test_deterministic_under_seed(rng, randomize):
    tr = random_trace(rng, 300, 25)
    a = randomize(tr, seed=42)
    b = randomize(tr, seed=42)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.doc_names[a.docs], b.doc_names[b.docs])
    c = randomize(tr, seed=43)
    assert not np.array_equal(c.timestamps, a.timestamps)


def test_global_empty_trace():
    tr = build_trace([], [], window_length=100)
    assert len(randomize_global(tr, seed=1)) == 0


def test_positional_preserves_interarrival_vectors(rng):
    tr = random_trace(rng, 500, 40)
    out = randomize_positional(tr, seed=3)
    before = {d: np.diff(ts).tolist() for d, ts in doc_times(tr).items()}
    after = {d: np.diff(ts).tolist() for d, ts in doc_times(out).items()}
    assert before == after


def test_positional_full_span_document_fixed():
    window = 1000
    tr = build_trace([0, 250, 1000], ["a", "a", "a"], window_length=window)
    out = randomize_positional(tr, seed=9)
    assert list(out.timestamps) == [0, 250, 1000]


def test_local_identity_below_three_requests():
    tr = build_trace([3, 100, 200], ["a", "b", "b"], window_length=500)
    out = randomize_local(tr, seed=5)
    assert np.array_equal(out.timestamps, tr.timestamps)
    assert np.array_equal(out.doc_names[out.docs], tr.doc_names[tr.docs])


def test_local_preserves_count_first_last(rng):
    tr = random_trace(rng, 600, 20)
    out = randomize_local(tr, seed=11)
    before, after = doc_times(tr), doc_times(out)
    for d in before:
        assert len(before[d]) == len(after[d])
        assert before[d][0] == after[d][0]
        assert before[d][-1] == after[d][-1]


def test_local_interior_stays_inside(rng):
    tr = random_trace(rng, 600, 10)
    out = randomize_local(tr, seed=13)
    for d, ts in doc_times(out).items():
        assert all(ts[0] <= t <= ts[-1] for t in ts)


def test_local_leaves_estimators_invariant(rng):
    tr = random_trace(rng, 800, 25)
    out = randomize_local(tr, seed=17)
    a = build_joint_sample(tr)
    b = build_joint_sample(out)
    assert (a.n1, a.n2, a.mean_n_multi) == (b.n1, b.n2, b.mean_n_multi)
    assert np.array_equal(a.taus, b.taus)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_report_shares_grid_and_summaries(rng):
    tr = random_trace(rng, 1000, 60)
    sizes = log_size_grid(tr.distinct_docs, 12)
    report = run_semi_experiments(tr, sizes, seed=23)
    assert set(report.mare_values) == {"global", "positional", "local"}
    original_summary = trace_stats(tr)
    for kind in ("positional", "local"):
        shuffled = (
            randomize_positional(tr, 23) if kind == "positional" else randomize_local(tr, 23)
        )
        assert trace_stats(shuffled) == original_summary
    for curve in report.randomized.values():
        assert np.array_equal(curve.cache_sizes, report.original.cache_sizes)


def test_global_randomization_of_irm_trace_changes_little():
    # an IRM trace is distributionally invariant under global
    # randomization, so the MARE stays within Monte Carlo noise
    weights = 1.0 / np.arange(1, 301) ** 0.8
    tr = generate_irm_trace(weights, 20_000, window=10**6, seed=29)
    sizes = log_size_grid(tr.distinct_docs, 10)
    original = hit_ratio_curve(tr, sizes)
    mares = []
    for seed in range(12):
        shuffled = randomize_global(tr, seed=seed)
        mares.append(mare(original, hit_ratio_curve(shuffled, sizes)))
    mares = np.array(mares)
    # threshold: 3 standard deviations above the mean across seeds
    assert mares.mean() <= 0.05
    assert mares.max() <= mares.mean() + 3 * mares.std(ddof=1) + 1e-9


def test_box_trace_global_hurts_more_than_local():
    config = GeneratorConfig(
        gamma=2e-3,
        window=2 * 10**6,
        lambdas=10 ** np.linspace(-3.5, -1.5, 40),
        taus=10 ** np.linspace(3.0, 4.0, 40)[::-1],
        warmup=None,
    )
    tr = generate_box_trace(config, seed=31)
    sizes = log_size_grid(max(tr.distinct_docs // 3, 2), 10)
    report = run_semi_experiments(tr, sizes, seed=37)
    assert report.mare_values["global"] > report.mare_values["local"]


def test_semi_experiments_empty_trace():
    tr = build_trace([], [], window_length=10)
    with pytest.raises(ValueError):
        run_semi_experiments(tr, [1, 2], seed=1)
