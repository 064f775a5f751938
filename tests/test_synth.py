import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cachechurn.boxmodel import box_working_set
from cachechurn.synth import (
    DocumentProfile,
    GeneratorConfig,
    generate_box_trace,
    generate_irm_trace,
    monte_carlo_distinct_docs,
    sample_population,
)
from cachechurn.trace import trace_stats


def test_profile_mean_requests():
    p = DocumentProfile(arrival=-5.0, lam=0.05, tau=2000.0)
    assert p.mean_requests == pytest.approx(100.0)
    with pytest.raises(ValueError):
        DocumentProfile(arrival=0.0, lam=0.0, tau=1.0)


def test_zero_gamma_gives_empty_trace():
    config = GeneratorConfig.fixed_pair(gamma=0.0, window=1000, lam=0.01, tau=100)
    assert len(generate_box_trace(config, seed=1)) == 0


def test_vanishing_popularity_gives_empty_trace():
    config = GeneratorConfig.fixed_pair(gamma=0.01, window=1000, lam=1e-12, tau=1e-6)
    assert len(generate_box_trace(config, seed=1)) == 0


def test_box_trace_deterministic():
    config = GeneratorConfig.fixed_pair(gamma=0.01, window=10**5, lam=0.05, tau=2000)
    a = generate_box_trace(config, seed=42)
    b = generate_box_trace(config, seed=42)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.doc_names[a.docs], b.doc_names[b.docs])
    c = generate_box_trace(config, seed=43)
    assert len(c) != len(a) or not np.array_equal(c.timestamps, a.timestamps)


def test_box_trace_volume_within_cluster_noise():
    # expected in-window requests: gamma * window * lam * tau = 1e5. The
    # count is compound Poisson (whole documents arrive at once), so its
    # variance is gamma*lam*int(w) + gamma*lam^2*int(w^2) with w(a) the
    # lifespan/window overlap, far above the Poisson variance.
    gamma, window, lam, tau = 1e-2, 10**5, 0.05, 2000.0
    config = GeneratorConfig.fixed_pair(gamma=gamma, window=window, lam=lam, tau=tau)
    expected = gamma * window * lam * tau
    int_w2 = 2 * tau**3 / 3 + (window - tau) * tau**2
    variance = expected + gamma * lam**2 * int_w2
    sizes = [len(generate_box_trace(config, seed)) for seed in range(20)]
    tol = 3 * np.sqrt(variance / 20)
    assert abs(np.mean(sizes) - expected) <= tol


def test_box_trace_timestamps_inside_window():
    config = GeneratorConfig.fixed_pair(gamma=0.02, window=5000, lam=0.01, tau=3000)
    tr = generate_box_trace(config, seed=9)
    assert tr.timestamps.min() >= 0
    assert tr.timestamps.max() <= 5000


def test_generate_box_trace_memory_budget():
    # each request column is held once: the population's, then the window's
    config = GeneratorConfig(1e-4, 10**7, np.array([8e-5, 4e-4]), np.array([2e5, 1e6]))
    generate_box_trace(config, 1)  # numpy.random loads its modules on first use
    tracemalloc.start()
    try:
        trace = generate_box_trace(config, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) >= 10**5
    assert peak <= 30 * len(trace)


def test_population_requests_inside_lifespans():
    config = GeneratorConfig.fixed_pair(gamma=0.02, window=5000, lam=0.01, tau=3000)
    rng = np.random.default_rng(7)
    pop = sample_population(config, rng)
    lo = pop.arrivals[pop.req_doc]
    assert np.all(pop.req_times >= lo)
    assert np.all(pop.req_times <= lo + pop.taus[pop.req_doc])


def test_population_counts_poisson_gof():
    # full-lifespan per-document counts are Poisson(lam * tau)
    lam, tau = 0.002, 2500.0  # mean 5
    config = GeneratorConfig.fixed_pair(gamma=1.0, window=10**4, lam=lam, tau=tau)
    rng = np.random.default_rng(123)
    pop = sample_population(config, rng)
    counts = pop.counts
    assert len(counts) >= 10**4
    kmax = 14
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), lam * tau)
    expected = np.append(pmf, 1 - pmf.sum()) * len(counts)
    p_value = stats.chisquare(observed, expected).pvalue
    assert p_value > 0.01


def test_config_warmup_defaults():
    fixed = GeneratorConfig.fixed_pair(gamma=1.0, window=10, lam=1.0, tau=7.0)
    assert fixed.warmup_ms == 7.0
    pool = GeneratorConfig(
        gamma=1.0,
        window=10,
        lambdas=np.ones(100),
        taus=np.linspace(1, 100, 100),
        warmup=None,
    )
    assert pool.warmup_ms == pytest.approx(np.percentile(pool.taus, 99.9))
    explicit = GeneratorConfig.fixed_pair(1.0, 10, 1.0, 7.0, warmup=3.0)
    assert explicit.warmup_ms == 3.0


def test_config_json_roundtrip():
    config = GeneratorConfig(
        gamma=0.005,
        window=120,
        lambdas=np.array([0.1, 0.2]),
        taus=np.array([10.0, 20.0]),
        warmup=15.0,
    )
    back = GeneratorConfig.from_json(config.to_json())
    assert back.gamma == config.gamma
    assert back.window == config.window
    assert np.array_equal(back.lambdas, config.lambdas)
    assert np.array_equal(back.taus, config.taus)
    assert back.warmup_ms == 15.0


def test_irm_single_doc():
    tr = generate_irm_trace([1.0], 50, window=1000, seed=3)
    assert len(tr) == 50
    assert list(tr.doc_names) == ["d00000000"]
    assert set(tr.docs.tolist()) == {0}


def test_irm_empty():
    tr = generate_irm_trace([1.0, 2.0], 0, window=1000, seed=3)
    assert len(tr) == 0


def test_irm_top_rank_share():
    # Zipf(1.0) over 1000 docs: observed top-doc share within 3 sigma
    weights = 1.0 / np.arange(1, 1001)
    share = weights[0] / weights.sum()
    total = 10**5
    tr = generate_irm_trace(weights, total, window=10**6, seed=17)
    top = np.count_nonzero(tr.doc_names[tr.docs] == "d00000000")
    sigma = np.sqrt(total * share * (1 - share))
    assert abs(top - total * share) <= 3 * sigma


def test_irm_timestamps_uniform_range():
    tr = generate_irm_trace([1.0, 1.0], 5000, window=100, seed=5)
    assert tr.timestamps.min() >= 0
    assert tr.timestamps.max() <= 100


def test_monte_carlo_zero_window_length():
    config = GeneratorConfig.fixed_pair(gamma=0.01, window=1000, lam=0.01, tau=100)
    mc = monte_carlo_distinct_docs(config, [0.0, 500.0], reps=10, seed=1)
    assert mc.mean[0] == 0.0


def test_monte_carlo_matches_analytic_working_set():
    # scaled to ms so integer rounding is negligible: lam*t, lam*tau as in
    # the unit-scale reference case (gamma*branch invariant)
    config = GeneratorConfig.fixed_pair(
        gamma=1e-3, window=2000, lam=1e-3, tau=2000.0
    )
    mc = monte_carlo_distinct_docs(config, [2000.0], reps=500, seed=21)
    analytic = box_working_set(2000.0, 1e-3, config.lambdas, config.taus)
    assert analytic == pytest.approx(2.2706705664732254, rel=1e-12)
    assert abs(mc.mean[0] - analytic) <= 3 * mc.stderr[0]


def test_monte_carlo_poisson_variance():
    config = GeneratorConfig.fixed_pair(gamma=5e-3, window=4000, lam=1e-3, tau=2000.0)
    mc = monte_carlo_distinct_docs(config, [3000.0], reps=500, seed=2)
    var = mc.variance[0]
    var_se = var * np.sqrt(2 / (mc.reps - 1))
    assert abs(var - mc.mean[0]) <= 4 * var_se


def test_monte_carlo_rejects_bad_grid():
    config = GeneratorConfig.fixed_pair(gamma=0.01, window=1000, lam=0.01, tau=100)
    with pytest.raises(ValueError):
        monte_carlo_distinct_docs(config, [2000.0], reps=10, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_distinct_docs(config, [500.0], reps=1, seed=1)


def test_trace_summary_of_generated_trace_consistent():
    config = GeneratorConfig.fixed_pair(gamma=0.01, window=10**5, lam=0.002, tau=2000)
    tr = generate_box_trace(config, seed=8)
    s = trace_stats(tr)
    assert s.distinct_docs == s.docs_single_request + s.docs_multi_request
    assert s.total_requests == len(tr)
