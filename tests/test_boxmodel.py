import math

import numpy as np
import pytest

from cachechurn import boxmodel
from cachechurn.boxmodel import (
    WorkingSetModel,
    box_hit_ratio_curve,
    box_working_set,
    characteristic_time,
    expected_hits_per_doc,
    irm_che_curve,
    mean_expected_hits,
    noise_working_set,
    repeat_doc_window_mean,
)
from cachechurn.estimators import (
    EmpiricalJointSample,
    build_joint_sample,
    estimate_catalog_rate,
)
from cachechurn.synth import GeneratorConfig, generate_box_trace, monte_carlo_distinct_docs
from cachechurn.trace import trace_stats
from conftest import paper_branch_forms

# gamma=1, lambda=1, tau=2: mean distinct docs in windows of 2 and 5 ms
WS_AT_2 = 2.2706705664732254  # 4 - 2 * (1 - e^-2)
WS_AT_5 = 4.864664716763387  # WS_AT_2 + 3 * (1 - e^-2)


def sample_of(lambdas, taus, n1=0, mean_n_multi=2.0, window=10**6):
    lambdas = np.asarray(lambdas, dtype=float)
    return EmpiricalJointSample(
        lambdas=lambdas,
        taus=np.asarray(taus, dtype=float),
        n1=n1,
        n2=len(lambdas),
        mean_n_multi=mean_n_multi,
        window=window,
    )


def test_working_set_zero_at_zero():
    assert box_working_set(0.0, 3.0, [0.5, 2.0], [1.0, 5.0]) == 0.0


def test_working_set_reference_values():
    assert box_working_set(2.0, 1.0, [1.0], [2.0]) == pytest.approx(WS_AT_2, rel=1e-12)
    assert box_working_set(5.0, 1.0, [1.0], [2.0]) == pytest.approx(WS_AT_5, rel=1e-12)


def test_working_set_linear_growth_past_lifespan():
    # beyond the lifespan each extra ms adds gamma * P(document requested)
    base = box_working_set(5.0, 1.0, [1.0], [2.0])
    stretched = box_working_set(7.5, 1.0, [1.0], [2.0])
    assert stretched - base == pytest.approx(2.5 * (1 - math.exp(-2)), rel=1e-12)


def test_working_set_vectorized_t():
    t = np.array([0.0, 2.0, 5.0])
    out = box_working_set(t, 1.0, [1.0], [2.0])
    assert out == pytest.approx([0.0, WS_AT_2, WS_AT_5], rel=1e-12)


def test_working_set_monotone(rng):
    lam = 10 ** rng.uniform(-4, -2, 50)
    tau = 10 ** rng.uniform(2, 4, 50)
    t = np.linspace(0, 5e4, 80)
    values = box_working_set(t, 0.01, lam, tau)
    assert np.all(np.diff(values) >= 0)


def test_noise_working_set_values():
    assert noise_working_set(0.0, 100, 1000) == 0.0
    assert noise_working_set(500.0, 100, 1000) == pytest.approx(50.0)
    assert noise_working_set(1000.0, 100, 1000) == pytest.approx(100.0)


def test_repeat_kernel_zero_at_zero():
    assert repeat_doc_window_mean(1.0, 2.0, 0.0) == 0.0


def assert_kernels_match_paper(lam, tau, t):
    """Each kernel equals the paper's branch for its side of tau = t: bit
    for bit, except the expected hits of a lifespan shorter than t_C, which
    the kernel reaches through the long form and so match to 1e-12."""
    covering = tau >= t
    for name, (long_form, short_form) in paper_branch_forms(lam, tau, t).items():
        got = getattr(boxmodel, name)(lam, tau, t)
        want = np.where(covering, long_form, short_form)
        if name != "_hits_pair":
            assert np.array_equal(got, want), name
            continue
        assert np.array_equal(got[covering], want[covering]), name
        scale = np.maximum(np.abs(got), np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want) / scale, initial=0.0) <= 1e-12, name


def test_branch_continuity_everywhere(rng):
    # the one-formula kernels against the paper's branch forms, on both
    # sides of the breakpoint and on it, where the two forms also agree
    lam = 10 ** rng.uniform(-6, 1, 1000)
    tau = 10 ** rng.uniform(-1, 6, 1000)
    below = tau * 10 ** rng.uniform(-3, -0.01, 1000)
    above = tau * 10 ** rng.uniform(0.01, 3, 1000)
    for t in (below, tau, above):
        assert_kernels_match_paper(lam, tau, t)
    for long_form, short_form in paper_branch_forms(lam, tau, tau).values():
        scale = np.maximum(np.abs(long_form), np.abs(short_form)) + 1e-300
        assert np.max(np.abs(long_form - short_form) / scale) <= 1e-12
    # broadcast: a column of window lengths against the row of pairs
    grid = np.geomspace(0.1, 1e6, 40)[:, None]
    assert_kernels_match_paper(lam, tau, grid)
    # scalars, through the public wrappers
    for i in range(0, 1000, 97):
        for t in (below[i], tau[i], above[i]):
            args = (float(lam[i]), float(tau[i]), float(t))
            repeat = repeat_doc_window_mean(*args)
            hits = expected_hits_per_doc(*args)
            assert type(repeat) is float and type(hits) is float
            assert repeat == float(boxmodel._repeat_pair(*args))
            assert hits == float(boxmodel._hits_pair(*args))
            assert_kernels_match_paper(*(np.float64(a) for a in args))


def test_repeat_kernel_matches_monte_carlo():
    # gamma * mean(kernel) = mean count of docs with >= 2 requests in [0, t]
    config = GeneratorConfig(
        gamma=0.005,
        window=12_000,
        lambdas=np.array([0.002, 0.01, 0.0005]),
        taus=np.array([2000.0, 500.0, 5000.0]),
    )
    t_grid = [1500.0, 4000.0, 9000.0]
    mc = monte_carlo_distinct_docs(config, t_grid, reps=400, seed=5, min_requests=2)
    for t, mean, stderr in zip(mc.t, mc.mean, mc.stderr):
        analytic = config.gamma * float(
            np.mean(repeat_doc_window_mean(config.lambdas, config.taus, t))
        )
        assert abs(mean - analytic) <= 3 * stderr


def test_model_reduces_to_noise_without_pairs():
    sample = sample_of([], [], n1=50, window=1000)
    model = WorkingSetModel(gamma_hat=0.0, sample=sample)
    assert model(250.0) == pytest.approx(noise_working_set(250.0, 50, 1000))


def test_model_reduces_to_kernel_without_noise():
    sample = sample_of([0.01], [500.0], n1=0, window=10**5)
    model = WorkingSetModel(gamma_hat=0.002, sample=sample)
    t = 700.0
    expected = 0.002 * repeat_doc_window_mean(0.01, 500.0, t)
    assert model(t) == pytest.approx(expected, rel=1e-12)


def test_model_monotone_and_zero_at_origin():
    sample = sample_of([0.01, 0.002], [500.0, 4000.0], n1=30, window=10**5)
    model = WorkingSetModel(gamma_hat=0.004, sample=sample)
    t = np.linspace(0.0, 10**5, 60)
    values = model(t)
    assert values[0] == 0.0
    assert np.all(np.diff(values) >= 0)


def test_predicted_total_hits_match_simulation():
    # N2 * mean expected hits vs the LRU hit count at a working-set
    # consistent cache size, on one generated trace
    config = GeneratorConfig.fixed_pair(gamma=2e-3, window=10**7, lam=1e-4, tau=10**5)
    trace = generate_box_trace(config, seed=44)
    sample = build_joint_sample(trace)
    gamma_hat = estimate_catalog_rate(trace_stats(trace), trace.window.length)
    model = WorkingSetModel(gamma_hat=gamma_hat, sample=sample)
    cache_size = round(0.05 * sample.distinct_docs)
    [tc] = characteristic_time(cache_size, model, initial_upper=trace.window.length)
    predicted = sample.n2 * mean_expected_hits(sample.lambdas, sample.taus, tc.t_c)
    from cachechurn.lrusim import brute_force_lru

    simulated = brute_force_lru(trace, cache_size)
    assert predicted == pytest.approx(simulated, rel=0.05)


def test_model_stays_below_observed_catalog():
    # estimated working set at the full window should not exceed the
    # observed catalog by more than estimator bias
    config = GeneratorConfig.fixed_pair(gamma=0.003, window=10**6, lam=0.004, tau=2500)
    trace = generate_box_trace(config, seed=3)
    sample = build_joint_sample(trace)
    gamma_hat = estimate_catalog_rate(trace_stats(trace), trace.window.length)
    model = WorkingSetModel(gamma_hat=gamma_hat, sample=sample)
    assert model(float(trace.window.length)) <= 1.10 * sample.distinct_docs


def test_characteristic_time_linear():
    [tc] = characteristic_time(50.0, lambda t: 2.0 * t)
    assert tc.t_c == pytest.approx(25.0, rel=1e-9)
    assert tc.residual <= 1e-6 * 50


def test_characteristic_time_round_trip_reference():
    ws = lambda t: box_working_set(t, 1.0, [1.0], [2.0])
    [tc] = characteristic_time(WS_AT_2, ws)
    assert tc.t_c == pytest.approx(2.0, rel=1e-7)


def test_characteristic_time_random_instances(rng):
    for _ in range(100):
        gamma = float(10 ** rng.uniform(-3, 0))
        k = int(rng.integers(1, 6))
        lam = 10 ** rng.uniform(-4, -1, k)
        tau = 10 ** rng.uniform(1, 4, k)
        ws = lambda t: box_working_set(t, gamma, lam, tau)
        c = float(10 ** rng.uniform(-1, 3))
        [tc] = characteristic_time(c, ws, initial_upper=float(rng.uniform(1, 1e4)))
        assert tc.residual <= 1e-6 * c
        assert abs(ws(tc.t_c) - c) <= 1e-6 * c


def test_characteristic_time_plateau_error():
    with pytest.raises(ValueError, match="reachable catalog"):
        characteristic_time(20.0, lambda t: np.minimum(t, 10.0))


def test_expected_hits_short_lifespan():
    assert expected_hits_per_doc(1.0, 1.0, 2.0) == pytest.approx(
        math.exp(-1), rel=1e-12
    )


def test_expected_hits_zero_cache_time():
    assert expected_hits_per_doc(1.0, 3.0, 0.0) == 0.0
    assert expected_hits_per_doc(0.5, 0.0 + 1e-9, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_expected_hits_bounds_and_monotonicity(rng):
    lam = 10 ** rng.uniform(-4, 0, 200)
    tau = 10 ** rng.uniform(0, 5, 200)
    cap = lam * tau - 1 + np.exp(-lam * tau)
    previous = np.zeros(200)
    for t_c in (0.0, 1.0, 10.0, 1e3, 1e6, 1e9):
        h = expected_hits_per_doc(lam, tau, t_c)
        assert np.all(h >= -1e-15)
        assert np.all(h <= cap + 1e-12)
        assert np.all(h >= previous - 1e-12)
        previous = h


def test_mean_expected_hits_single_pair():
    assert mean_expected_hits([1.0], [1.0], 2.0) == expected_hits_per_doc(1.0, 1.0, 2.0)


def test_mean_expected_hits_empty():
    with pytest.raises(ValueError):
        mean_expected_hits([], [], 1.0)


def test_mean_expected_hits_vanishing_popularity():
    lam = np.full(50, 1e-9)
    tau = np.full(50, 1e-3)
    assert mean_expected_hits(lam, tau, 1e6) == pytest.approx(0.0, abs=1e-12)


def test_box_hit_ratio_single_pair_reduction():
    sample = sample_of([0.01], [500.0], n1=0, mean_n_multi=4.2, window=10**6)
    curve, [tc] = box_hit_ratio_curve(sample, gamma_hat=0.001, sizes=[1])
    model = WorkingSetModel(gamma_hat=0.001, sample=sample)
    assert [tc] == characteristic_time(1.0, model, initial_upper=10**6)
    expected = expected_hits_per_doc(0.01, 500.0, tc.t_c) / 4.2
    assert curve.hit_ratios[0] == pytest.approx(expected)


def test_box_hit_ratio_saturation():
    # once t_C dwarfs every lifespan the numerator hits its ceiling
    lam = np.array([0.02, 0.004])
    tau = np.array([300.0, 900.0])
    sample = sample_of(lam, tau, n1=400, mean_n_multi=5.0, window=10**6)
    curve, _ = box_hit_ratio_curve(sample, gamma_hat=0.01, sizes=[390])
    ceiling = float(np.mean(lam * tau - 1 + np.exp(-lam * tau)))
    denominator = 5.0 + 400 / 2
    assert curve.hit_ratios[0] == pytest.approx(ceiling / denominator, rel=1e-6)


def test_box_hit_ratio_requires_estimable_docs():
    sample = sample_of([], [], n1=10, window=1000)
    with pytest.raises(ValueError, match="no estimable documents"):
        box_hit_ratio_curve(sample, gamma_hat=0.01, sizes=[5])


def test_box_hit_ratio_monotone_in_cache_size():
    sample = sample_of(
        [0.01, 0.002, 0.03], [500.0, 4000.0, 100.0], n1=20, mean_n_multi=3.4
    )
    curve, times = box_hit_ratio_curve(sample, gamma_hat=0.005, sizes=[1, 2, 5, 10, 20])
    assert np.all(np.diff(curve.hit_ratios) >= 0)
    assert [t.cache_size for t in times] == [1, 2, 5, 10, 20]
    assert all(t.residual <= 1e-6 * t.cache_size for t in times)


def test_irm_che_symmetric_catalog():
    curve = irm_che_curve([7] * 100, window=1000, sizes=[25])
    assert curve.hit_ratios[0] == pytest.approx(0.25, rel=1e-6)


def test_irm_che_small_cache_small_ratio():
    curve = irm_che_curve([5] * 200, window=1000, sizes=[1, 2])
    assert curve.hit_ratios[0] == pytest.approx(1 / 200, rel=1e-6)
    assert np.all(np.diff(curve.hit_ratios) > 0)


def test_irm_che_clamps_beyond_catalog():
    counts = [3, 3, 4]
    with pytest.warns(UserWarning, match="cold-miss ceiling"):
        curve = irm_che_curve(counts, window=100, sizes=[1, 3, 5])
    assert curve.hit_ratios[-1] == pytest.approx(1 - 3 / 10)
    assert curve.hit_ratios[-2] == pytest.approx(1 - 3 / 10)
