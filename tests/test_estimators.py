import numpy as np
import pytest

from cachechurn.estimators import (
    build_joint_sample,
    estimate_catalog_rate,
    rank_frequency,
    solve_n_prime,
)
from cachechurn.synth import GeneratorConfig, generate_box_trace
from cachechurn.trace import build_trace, trace_stats

# roots of x / (1 - exp(-x)) = n, bisected at 40-digit precision
N_PRIME_2 = 1.5936242600400401
N_PRIME_3 = 2.8214393721220789


def one_doc(n, first, last):
    """Joint sample of a single document with n requests from first to last."""
    times = np.linspace(first, last, n).round().astype(np.int64)
    sample = build_joint_sample(build_trace(times, ["x"] * n))
    assert sample.n2 == 1
    return float(sample.lambdas[0]), float(sample.taus[0])


def test_lifespan_n3():
    assert one_doc(3, 0, 10)[1] == pytest.approx(20.0)


def test_lifespan_n2():
    assert one_doc(2, 0, 10)[1] == pytest.approx(30.0)


def test_lifespan_requires_two_requests():
    sample = build_joint_sample(build_trace([5], ["x"]))
    assert (sample.n1, sample.n2) == (1, 0)
    with pytest.raises(ValueError):
        build_joint_sample(build_trace([5], ["x"]), min_requests=1)


def test_lifespan_degenerate_span_clamped():
    assert one_doc(4, 9, 9)[1] == 1.0


def test_n_prime_limit_at_one():
    assert solve_n_prime(1) == 0.0


def test_n_prime_reference_values():
    assert solve_n_prime(2) == pytest.approx(N_PRIME_2, abs=1e-9)
    assert solve_n_prime(3) == pytest.approx(N_PRIME_3, abs=1e-9)


def test_n_prime_residual_and_shape():
    n = np.arange(1, 2000)
    x = solve_n_prime(n)
    pos = x > 0
    residual = np.abs(x[pos] / (-np.expm1(-x[pos])) - n[pos])
    assert residual.max() <= 1e-10
    assert np.all(np.diff(x) > 0)  # strictly increasing in n
    assert np.all(x[1:] < n[1:])  # n' < n for finite n > 1


def test_n_prime_scalar_matches_vector():
    vec = solve_n_prime(np.array([2.0, 7.0, 50.0]))
    for i, n in enumerate((2.0, 7.0, 50.0)):
        assert solve_n_prime(n) == vec[i]


def test_n_prime_rejects_below_one():
    with pytest.raises(ValueError):
        solve_n_prime(0.5)


def test_rate_composition():
    assert one_doc(3, 0, 10)[0] == pytest.approx(N_PRIME_3 / 20, rel=1e-9)
    assert one_doc(2, 0, 10)[0] == pytest.approx(N_PRIME_2 / 30, rel=1e-9)


def test_rate_near_identity_for_large_n():
    # n' ~ n once n exceeds 10, so lambda ~ n / tau
    lam, tau = one_doc(100, 0, 980 * 1000)
    assert tau == pytest.approx(1000 * 1000, rel=0.02)
    assert lam == pytest.approx(100 / tau, rel=1e-10)


def test_rate_lifespan_identity(rng):
    # lambda_hat * tau_hat = n' exactly
    for n in (2, 5, 17):
        first, last = 0, int(rng.integers(1, 10**6))
        lam, tau = one_doc(n, first, last)
        assert lam * tau == pytest.approx(solve_n_prime(n), rel=1e-12)


def test_catalog_rate():
    tr = build_trace([0] * 0 + list(range(100)), [f"d{i}" for i in range(100)])
    assert estimate_catalog_rate(trace_stats(tr), 50) == pytest.approx(2.0)


def test_catalog_rate_empty():
    assert estimate_catalog_rate(trace_stats(build_trace([], [])), 10) == 0.0


def test_catalog_rate_zero_window():
    with pytest.raises(ValueError):
        estimate_catalog_rate(trace_stats(build_trace([], [])), 0)


def test_joint_sample_per_document_count_and_span():
    # "b": 3 requests spanning 0..5, so tau = 5 * 4 / 2; "a" is noise
    tr = build_trace([0, 1, 2, 5], ["b", "a", "b", "b"])
    sample = build_joint_sample(tr)
    assert (sample.n1, sample.n2) == (1, 1)
    assert sample.mean_n_multi == 3.0
    assert sample.taus[0] == pytest.approx(10.0)


def test_joint_sample_small_trace():
    tr = build_trace([0, 1, 2], ["a", "b", "a"])
    sample = build_joint_sample(tr)
    assert (sample.n1, sample.n2) == (1, 1)
    assert len(sample.lambdas) == len(sample.taus) == 1
    lam, tau = sample.lambdas[0], sample.taus[0]
    assert tau == pytest.approx(2 * 3)  # span 2, n=2
    assert lam == pytest.approx(N_PRIME_2 / 6, rel=1e-9)
    assert sample.mean_n_multi == 2.0


def test_joint_sample_all_singles():
    tr = build_trace([0, 1], ["a", "b"])
    sample = build_joint_sample(tr)
    assert (sample.n1, sample.n2) == (2, 0)
    assert len(sample.lambdas) == len(sample.taus) == 0


def test_joint_sample_min_requests_filter():
    tr = build_trace([0, 1, 2, 3, 4], ["a", "a", "b", "b", "b"])
    sample = build_joint_sample(tr, min_requests=3)
    assert (sample.n1, sample.n2) == (1, 1)
    assert sample.mean_n_multi == 3.0


def test_joint_sample_recovers_generator_truth():
    # fixed (lambda, tau) with lambda*tau = 10: sample means within 10%
    lam, tau = 0.005, 2000.0
    config = GeneratorConfig.fixed_pair(gamma=0.002, window=2_000_000, lam=lam, tau=tau)
    trace = generate_box_trace(config, seed=11)
    sample = build_joint_sample(trace)
    assert sample.n2 > 500
    assert np.mean(sample.taus) == pytest.approx(tau, rel=0.10)
    assert np.mean(sample.lambdas) == pytest.approx(lam, rel=0.10)


def test_rank_frequency():
    tr = build_trace([0, 1, 2], ["a", "b", "a"])
    assert rank_frequency(tr) == [(1, 2), (2, 1)]


def test_rank_frequency_empty():
    assert rank_frequency(build_trace([], [])) == []


def test_rank_frequency_tie_order_deterministic():
    tr = build_trace([0, 1, 2, 3], ["d", "c", "a", "b"])
    assert rank_frequency(tr) == [(1, 1), (2, 1), (3, 1), (4, 1)]

