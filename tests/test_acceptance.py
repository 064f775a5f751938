"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from cachechurn.boxmodel import (
    _hits_long_doc,
    _hits_short_doc,
    _repeat_pair_active,
    _repeat_pair_expired,
    _ws_pair_active,
    _ws_pair_expired,
    box_working_set,
    characteristic_time,
    irm_che_curve,
)
from cachechurn.cli import main
from cachechurn.estimators import build_joint_sample, rank_frequency, solve_n_prime
from cachechurn.lrusim import (
    brute_force_lru,
    hit_ratio_curve,
    log_size_grid,
    mare,
    read_curve_csv,
    stack_distances,
)
from cachechurn.shuffle import (
    randomize_global,
    randomize_local,
    randomize_positional,
    run_semi_experiments,
)
from cachechurn.synth import (
    GeneratorConfig,
    generate_irm_trace,
    monte_carlo_distinct_docs,
)
from cachechurn.trace import parse_trace, trace_stats

from conftest import random_trace


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# criterion 2/4 shared pipeline: one heterogeneous dynamic-catalog trace,
# predicted and simulated through the CLI on one 20-point grid
# ---------------------------------------------------------------------------

BOX_WINDOW = 3 * 10**7  # ms; gamma * window = 3e4 published documents


def _box_pair_pool():
    rng = np.random.default_rng(12345)
    lambdas = 10 ** rng.uniform(np.log10(8e-6), np.log10(8e-4), 4000)  # two decades
    taus = 10 ** rng.uniform(np.log10(1.5e5), np.log10(1.5e6), 4000)  # one decade
    return lambdas, taus


@pytest.fixture(scope="session")
def box_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_box")
    lambdas, taus = _box_pair_pool()
    config = {
        "gamma": 1e-3,
        "window_ms": BOX_WINDOW,
        "pairs": [[float(l), float(t)] for l, t in zip(lambdas, taus)],
    }
    cfg_path = tmp / "box_config.json"
    cfg_path.write_text(json.dumps(config))
    trace_path = tmp / "box_trace.csv"
    started = time.time()
    assert main(["generate", "--config", str(cfg_path), "--seed", "2024",
                 "--out", str(trace_path)]) == 0
    trace = parse_trace(str(trace_path), BOX_WINDOW)
    n = trace.distinct_docs
    sizes_spec = f"log:{round(0.01 * n)}:{round(0.4 * n)}:20"
    sim_path, box_path = tmp / "sim.csv", tmp / "box.csv"
    assert main(["predict", str(trace_path), "--method", "box",
                 "--sizes", sizes_spec, "--out", str(box_path)]) == 0
    assert main(["simulate", str(trace_path), "--sizes", sizes_spec,
                 "--out", str(sim_path)]) == 0
    elapsed = time.time() - started
    with open(sim_path, encoding="utf-8", newline="") as handle:
        sim_curve = read_curve_csv(handle)
    with open(box_path, encoding="utf-8", newline="") as handle:
        box_curve = read_curve_csv(handle)
    return {
        "trace": trace,
        "distinct": n,
        "sim": sim_curve,
        "box": box_curve,
        "elapsed": elapsed,
    }


def test_criterion_1_lru_oracle_equivalence(rng):
    started = time.time()
    sizes = [1, 2, 3, 5, 10, 20, 50, 100, 500, 1000]
    exact = True
    for _ in range(20):
        trace = random_trace(rng, 10_000, int(rng.integers(50, 1001)))
        hits = stack_distances(trace).hits_at(sizes)
        reference = [brute_force_lru(trace, c) for c in sizes]
        if list(hits) != reference:
            exact = False
            break
    elapsed = time.time() - started
    ok = exact and elapsed < 30
    assert report(1, "LRU stack-distance counts equal brute force",
                  ok, f"{elapsed:.1f}s") and exact


def test_criterion_2_box_prediction_accuracy(box_pipeline):
    value = mare(box_pipeline["sim"], box_pipeline["box"])
    elapsed = box_pipeline["elapsed"]
    ok = value <= 0.03 and elapsed < 120
    assert report(2, "box-model curve MARE vs simulation <= 3%",
                  ok, f"MARE={value:.2%}, {elapsed:.0f}s")


def test_criterion_3_classic_che_on_irm():
    started = time.time()
    m, total = 10**4, 10**6
    weights = 1.0 / np.arange(1, m + 1) ** 0.8
    trace = generate_irm_trace(weights, total, window=10**8, seed=404)
    sizes = log_size_grid(m, 20)
    sim = hit_ratio_curve(trace, sizes)
    counts = np.array([c for _, c in rank_frequency(trace)])
    with pytest.warns(UserWarning):  # top grid point reaches the catalog size
        che = irm_che_curve(counts, trace.window.length, sizes)
    worst = float(np.max(np.abs(che.hit_ratios - sim.hit_ratios)))
    elapsed = time.time() - started
    ok = worst <= 0.02 and elapsed < 60
    assert report(3, "classic IRM Che within 0.02 of simulation",
                  ok, f"max |err|={worst:.4f}, {elapsed:.0f}s")


def test_criterion_4_irm_underestimation(box_pipeline):
    trace = box_pipeline["trace"]
    sizes = box_pipeline["sim"].cache_sizes
    experiments = run_semi_experiments(trace, sizes, seed=555)
    small = sizes < 0.10 * box_pipeline["distinct"]
    original = experiments.original.hit_ratios[small]
    shuffled = experiments.randomized["global"].hit_ratios[small]
    below = bool(np.all(shuffled <= original + 0.01))
    ordered = experiments.mare_values["global"] > experiments.mare_values["local"]
    ok = below and ordered
    assert report(
        4, "global randomization underestimates the hit ratio", ok,
        f"global MARE={experiments.mare_values['global']:.3f}, "
        f"local MARE={experiments.mare_values['local']:.5f}",
    )


def test_criterion_5_working_set_validation():
    started = time.time()
    config = GeneratorConfig.fixed_pair(gamma=5e-3, window=10_000, lam=2e-3, tau=2000)
    t_grid = np.linspace(1000, 10_000, 10)
    mc = monte_carlo_distinct_docs(config, t_grid, reps=500, seed=1005)
    analytic = box_working_set(mc.t, config.gamma, config.lambdas, config.taus)
    z = np.abs((mc.mean - analytic) / mc.stderr)
    variance_gap = np.abs(mc.variance - mc.mean)
    variance_se = mc.variance * np.sqrt(2 / (mc.reps - 1))
    elapsed = time.time() - started
    ok = bool(np.all(z <= 3) and np.all(variance_gap <= 4 * variance_se)) and elapsed < 60
    assert report(5, "Monte Carlo matches analytic working set",
                  ok, f"max |z|={z.max():.2f}, {elapsed:.0f}s")


def test_criterion_6_estimator_correctness(rng):
    # (a) truncation-bias inversion residual over n = 1..1e6
    n = np.arange(1, 10**6 + 1, dtype=float)
    x = solve_n_prime(n)
    pos = x > 0
    residual = np.abs(x[pos] / (-np.expm1(-x[pos])) - n[pos])
    res_ok = bool(residual.max() <= 1e-10)

    # (b) unbiasedness of the lifespan estimator: tau=100, n=5, 1e5 reps
    u = rng.uniform(0, 100, size=(10**5, 5))
    tau_hat = (u.max(axis=1) - u.min(axis=1)) * (5 + 1) / (5 - 1)
    mean_tau = float(tau_hat.mean())
    mc_ok = 99 <= mean_tau <= 101

    # (c) characteristic-time round trip on 100 random instances
    rt_ok = True
    for _ in range(100):
        gamma = float(10 ** rng.uniform(-3, 0))
        k = int(rng.integers(1, 6))
        lam = 10 ** rng.uniform(-4, -1, k)
        tau = 10 ** rng.uniform(1, 4, k)
        c = float(10 ** rng.uniform(-1, 3))
        [tc] = characteristic_time(c, lambda t: box_working_set(t, gamma, lam, tau))
        if abs(box_working_set(tc.t_c, gamma, lam, tau) - c) > 1e-6 * c:
            rt_ok = False
            break

    ok = res_ok and mc_ok and rt_ok
    assert report(
        6, "estimators: n' residual, lifespan bias, t_C round trip", ok,
        f"max residual={residual.max():.2e}, mean tau_hat={mean_tau:.2f}",
    )


def test_criterion_7_randomization_preservation(rng):
    ok = True
    for _ in range(10):
        trace = random_trace(rng, 800, int(rng.integers(20, 80)))

        def times_by_doc(t):
            grouped = {}
            for ts, doc in zip(t.timestamps, t.doc_names[t.docs]):
                grouped.setdefault(doc, []).append(int(ts))
            return grouped

        before = times_by_doc(trace)
        after_global = times_by_doc(randomize_global(trace, seed=1))
        ok &= all(len(after_global[d]) == len(v) for d, v in before.items())

        after_positional = times_by_doc(randomize_positional(trace, seed=2))
        ok &= all(
            np.array_equal(np.diff(v), np.diff(after_positional[d]))
            for d, v in before.items()
        )

        after_local = times_by_doc(randomize_local(trace, seed=3))
        ok &= all(
            (len(v), v[0], v[-1])
            == (len(after_local[d]), after_local[d][0], after_local[d][-1])
            for d, v in before.items()
        )
        a = build_joint_sample(trace)
        b = build_joint_sample(randomize_local(trace, seed=3))
        ok &= np.array_equal(a.taus, b.taus) and np.array_equal(a.lambdas, b.lambdas)
        if not ok:
            break
    assert report(7, "randomizations preserve their exact invariants", ok)


def test_criterion_8_branch_continuity(rng):
    lam = 10 ** rng.uniform(-6, 1, 1000)
    tau = 10 ** rng.uniform(-1, 6, 1000)
    worst = 0.0
    for active, expired in (
        (_ws_pair_active, _ws_pair_expired),
        (_repeat_pair_active, _repeat_pair_expired),
        (_hits_short_doc, _hits_long_doc),
    ):
        left = active(lam, tau, tau)
        right = expired(lam, tau, tau)
        scale = np.maximum(np.abs(left), np.abs(right)) + 1e-300
        worst = max(worst, float(np.max(np.abs(left - right) / scale)))
    ok = worst <= 1e-12
    assert report(8, "piecewise formulas agree at their breakpoints",
                  ok, f"worst rel gap={worst:.2e}")
