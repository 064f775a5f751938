"""Property tests of the model layer: the batched characteristic-time
inverter and the bounds of the predicted hit-ratio curve."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cachechurn.boxmodel import box_hit_ratio_curve, box_working_set, characteristic_time
from cachechurn.estimators import build_joint_sample, estimate_catalog_rate
from cachechurn.trace import build_trace, trace_stats

# floating-point slack of the bounds below; solve_n_prime stops at a
# residual of 1e-10, so n' - 1 + exp(-n') may exceed n - 1 by that much
SLACK = 1e-9

pairs = st.lists(
    st.tuples(st.floats(-4, -1), st.floats(1, 4)), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(
    gamma_exp=st.floats(-3, 0),
    log_pairs=pairs,
    first=st.floats(0.1, 10),
    steps=st.lists(st.floats(1.01, 10), min_size=0, max_size=6),
    initial_upper=st.floats(1, 1e4),
)
def test_batched_characteristic_time(gamma_exp, log_pairs, first, steps, initial_upper):
    gamma = 10.0**gamma_exp
    lam = 10.0 ** np.array([p[0] for p in log_pairs])
    tau = 10.0 ** np.array([p[1] for p in log_pairs])
    sizes = first * np.cumprod([1.0] + steps)

    def ws(t):
        return box_working_set(t, gamma, lam, tau)

    times = characteristic_time(sizes, ws, initial_upper=initial_upper)
    assert [tc.cache_size for tc in times] == list(sizes)
    for c, tc in zip(sizes, times):
        [alone] = characteristic_time([c], ws, initial_upper=initial_upper)
        assert alone == tc  # bitwise: same t_C and residual
        assert tc.residual <= 1e-6 * c
        assert abs(ws(tc.t_c) - c) <= 1e-6 * c
    t_c = np.array([tc.t_c for tc in times])
    assert np.all(np.diff(t_c) > 0)


@settings(max_examples=60, deadline=None)
@given(
    requests=st.lists(
        st.tuples(st.integers(0, 5000), st.integers(0, 7)), min_size=2, max_size=80
    ),
)
def test_box_curve_within_cold_miss_ceiling(requests):
    # at least one document requested twice keeps the sample estimable
    requests = requests + [(requests[0][0], 0), (requests[1][0], 0)]
    trace = build_trace([t for t, _ in requests], [f"d{d}" for _, d in requests])
    sample = build_joint_sample(trace)
    gamma_hat = estimate_catalog_rate(trace_stats(trace), trace.window.length)
    sizes = np.arange(1, sample.distinct_docs + 3)
    curve, times = box_hit_ratio_curve(sample, gamma_hat, sizes)
    assert len(times) == len(sizes)
    ceiling = 1.0 - sample.distinct_docs / len(trace)
    assert np.all(curve.hit_ratios >= -SLACK)
    assert np.all(curve.hit_ratios <= ceiling + SLACK)
