"""Property tests: the batched characteristic-time inverter and the bounds
of the predicted hit-ratio curve; exact stack distances, the CSV round
trip, session consolidation and the randomization invariants of the trace
layer."""

import io

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cachechurn.boxmodel import box_hit_ratio_curve, box_working_set, characteristic_time
from cachechurn.estimators import build_joint_sample, estimate_catalog_rate
from cachechurn.lrusim import brute_force_lru, stack_distances
from cachechurn.shuffle import randomize_global, randomize_local, randomize_positional
from cachechurn.trace import (
    build_trace,
    consolidate_sessions,
    parse_trace,
    serialize_trace,
    trace_stats,
)

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


#: (timestamp, doc) requests of small traces over a few documents
requests = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 6)), min_size=1, max_size=60
)


def doc_ids(trace):
    return trace.doc_names[trace.docs].tolist()


@settings(max_examples=80, deadline=None)
@given(requests=requests)
def test_stack_distances_match_brute_force(requests):
    trace = build_trace([t for t, _ in requests], [f"d{d}" for _, d in requests])
    profile = stack_distances(trace)
    sizes = range(1, trace.distinct_docs + 2)
    assert profile.hits_at(sizes).tolist() == [brute_force_lru(trace, c) for c in sizes]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**62), st.text(min_size=1), st.text(min_size=1)),
        min_size=1,
        max_size=20,
    ),
    with_users=st.booleans(),
)
def test_serialize_parse_round_trip(rows, with_users):
    users = [u for _, _, u in rows] if with_users else None
    trace = build_trace([t for t, _, _ in rows], [d for _, d, _ in rows], users)
    buf = io.StringIO()
    serialize_trace(trace, buf)
    back = parse_trace(io.StringIO(buf.getvalue()), trace.window.length)
    assert back.timestamps.tolist() == trace.timestamps.tolist()
    assert doc_ids(back) == doc_ids(trace)
    if with_users:
        assert back.user_names[back.users].tolist() == trace.user_names[trace.users].tolist()
    else:
        assert back.users is None


def consolidate_reference(trace, gap):
    """Session consolidation as a loop over requests with a dict keyed by
    (user, doc): a request within `gap` of the pair's previous one goes."""
    kept, last_seen = [], {}
    users = trace.user_names[trace.users].tolist()
    for t, doc, user in zip(trace.timestamps.tolist(), doc_ids(trace), users):
        prev = last_seen.get((user, doc))
        if prev is None or t - prev >= gap:
            kept.append((t, doc, user))
        last_seen[(user, doc)] = t
    return kept


@settings(max_examples=100, deadline=None)
@given(
    triples=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=60,
    ),
    gap=st.integers(1, 15),  # small ranges, so gaps equal to the threshold are common
)
@example(triples=[(0, 0, 0), (5, 0, 0), (9, 0, 0)], gap=5)  # a gap of exactly the threshold
def test_consolidation_matches_dict_loop(triples, gap):
    trace = build_trace(
        [t for t, _, _ in triples],
        [f"d{d}" for _, _, d in triples],
        [f"u{u}" for _, u, _ in triples],
    )
    out = consolidate_sessions(trace, gap)
    got = list(zip(out.timestamps.tolist(), doc_ids(out), out.user_names[out.users].tolist()))
    assert got == consolidate_reference(trace, gap)
    assert out.window == trace.window


def times_by_doc(trace):
    grouped = {}
    for t, doc in zip(trace.timestamps.tolist(), doc_ids(trace)):
        grouped.setdefault(doc, []).append(t)
    return grouped


@settings(max_examples=60, deadline=None)
@given(requests=requests, seed=st.integers(0, 2**32 - 1))
def test_randomization_invariants(requests, seed):
    trace = build_trace([t for t, _ in requests], [f"d{d}" for _, d in requests],
                        window_length=300)
    before = times_by_doc(trace)
    for randomize in (randomize_global, randomize_positional, randomize_local):
        after = times_by_doc(randomize(trace, seed))
        assert {d: len(v) for d, v in after.items()} == {d: len(v) for d, v in before.items()}
        assert all(0 <= t <= 300 for v in after.values() for t in v)
    positional = times_by_doc(randomize_positional(trace, seed))
    assert all(np.diff(positional[d]).tolist() == np.diff(v).tolist() for d, v in before.items())
    local = times_by_doc(randomize_local(trace, seed))
    assert all((local[d][0], local[d][-1]) == (v[0], v[-1]) for d, v in before.items())
