"""Property tests: the batched characteristic-time inverter, the bounds
of the predicted hit-ratio curve, the box model's lifespan split against
its old broadcast means and the gap weight's two forms; the
rounded cache-size grid, exact stack distances, the CSV round trip, the
two CSV tokenizers and the serializer against the stdlib csv module,
session consolidation, the packed-key stable sort, the byte
order of the id tables and the randomization invariants of the trace
layer; the generator's default warmup against ``np.percentile``, the
Monte Carlo counts against one ``bincount`` per window length, and the
one-line manifests against their old indented rendering."""

import csv
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cachechurn.boxmodel import (
    SERIES_THRESHOLD,
    WorkingSetModel,
    _gap_weight,
    _ws_pair,
    box_hit_ratio_curve,
    box_working_set,
    characteristic_time,
    expected_hits_per_doc,
    mean_expected_hits,
    noise_working_set,
    repeat_doc_window_mean,
)
from cachechurn.estimators import EmpiricalJointSample, build_joint_sample, estimate_catalog_rate
from cachechurn.lrusim import _rounded_sizes, brute_force_lru, stack_distances
from cachechurn.shuffle import randomize_global, randomize_local, randomize_positional
from cachechurn import __version__, synth, trace as trace_module
from cachechurn.cli import main
from cachechurn.synth import (
    WARMUP_TAU_PERCENTILE,
    GeneratorConfig,
    generate_box_trace,
    monte_carlo_distinct_docs,
)
from cachechurn.trace import (
    build_trace,
    consolidate_sessions,
    parse_trace,
    serialize_trace,
    trace_stats,
)

from conftest import random_trace, read_csv, read_with

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


def broadcast_mean(kernel, lam, tau, t):
    """The population mean of a per-pair kernel at each t, as the box model
    took it before the lifespan split: one ``.mean(axis=1)`` over every
    (t, pair) cell."""
    return kernel(lam, tau, np.asarray(t, dtype=float)[:, None]).mean(axis=1)


@settings(max_examples=100, deadline=None)
@given(
    # lambda * tau >= 1e-3: below it both forms lose digits to the cancellation
    # of 2 tau (1 - e^-x) against G(x) 4 / lambda, and differ by ~4e-12 at 1e-5
    log_pairs=st.lists(st.tuples(st.floats(-4, -1), st.floats(1, 4)), min_size=1, max_size=40),
    log_t=st.lists(st.floats(-1, 7), max_size=10),
    at_tau=st.lists(st.integers(0, 39), max_size=4),
    n1=st.integers(0, 50),
)
@example(log_pairs=[(-2.0, 3.0)], log_t=[2.0, 4.0], at_tau=[0], n1=0)  # one pair, t = tau
def test_lifespan_split_matches_broadcast(log_pairs, log_t, at_tau, n1):
    lam = 10.0 ** np.array([p[0] for p in log_pairs])
    tau = 10.0 ** np.array([p[1] for p in log_pairs])
    # t = 0, windows on both sides of every lifespan, and lifespans exactly
    t = np.array([0.0] + [10.0**e for e in log_t] + [tau[i % len(tau)] for i in at_tau])
    window, gamma = 10**6, 0.01
    model = WorkingSetModel(gamma, EmpiricalJointSample(lam, tau, n1, len(lam), 2.0, window))
    want = noise_working_set(t, n1, window) + gamma * broadcast_mean(
        repeat_doc_window_mean, lam, tau, t)
    np.testing.assert_allclose(model(t), want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(mean_expected_hits(lam, tau, t),
                               broadcast_mean(expected_hits_per_doc, lam, tau, t),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(box_working_set(t, gamma, lam, tau),
                               gamma * broadcast_mean(_ws_pair, lam, tau, t), rtol=1e-12, atol=0)
    batched = model(t)  # each t alone, as one-size arrays and as scalars
    for i, x in enumerate(t):
        assert_same_bits(model(t[i:i + 1]), batched[i:i + 1])
        assert_same_bits(model(float(x)), float(batched[i]))


def gap_weight_by_where(x):
    """The gap weight with both forms on every cell and one kept by
    ``np.where``, as it was before the series went to the small cells only."""
    x = np.asarray(x, dtype=float)
    exact = -np.expm1(-x) - x * np.exp(-x)
    series = (
        0.5 * x * x * (1 - (2.0 / 3.0) * x + 0.25 * x * x - x**3 / 15.0 + x**4 / 72.0)
    )
    out = np.where(x < SERIES_THRESHOLD, series, exact)
    return out if out.ndim else float(out)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


gap_arguments = st.lists(
    st.one_of(st.floats(0, 2 * SERIES_THRESHOLD), st.floats(0, 60)), min_size=1, max_size=40
)


@settings(max_examples=150, deadline=None)
@given(values=gap_arguments)
@example(values=[np.nextafter(SERIES_THRESHOLD, 0), SERIES_THRESHOLD, 0.0, 1.0])
def test_gap_weight_matches_both_forms_by_where(values):
    x = np.array(values)
    assert_same_bits(_gap_weight(x), gap_weight_by_where(x))
    wide = np.broadcast_to(x, (3, len(x)))
    assert_same_bits(_gap_weight(wide), gap_weight_by_where(wide))
    grid = x[:, None] * np.array([0.5, 1.0, 3.0])
    assert_same_bits(_gap_weight(grid), gap_weight_by_where(grid))
    for v in values[:4]:
        for scalar in (v, np.float64(v), np.array(v)):
            assert_same_bits(_gap_weight(scalar), gap_weight_by_where(scalar))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["log", "lin"]),
    lo=st.integers(1, 100),
    span=st.one_of(st.integers(0, 60), st.integers(0, 10**9)),
    n=st.integers(1, 400),
)
@example(kind="log", lo=1, span=9, n=40)  # many duplicates at the small end
@example(kind="lin", lo=5, span=3, n=50)
def test_rounded_sizes_match_unique(kind, lo, span, n):
    grid = (np.geomspace if kind == "log" else np.linspace)(lo, lo + span, n)
    want = np.unique(np.rint(grid).astype(np.int64))
    got = _rounded_sizes(grid)
    assert got.dtype == want.dtype and np.array_equal(got, want)


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
        st.tuples(st.integers(0, 2**62), st.text(), st.text()),
        min_size=1,
        max_size=20,
    ),
    with_users=st.booleans(),
)
@example(rows=[(0, "\udc80x", "u"), (1, "y", "v")], with_users=False)
@example(rows=[(0, "a,\r\n", "\ud800"), (1, "b", "v")], with_users=True)
@example(rows=[(0, "a", "\udfff"), (1, '"b"', "v")], with_users=False)  # users not taken
@example(rows=[(0, "", "u"), (1, "b", "v")], with_users=False)  # an empty doc id is refused
@example(rows=[(0, "a", ""), (1, "b", "v")], with_users=True)  # an empty user id is kept
def test_serialize_parse_round_trip(rows, with_users):
    # whatever build_trace accepts is written and read back as it was; it
    # refuses an id with a lone surrogate, which has no UTF-8 form, and an
    # empty doc id, which the parser refuses
    users = [u for _, _, u in rows] if with_users else None
    try:
        trace = build_trace([t for t, _, _ in rows], [d for _, d, _ in rows], users)
    except ValueError:  # only an id that is not Unicode text, or an empty doc id
        ids = [d for _, d, _ in rows] + (users or [])
        assert (any("\ud800" <= char <= "\udfff" for name in ids for char in name)
                or "" in [d for _, d, _ in rows])
        return
    buf = io.StringIO()
    serialize_trace(trace, buf)
    back = parse_trace(io.StringIO(buf.getvalue()), trace.window.length)
    assert back.timestamps.tolist() == trace.timestamps.tolist()
    assert doc_ids(back) == doc_ids(trace)
    if with_users:
        assert back.user_names[back.users].tolist() == trace.user_names[trace.users].tolist()
    else:
        assert back.users is None


#: plain rows, and odd rows: a quote, a lone CR, a blank line, a field too
#: many or too few, an empty field, a timestamp that is signed, spaced or
#: beyond 18 digits, an id that is not UTF-8
plain_bytes = [b"a", b"b", b"7", b"\x00", b" ", b"+", b"\xc3\xa9", b"\xef\xbb\xbf"]
plain_id = st.one_of(
    st.lists(st.sampled_from(plain_bytes), min_size=1, max_size=12).map(b"".join),
    st.sampled_from([b"abcdefgh", b"abcdefgh\x00", b"abcdefghij", b"abcdefghij\x00",
                     b"a", b"a\x00"]),
)
digits = st.integers(0, 10**6).map(lambda v: str(v).encode())
plain_row = st.tuples(digits, plain_id, plain_id, st.sampled_from([b"\n", b"\n", b"\r\n"]))
odd = st.lists(st.sampled_from(plain_bytes + [b",", b"\r", b"\n", b'"', b"\xff", b"-"]),
               max_size=6).map(b"".join)
odd_row = st.tuples(st.one_of(st.integers(0, 10**20).map(lambda v: str(v).encode()), odd),
                    st.one_of(plain_id, odd), st.one_of(plain_id, odd),
                    st.sampled_from([b"\n", b"\r", b""]))


def outcome(parse):
    """The trace `parse()` gives, as lists, or its error; None for None."""
    try:
        trace = parse()
    except ValueError as exc:  # TraceParseError included
        return type(exc), str(exc)
    if trace is None:
        return None
    columns = ("timestamps", "docs", "doc_names", "users", "user_names")
    return [None if getattr(trace, c) is None else getattr(trace, c).tolist()
            for c in columns] + [trace.window.length]


@settings(max_examples=300, deadline=None)
@given(with_users=st.booleans(), rows=st.lists(plain_row, max_size=8),
       odd=st.one_of(st.none(), st.none(), st.tuples(st.integers(0, 8), odd_row)),
       ends_with_newline=st.booleans(), bom=st.booleans(),
       window=st.sampled_from([None, None, 5, 10**19]))
@example(with_users=True, rows=[(b"7", b"abcdefghij", b"u\x00", b"\r\n")] * 2,
         odd=(1, (b"5", b"d", b"\xff", b"\n")), ends_with_newline=False, bom=True, window=None)
@example(with_users=False, rows=[], odd=(0, (b"9" * 19, b"d", b"", b"\n")),
         ends_with_newline=True, bom=False, window=None)  # 19 digits: beyond int64
def test_byte_scan_matches_csv_reader(with_users, rows, odd, ends_with_newline, bom, window):
    if odd is not None:
        rows.insert(odd[0], odd[1])
    lines = [b"timestamp_ms,doc_id" + b",user_id" * with_users + b"\n"]
    lines += [b",".join((ts, doc, user)[: 2 + with_users]) + end for ts, doc, user, end in rows]
    data = b"".join(lines).removesuffix(b"\n" * (not ends_with_newline))

    scanned = outcome(lambda: read_with(trace_module._scan, data, window))
    read = outcome(lambda: read_csv(data, window))
    assert scanned == read
    source = io.BytesIO(b"\xef\xbb\xbf" * bom + data)
    assert outcome(lambda: parse_trace(source, window)) == read


def reference_csv(trace):
    """The CSV of a trace by the stdlib csv writer, one row at a time."""
    columns = [trace.timestamps.tolist(), trace.doc_names[trace.docs].tolist()]
    tables = [trace.doc_names]
    if trace.users is not None:
        columns.append(trace.user_names[trace.users].tolist())
        tables.append(trace.user_names)
    carriage = any("\r" in name for table in tables for name in table)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n",
                        quoting=csv.QUOTE_NONNUMERIC if carriage else csv.QUOTE_MINIMAL)
    writer.writerow(["timestamp_ms", "doc_id", "user_id"][: len(columns)])
    writer.writerows(zip(*columns))
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    # an empty doc id is no trace's (an empty user id is)
    rows=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.text(min_size=1, max_size=12),
                            st.text(max_size=12)), max_size=30),
    with_users=st.booleans(),
)
@example(rows=[(0, "a\rb", "")], with_users=True)
def test_serialize_matches_csv_writer(rows, with_users):
    users = [u for _, _, u in rows] if with_users else None
    trace = build_trace([t for t, _, _ in rows], [d for _, d, _ in rows], users,
                        window_length=2**63 - 1)
    out = io.StringIO()
    serialize_trace(trace, out)
    assert out.getvalue() == reference_csv(trace)


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


keys_int32 = st.lists(st.one_of(st.integers(0, 20), st.integers(-2**31, 2**31 - 1)),
                      max_size=200).map(lambda v: np.array(v, dtype=np.int32))
keys_int64 = st.lists(st.one_of(st.integers(-5, 5), st.integers(-2**40, 2**40)),
                      max_size=200).map(lambda v: np.array(v, dtype=np.int64))
# spans this wide leave no room for the index bits: the dense-rank branch
keys_extreme = st.lists(st.sampled_from([-2**63, -2**63 + 1, -1, 0, 2**62, 2**63 - 1]),
                        max_size=200).map(lambda v: np.array(v, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(keys=st.one_of(keys_int32, keys_int64, keys_extreme))
@example(keys=np.array([], dtype=np.int64))
@example(keys=np.array([7], dtype=np.int32))
@example(keys=np.full(50, -3, dtype=np.int64))
@example(keys=np.array([2**63 - 1, 0], dtype=np.int64))  # all 64 bits, no rank
@example(keys=np.array([2**63 - 1, -2**63, 0, 2**63 - 1], dtype=np.int64))  # rank
def test_stable_order_matches_stable_argsort(keys):
    expected = np.argsort(keys, kind="stable")
    assert np.array_equal(trace_module._stable_order(keys), expected)
    if keys.dtype == np.int64:  # the keys sorted in place too, from the words or not
        copy = keys.copy()
        assert np.array_equal(trace_module._stable_order(copy, sort=True), expected)
        assert np.array_equal(copy, keys[expected])


#: ids for the byte order: ASCII with NULs, 2-, 3- and 4-byte UTF-8, and
#: the code points either side of the surrogates (which build_trace
#: refuses); on prefixes that tie them on their first 8 or 16 bytes, and
#: each with a prefix of itself
utf8_chars = ["a", "b", "\x00", "\x7f", "\xe9", "\u07ff", "\u20ac", "\uffff", "\U0001d11e",
              "\U0010ffff"]
around_surrogates = ["\ud7ff", "\ue000"]


def id_list(chars):
    texts = st.lists(st.text(st.sampled_from(chars), max_size=40), min_size=1, max_size=30)
    heads = st.sampled_from(["", "abcdefgh", "abcdefghijklmnop", "\xe9\u20ac\U0001d11e"])
    return st.tuples(heads, texts).map(lambda drawn: list(dict.fromkeys(
        name[:40] for text in drawn[1] for name in (drawn[0] + text, drawn[0] + text[:len(text) // 2])
        if name)))


@settings(max_examples=200, deadline=None)
@given(names=st.one_of(id_list(utf8_chars), id_list(utf8_chars + around_surrogates)),
       ends_with_newline=st.booleans())
@example(names=["ab", "ab\x00", "ab\x00\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi",
                "abcdefghijklmnop", "abcdefghijklmnop\x00", "abcdefghijklmnopq", "b"],
         ends_with_newline=False)
def test_byte_order_matches_str_order(names, ends_with_newline):
    # every table is sorted by its ids' bytes where it is made: by
    # build_trace and by the byte scan, as by the csv reference reader
    order = names[1::2] + names[::2]
    trace = build_trace(range(len(order)), order)
    assert trace.doc_names.tolist() == sorted(names)
    assert trace.doc_names[trace.docs].tolist() == order
    data = "timestamp_ms,doc_id\n" + "".join(f"{t},{name}\n" for t, name in enumerate(order))
    data = data.encode().removesuffix(b"\n" * (not ends_with_newline))
    for parsed in read_with(trace_module._scan, data), read_csv(data):
        assert parsed.doc_names.tolist() == sorted(names)
        assert parsed.doc_names[parsed.docs].tolist() == order


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


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 5000), kind=st.sampled_from(["spread", "ties", "integers"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, kind="spread", seed=0)
@example(n=501, kind="spread", seed=1)  # the interpolation weight is near 0.5 here
@example(n=502, kind="ties", seed=2)
@example(n=4000, kind="spread", seed=3)  # the benchmark's pool size
@example(n=5000, kind="integers", seed=4)
def test_default_warmup_is_percentile_bit_for_bit(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "spread":
        taus = 10 ** rng.uniform(-3, 9, n)
    elif kind == "ties":
        taus = rng.choice(10 ** rng.uniform(0, 6, 3), n)
    else:  # integer-valued floats
        taus = rng.integers(1, 2**20, n).astype(float)
    config = GeneratorConfig(1.0, 10, np.ones(n), taus)
    assert_same_bits(config.warmup_ms, float(np.percentile(taus, WARMUP_TAU_PERCENTILE)))


def distinct_by_bincount(trace, t_grid, min_requests):
    """Per window length, the documents with `min_requests` requests
    within [0, t]: one ``bincount`` of the requests up to t per t."""
    counts = []
    for t in t_grid:
        upto = np.searchsorted(trace.timestamps, t, side="right")
        counts.append(int(np.count_nonzero(np.bincount(trace.docs[:upto]) >= min_requests)))
    return counts


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
    window=st.integers(1, 2000),
    pool=st.lists(st.tuples(st.floats(1e-3, 0.05), st.floats(1, 2000)), min_size=1,
                  max_size=4),
    warmup=st.one_of(st.none(), st.floats(0, 2000)),
    inner=st.lists(st.floats(0, 1), max_size=6),
    min_requests=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(gamma=0.0, window=50, pool=[(0.01, 10.0)], warmup=None, inner=[0.5], min_requests=1,
         seed=0)  # no document is published: every trace is empty
def test_monte_carlo_counts_match_bincount_per_t(gamma, window, pool, warmup, inner,
                                                 min_requests, seed):
    config = GeneratorConfig(gamma, window, *np.array(pool).T, warmup)
    t_grid = [0.0, float(window)] + [f * window for f in inner]
    traces = [generate_box_trace(config, np.random.SeedSequence([seed, rep]))
              for rep in range(3)]
    want = np.array([distinct_by_bincount(tr, sorted(t_grid), min_requests) for tr in traces])
    mc = monte_carlo_distinct_docs(config, t_grid, 3, seed, min_requests)
    assert_same_bits(mc.mean, want.mean(axis=0))
    assert_same_bits(mc.stderr, want.std(axis=0, ddof=1) / math.sqrt(3))
    for trace, counts in zip(traces, want):  # each count exactly: one trace for every rep
        with mock.patch.object(synth, "generate_box_trace", lambda config, seed: trace):
            mc = monte_carlo_distinct_docs(config, t_grid, 2, seed, min_requests)
        assert mc.mean.tolist() == counts.tolist()


def test_manifests_parse_to_their_indented_rendering(tmp_path, monkeypatch):
    """Each subcommand's one-line manifest holds what the indented
    rendering of the same keys and values held, the config echo included."""
    monkeypatch.chdir(tmp_path)
    with open("t.csv", "w", encoding="utf-8", newline="") as handle:
        serialize_trace(random_trace(np.random.default_rng(8), 600, 50, with_users=True),
                        handle)
    rng = np.random.default_rng(5)
    lams, taus = rng.uniform(0.002, 0.01, 40), rng.uniform(200, 2000, 40)
    Path("pool.json").write_text(json.dumps(
        {"gamma": 0.01, "window_ms": 5000, "pairs": np.column_stack((lams, taus)).tolist()}))
    Path("pair.json").write_text(json.dumps(
        {"gamma": 0.002, "window_ms": 2000, "pairs": [[0.001, 1000]]}))

    def config(gamma, window, lams, taus, warmup):
        return {"gamma": gamma, "window_ms": window, "warmup_ms": warmup,
                "pairs": [[float(l), float(t)] for l, t in zip(lams, taus)]}

    trace = {"inputs": {"trace": "t.csv"}}
    cases = [
        (["simulate", "t.csv", "--sizes", "log:1:max:12"],
         dict(trace, sizes="log:1:max:12", gap_ms=None)),
        (["shuffle", "t.csv", "--sizes", "lin:1:max:6", "--seed", "3", "--gap-ms", "50"],
         dict(trace, kind="all", seed=3, sizes="lin:1:max:6", gap_ms=50)),
        (["predict", "t.csv", "--method", "classic", "--sizes", "log:1:20:8"],
         dict(trace, method="classic", sizes="log:1:20:8", min_requests=2, gap_ms=None)),
        (["generate", "--config", "pool.json", "--seed", "4"],
         dict(seed=4, config=config(0.01, 5000, lams, taus,
                                    float(np.percentile(taus, WARMUP_TAU_PERCENTILE))))),
        (["validate", "--config", "pair.json", "--t-grid", "1000,2000", "--reps", "20",
          "--seed", "1"],
         dict(seed=1, reps=20, t_grid="1000,2000",
              config=config(0.002, 2000, [0.001], [1000.0], 1000.0))),
    ]
    for argv, params in cases:
        argv = argv + ["--out", f"{argv[0]}.out"]
        assert main(argv) == 0
        text = Path(f"{argv[0]}.out.manifest.json").read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        old = {"tool": "cachechurn", "version": __version__, "subcommand": argv[0],
               "argv": argv, "outputs": [f"{argv[0]}.out"], **params}
        assert json.loads(text) == json.loads(json.dumps(old, indent=2, sort_keys=True) + "\n")
