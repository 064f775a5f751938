import io

import numpy as np
import pytest

from cachechurn.estimators import build_joint_sample, rank_frequency
from cachechurn.trace import (
    ObservationWindow,
    Trace,
    TraceParseError,
    build_trace,
    consolidate_sessions,
    extract_subtrace,
    parse_trace,
    serialize_trace,
    trace_stats,
)

from conftest import random_trace


def trace_from(text, window=None):
    return parse_trace(io.StringIO(text), window)


def doc_ids(trace):
    """The document id of each request."""
    return trace.doc_names[trace.docs]


def test_parse_basic():
    tr = trace_from("timestamp_ms,doc_id\n0,a\n5,b\n")
    assert len(tr) == 2
    assert tr.window.length == 5
    assert list(tr.timestamps) == [0, 5]
    assert list(doc_ids(tr)) == ["a", "b"]
    assert tr.users is None and tr.user_names is None


def test_parse_reorders_by_timestamp():
    tr = trace_from("timestamp_ms,doc_id\n5,b\n0,a\n")
    assert list(zip(tr.timestamps, doc_ids(tr))) == [(0, "a"), (5, "b")]


def test_parse_error_names_line():
    with pytest.raises(TraceParseError, match="line 2"):
        trace_from("timestamp_ms,doc_id\nxx,a\n")
    # an integer that int64 cannot hold is malformed too, not an overflow
    with pytest.raises(TraceParseError, match="line 3: timestamp .* beyond int64"):
        trace_from("timestamp_ms,doc_id\n0,a\n123456789012345678901,b\n")
    parse_trace(io.StringIO(f"timestamp_ms,doc_id\n{2**63 - 1},a\n"))


def test_parse_error_missing_field():
    with pytest.raises(TraceParseError, match="line 3"):
        trace_from("timestamp_ms,doc_id\n1,a\n2\n")


def test_parse_error_negative_timestamp():
    with pytest.raises(TraceParseError, match="negative"):
        trace_from("timestamp_ms,doc_id\n-3,a\n")


def test_parse_error_bad_header():
    with pytest.raises(TraceParseError, match="header"):
        trace_from("time,doc\n0,a\n")


def test_parse_bom_header_from_path_and_bytes(tmp_path):
    data = "\ufefftimestamp_ms,doc_id\n0,a\n5,b\n".encode("utf-8")
    path = tmp_path / "bom.csv"
    path.write_bytes(data)
    for source in (str(path), io.BytesIO(data)):
        tr = parse_trace(source)
        assert list(doc_ids(tr)) == ["a", "b"]
        assert tr.window.length == 5


def test_parse_timestamp_beyond_window():
    with pytest.raises(ValueError, match="exceeds window"):
        trace_from("timestamp_ms,doc_id\n0,a\n50,b\n", window=10)


def test_parse_user_column_and_crlf():
    tr = trace_from("timestamp_ms,doc_id,user_id\r\n0,a,u1\r\n5,b,u2\r\n")
    assert list(tr.user_names[tr.users]) == ["u1", "u2"]


def test_parse_empty_trace():
    tr = trace_from("timestamp_ms,doc_id\n")
    assert len(tr) == 0
    assert tr.window.length == 1  # minimal valid window


def test_tie_breaking_is_stable():
    tr = build_trace([5, 5, 5], ["c", "a", "b"])
    assert list(doc_ids(tr)) == ["c", "a", "b"]


@pytest.mark.parametrize("with_users", [False, True])
def test_serialize_parse_roundtrip(rng, with_users):
    tr = random_trace(rng, 200, 30, with_users=with_users)
    buf = io.StringIO()
    serialize_trace(tr, buf)
    back = parse_trace(io.StringIO(buf.getvalue()), tr.window.length)
    assert np.array_equal(back.timestamps, tr.timestamps)
    assert np.array_equal(doc_ids(back), doc_ids(tr))
    if with_users:
        assert np.array_equal(back.user_names[back.users], tr.user_names[tr.users])
    # and byte-identical on a second pass
    buf2 = io.StringIO()
    serialize_trace(back, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_consolidate_within_gap_collapses():
    tr = build_trace([0, 300_000], ["a", "a"], ["u", "u"], window_length=10**6)
    out = consolidate_sessions(tr, 480_000)
    assert len(out) == 1
    assert out.timestamps[0] == 0


def test_consolidate_beyond_gap_keeps_both():
    tr = build_trace([0, 600_000], ["a", "a"], ["u", "u"], window_length=10**6)
    out = consolidate_sessions(tr, 480_000)
    assert len(out) == 2


def test_consolidate_single_event_unchanged():
    tr = build_trace([7], ["a"], ["u"], window_length=100)
    out = consolidate_sessions(tr, 480_000)
    assert list(out.timestamps) == [7]


def test_consolidate_distinct_users_not_merged():
    tr = build_trace([0, 1000], ["a", "a"], ["u1", "u2"], window_length=10**6)
    assert len(consolidate_sessions(tr, 480_000)) == 2


def test_consolidate_requires_users(rng):
    tr = random_trace(rng, 10, 3)
    with pytest.raises(ValueError, match="user"):
        consolidate_sessions(tr, 480_000)


def test_consolidate_idempotent(rng):
    tr = random_trace(rng, 500, 10, window=2_000_000, with_users=True)
    once = consolidate_sessions(tr, 100_000)
    twice = consolidate_sessions(once, 100_000)
    assert np.array_equal(once.timestamps, twice.timestamps)
    assert np.array_equal(doc_ids(once), doc_ids(twice))


def test_extract_subtrace_whole_window():
    tr = build_trace([3, 5, 9], ["a", "b", "a"], window_length=20)
    sub = extract_subtrace(tr, 20)
    assert list(sub.timestamps) == [0, 2, 6]
    assert sub.window.length == 20


def test_extract_subtrace_densest():
    tr = build_trace([0, 1, 2, 100], ["a", "b", "c", "d"], window_length=100)
    sub = extract_subtrace(tr, 10)
    assert list(sub.timestamps) == [0, 1, 2]
    assert list(doc_ids(sub)) == ["a", "b", "c"]
    assert list(sub.doc_names) == ["a", "b", "c"]  # "d" is gone from the table


def test_extract_subtrace_empty():
    tr = build_trace([], [], window_length=50)
    sub = extract_subtrace(tr, 10)
    assert len(sub) == 0
    assert sub.window.length == 10


def test_extract_subtrace_bad_duration(rng):
    tr = random_trace(rng, 10, 3, window=100)
    with pytest.raises(ValueError):
        extract_subtrace(tr, 0)
    with pytest.raises(ValueError):
        extract_subtrace(tr, 101)


def test_extract_subtrace_maximal_by_exhaustive_scan(rng):
    # no window anchored at an event timestamp beats the returned one
    for _ in range(10):
        tr = random_trace(rng, 60, 8, window=300)
        duration = int(rng.integers(5, 80))
        sub = extract_subtrace(tr, duration)
        best = max(
            int(np.count_nonzero((tr.timestamps >= s) & (tr.timestamps <= s + duration)))
            for s in tr.timestamps
        )
        assert len(sub) == best


def test_trace_stats_mixed():
    tr = build_trace([0, 1, 2], ["a", "b", "a"])
    s = trace_stats(tr)
    assert (s.total_requests, s.distinct_docs) == (3, 2)
    assert (s.docs_single_request, s.docs_multi_request) == (1, 1)
    assert s.mean_requests_multi == 2.0


def test_trace_stats_empty():
    s = trace_stats(build_trace([], []))
    assert (
        s.total_requests,
        s.distinct_docs,
        s.docs_single_request,
        s.docs_multi_request,
        s.mean_requests_multi,
    ) == (0, 0, 0, 0, 0.0)


def test_trace_stats_all_same_doc():
    s = trace_stats(build_trace([0, 1, 2], ["a", "a", "a"]))
    assert (s.distinct_docs, s.docs_single_request, s.docs_multi_request) == (1, 0, 1)
    assert s.mean_requests_multi == 3.0


def test_trailing_nul_is_its_own_document():
    # "a" and "a\x00" are two ids; a string re-encoding that drops trailing
    # NULs once counted them as one document in some layers only
    tr = trace_from("timestamp_ms,doc_id\n0,a\n1,a\x00\n2,b\n")
    sample = build_joint_sample(tr)
    counts = (
        tr.distinct_docs,
        trace_stats(tr).distinct_docs,
        sample.n1 + sample.n2,
        len(rank_frequency(tr)),
    )
    assert counts == (3, 3, 3, 3)
    assert list(tr.doc_names) == ["a", "a\x00", "b"]


def test_trace_checks_its_id_invariant():
    ts, window = np.array([0, 1, 2]), ObservationWindow(5)
    names = np.array(["a", "b"], dtype=object)
    Trace(ts, np.array([0, 1, 0], np.int32), names, None, None, window)
    bad = [
        (np.array([0, 1, 0], np.int64), names),  # codes not int32
        (np.array([0, 2, 0], np.int32), names),  # code out of range
        (np.array([0, -1, 0], np.int32), names),  # negative code
        (np.array([0, 0, 0], np.int32), names),  # unused name
        (np.array([0, 1, 0], np.int32), names[::-1].copy()),  # not ascending
        (np.array([0, 1, 0], np.int32), np.array(["a", "a"], dtype=object)),
        (np.array([0, 1], np.int32), names),  # not one per request
    ]
    for codes, table in bad:
        with pytest.raises(ValueError, match="doc ids"):
            Trace(ts, codes, table, None, None, window)
    with pytest.raises(ValueError, match="user ids"):
        Trace(ts, np.array([0, 1, 0], np.int32), names, None, names, window)
