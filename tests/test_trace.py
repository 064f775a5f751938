import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cachechurn import trace as trace_module
from cachechurn.estimators import build_joint_sample, rank_frequency
from cachechurn.shuffle import randomize
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

from conftest import random_trace, read_with


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
    # an id that is not UTF-8, on the byte scan and (a quote) on the csv reader
    for data in (b"timestamp_ms,doc_id\n1,a\n2,\xff\xfe\n",
                 b'timestamp_ms,doc_id\n1,"a"\n2,\xff\xfe\n',
                 b"timestamp_ms,doc_id,user_id\n1,a,\xff\n2,\xff,u\n"):
        with pytest.raises(TraceParseError, match="line 2: user_id is not valid UTF-8"
                           if b"user" in data else "line 3: doc_id is not valid UTF-8"):
            parse_trace(io.BytesIO(data))
    with pytest.raises(TraceParseError, match="line 2: doc_id is not valid UTF-8"):
        trace_from("timestamp_ms,doc_id\n1,a\ud800\n")  # text is encoded first
    # a field beyond the csv module's size limit, which the byte scan leaves to it
    with pytest.raises(TraceParseError, match="line 3: field larger than field limit"):
        parse_trace(io.BytesIO(b"timestamp_ms,doc_id\n1,a\n2," + b"x" * 200_000 + b"\n"))
    # the byte scan gives up on an id that is not UTF-8, as on a quote
    assert trace_module._scan(b"timestamp_ms,doc_id\n1,a\n2,\xff\xfe\n", None) is None
    # a line number counts the lines of a quoted id before it that spans lines
    with pytest.raises(TraceParseError, match="line 4: non-integer timestamp 'xx'"):
        trace_from('timestamp_ms,doc_id\n1,"a\nb"\nxx,c\n')
    with pytest.raises(TraceParseError, match="line 5: doc_id is not valid UTF-8"):
        parse_trace(io.BytesIO(b'timestamp_ms,doc_id\n1,"a\r\n\rb"\n2,\xff\n'))
    with pytest.raises(TraceParseError, match="line 4: field larger than field limit"):
        parse_trace(io.BytesIO(b'timestamp_ms,doc_id\n1,"a\nb"\n2,"' + b"x" * 200_000 + b'"\n'))
    # and after a blank row in its batch
    with pytest.raises(TraceParseError, match="line 4: field larger than field limit"):
        parse_trace(io.BytesIO(b"timestamp_ms,doc_id\n1,a\n\n2," + b"x" * 200_000 + b"\n"))
    # a bad row after an id that is not UTF-8: the first fault by line is named
    with pytest.raises(TraceParseError, match="line 3: doc_id is not valid UTF-8"):
        parse_trace(io.BytesIO(b"timestamp_ms,doc_id\n1,a\n2,\xff\n3,b\n4\n"))


def test_parse_error_missing_field():
    with pytest.raises(TraceParseError, match="line 3"):
        trace_from("timestamp_ms,doc_id\n1,a\n2\n")
    # separators that divide evenly into rows but lie in the wrong places
    with pytest.raises(TraceParseError, match="line 2: expected 2 fields, got 3"):
        trace_from("timestamp_ms,doc_id\n1,a,b\n2\n")
    # a blank row is skipped, and the rows after it keep their line numbers
    with pytest.raises(TraceParseError, match="line 4: expected 2 fields, got 1"):
        trace_from("timestamp_ms,doc_id\n5,a\n\n6\n")
    assert list(trace_from("timestamp_ms,doc_id\n5,a\n\n6,b\n").timestamps) == [5, 6]
    # after a quoted id that spans lines, the row's line in the file
    with pytest.raises(TraceParseError, match="line 5: expected 2 fields, got 1"):
        trace_from('timestamp_ms,doc_id\n1,"a\nb"\n2,c\n3\n')


def test_parse_error_negative_timestamp():
    with pytest.raises(TraceParseError, match="negative"):
        trace_from("timestamp_ms,doc_id\n-3,a\n")


def test_parse_error_bad_header():
    with pytest.raises(TraceParseError, match="header"):
        trace_from("time,doc\n0,a\n")
    # no header at all: zero bytes, or only a byte-order mark
    for data in (b"", b"\xef\xbb\xbf"):
        with pytest.raises(TraceParseError, match="line 1: empty input, expected a header line"):
            parse_trace(io.BytesIO(data))
    # a quoted header field beyond the csv module's size limit
    with pytest.raises(TraceParseError, match="line 1: field larger than field limit"):
        parse_trace(io.BytesIO(b'"' + b"x" * 200_000 + b'",doc_id\n'))


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
    with pytest.raises(ValueError, match="line 5: timestamp 50 exceeds window 10"):
        trace_from('timestamp_ms,doc_id\n1,"a\nb"\n2,c\n50,d\n', window=10)
    # an id that is not UTF-8 on an earlier line is the first fault; on the
    # same line, the timestamp is
    with pytest.raises(TraceParseError, match="line 2: doc_id is not valid UTF-8"):
        parse_trace(io.BytesIO(b"timestamp_ms,doc_id\n1,\xff\n50,a\n"), 10)
    with pytest.raises(ValueError, match="line 2: timestamp 50 exceeds window 10"):
        parse_trace(io.BytesIO(b"timestamp_ms,doc_id\n50,\xff\n1,a\n"), 10)
    # the same past the csv reader's first batch of rows
    head = b'timestamp_ms,doc_id\n0,"a"\n' + b"1,b\n" * 2 * trace_module._BATCH_ROWS
    line = 3 + 2 * trace_module._BATCH_ROWS
    with pytest.raises(TraceParseError, match=f"line {line}: doc_id is not valid UTF-8"):
        parse_trace(io.BytesIO(head + b"1,\xff\n50,a\n"), 10)
    with pytest.raises(ValueError, match=f"line {line}: timestamp 50 exceeds window 10"):
        parse_trace(io.BytesIO(head + b"50,\xff\n1,a\n"), 10)


@pytest.mark.parametrize("stamp", ["1_0", "\u0667", "\uff17"])  # 10, Arabic-Indic and fullwidth 7
def test_parse_error_timestamp_that_int_takes(stamp):
    # int() takes these, but a timestamp is ASCII digits, signed or spaced
    for rows in (f"{stamp},a\n", f"1,a\n{stamp},b\n2,c\n"):
        with pytest.raises(TraceParseError, match=f"non-integer timestamp '{stamp}'"):
            trace_from("timestamp_ms,doc_id\n" + rows)
    assert trace_from("timestamp_ms,doc_id\n 7,a\n+7,b\n").timestamps.tolist() == [7, 7]


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
    with pytest.raises(ValueError, match="gap_threshold must be positive"):
        consolidate_sessions(random_trace(rng, 10, 3, with_users=True), 0)


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


def test_extract_subtrace_near_int64_max():
    # start + duration passes int64 here; the window [2**62, 2**63] holds both requests
    tr = build_trace([2**62, 2**62 + 1], ["a", "b"])
    sub = extract_subtrace(tr, 2**62)
    assert list(sub.timestamps) == [0, 1]
    assert list(doc_ids(sub)) == ["a", "b"]


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


def test_small_blocks_change_nothing(monkeypatch, rng):
    # blocks end after a newline or, past a row longer than a block, at the
    # next one; ids recur across blocks and are merged into one table, here
    # as soon as the groups waiting are as many as the table holds
    tr = random_trace(rng, 300, 40, with_users=True)
    buf = io.StringIO()
    serialize_trace(tr, buf)
    data = buf.getvalue().encode()
    expected = parse_trace(io.BytesIO(data))
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 16)
    monkeypatch.setattr(trace_module, "_MERGE_GROUPS", 1)
    got = parse_trace(io.BytesIO(data))
    assert trace_module._scan(data, None) is not None
    for field in ("timestamps", "docs", "doc_names", "users", "user_names"):
        assert getattr(got, field).tolist() == getattr(expected, field).tolist()
    again = io.StringIO()
    serialize_trace(got, again)
    assert again.getvalue() == buf.getvalue()


def test_hash_collision_splits_group(monkeypatch):
    # with a multiplier of 0 every id hashes alike: the byte scan finds
    # distinct ids in one group and splits it by their bytes, in each block
    # and again when the blocks' tables are merged
    data = b"timestamp_ms,doc_id,user_id\n3,bb,u\n1,a,u\n2,a\x00,v\n4,a,w\n5,bb,v\n"
    expected = parse_trace(io.BytesIO(data))
    monkeypatch.setattr(trace_module, "_MIX", np.uint64(0))
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 16)
    assert trace_module._scan(data, None) is not None
    got = parse_trace(io.BytesIO(data))
    for field in ("timestamps", "docs", "doc_names", "users", "user_names"):
        assert getattr(got, field).tolist() == getattr(expected, field).tolist()
    assert list(doc_ids(got)) == ["a", "a\x00", "bb", "a", "bb"]
    # and with a merge after each block: user ids of up to 8, 9 to 16 and
    # over 16 bytes, some alike but for their length or last byte, told
    # apart by their first word and then by the data, as the csv reader
    # reads them
    users = ["x" * size + tail for size in (1, 5, 7, 8, 9, 15, 16, 17, 24, 31)
             for tail in ("", "a", "\x00", "\xe9")]
    rows = [(t, f"d{t % 3}", users[7 * t % len(users)]) for t in range(3 * len(users))]
    data = ("timestamp_ms,doc_id,user_id\n"
            + "".join(f"{t},{doc},{user}\n" for t, doc, user in rows)).encode()
    expected = read_with(trace_module._tokenize, data)
    monkeypatch.setattr(trace_module, "_MERGE_GROUPS", 1)
    got = read_with(trace_module._scan, data)
    assert got is not None
    for field in ("timestamps", "docs", "doc_names", "users", "user_names"):
        assert getattr(got, field).tolist() == getattr(expected, field).tolist()
    assert got.user_names.tolist() == sorted(users)
    assert got.user_names[got.users].tolist() == [user for _, _, user in rows]
    # two ids alike in their first word and length, alone in their group
    # when their blocks merge, differ only in the data
    _, columns = trace_module._scan(b"timestamp_ms,doc_id\n0,xxxxxxxxxa\n1,xxxxxxxxxb\n", None)
    assert columns[0][1].tolist() == ["xxxxxxxxxa", "xxxxxxxxxb"]


def test_long_ids_checked_a_few_at_a_time(monkeypatch):
    # with a multiplier of 0 every id is in one hash group, so each is
    # checked against the one before it, word by word, here two at a time,
    # in each block and in each merge; the ids are longer than a word and
    # of many lengths
    docs = ["x" * size + tail for size in (1, 7, 8, 9, 16, 17, 30) for tail in ("", "a", "\x00")]
    rows = docs + docs[::-1] + docs[::3]
    data = ("timestamp_ms,doc_id\n" + "".join(f"{t},{doc}\n" for t, doc in enumerate(rows))).encode()
    monkeypatch.setattr(trace_module, "_MIX", np.uint64(0))
    monkeypatch.setattr(trace_module, "_BLOCK", 2)
    monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(trace_module, "_MERGE_GROUPS", 1)
    got = parse_trace(io.BytesIO(data))
    assert got.doc_names.tolist() == sorted(docs)
    assert doc_ids(got).tolist() == rows


def test_serialize_memory_follows_bytes_written():
    # one long id among many short ones: the serializer's working memory
    # follows the bytes it writes, not the names times the longest id
    long_id = "x" * 100_000  # within the csv module's field limit
    docs = [f"d{i % 2000}" for i in range(20_000)] + [long_id]
    tr = build_trace(range(len(docs)), docs)
    chunks = []
    tracemalloc.start()
    try:
        serialize_trace(tr, SimpleNamespace(write=chunks.append))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    back = parse_trace(io.StringIO("".join(chunks)))
    assert back.timestamps.tolist() == tr.timestamps.tolist()
    assert doc_ids(back).tolist() == docs


def test_build_trace_copies_timestamps():
    ts = np.array([0, 1, 2], dtype=np.int64)
    tr = build_trace(ts, ["a", "b", "a"])
    ts[0] = 5
    assert tr.timestamps.tolist() == [0, 1, 2]
    # the Trace's timestamps are sorted in place, in its own copy
    ts = np.array([2, 0, 1], dtype=np.int64)
    tr = build_trace(ts, ["a", "b", "c"])
    assert ts.tolist() == [2, 0, 1]
    assert tr.timestamps.tolist() == [0, 1, 2] and doc_ids(tr).tolist() == ["b", "c", "a"]


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


def test_derived_traces_reuse_only_checked_tables():
    # a trace derived from another shares its tables; a table that is not
    # the parent's, a parent table changed, or a view whose base is
    # changed, is checked
    tr = build_trace([0, 1, 2, 3], ["a", "b", "a", "c"], ["u", "v", "u", "w"])
    derived = consolidate_sessions(tr, 10)
    assert derived.doc_names is tr.doc_names and derived.user_names is tr.user_names
    reversed_view = tr.doc_names[::-1]  # never checked
    for table in reversed_view, reversed_view.copy():
        with pytest.raises(ValueError, match="doc ids"):
            trace_module._make_trace(tr.timestamps.copy(), tr.docs, table)
    names = tr.user_names
    names.flags.writeable = True
    names[[0, 1]] = names[[1, 0]]
    for derive in (lambda: consolidate_sessions(tr, 10), lambda: randomize(tr, "global", 0),
                   lambda: extract_subtrace(tr, 3)):
        with pytest.raises(ValueError, match="user ids"):
            derive()
    base = np.array(["u", "v", "w"], dtype=object)
    tr = build_trace([0, 1, 2, 3], ["a", "b", "a", "c"], ["u", "v", "u", "w"])
    viewed = Trace(tr.timestamps, tr.docs, tr.doc_names, tr.users, base[:], tr.window)
    base[[0, 1]] = base[[1, 0]]
    for derive in (lambda: consolidate_sessions(viewed, 10),
                   lambda: randomize(viewed, "global", 0), lambda: extract_subtrace(viewed, 3)):
        with pytest.raises(ValueError, match="user ids"):
            derive()


def test_derived_traces_check_a_table_made_read_only_again():
    # a parent table made writeable, changed and made read-only again is
    # compared by every trace derived from it
    tr = build_trace([0, 1, 2, 3], ["a", "b", "a", "c"], ["u", "v", "u", "w"])
    names = tr.user_names
    names.flags.writeable = True
    names[[0, 1]] = names[[1, 0]]
    names.flags.writeable = False
    for derive in (lambda: consolidate_sessions(tr, 10), lambda: randomize(tr, "global", 0),
                   lambda: randomize(tr, "positional", 0), lambda: randomize(tr, "local", 0),
                   lambda: extract_subtrace(tr, 3)):
        with pytest.raises(ValueError, match="user ids"):
            derive()
    # building a Trace leaves the caller's arrays as they were
    mine = np.array(["a", "b"], dtype=object)
    Trace(np.array([0, 1]), np.array([0, 1], np.int32), mine, None, None, ObservationWindow(5))
    assert mine.flags.writeable


def test_parse_memory_follows_the_ids():
    # one long id among many short ones, tied with one of them on its first
    # 16 bytes: ordering the ids reads on only those still tied, never every
    # word of every id
    long_id = "x" * 100_000
    docs = [f"d{i}" for i in range(2000)] + ["x" * 16 + "y", long_id]
    data = "timestamp_ms,doc_id\n" + "".join(f"{t},{doc}\n" for t, doc in enumerate(docs))
    tracemalloc.start()
    try:
        tr = parse_trace(io.StringIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert tr.doc_names.tolist() == sorted(docs)
    assert doc_ids(tr).tolist() == docs


def test_csv_reader_memory_follows_the_ids():
    # one quoted id sends the file through the csv reader, which holds no
    # line number for the rows it has read
    rows = 50_000
    data = 'timestamp_ms,doc_id\n0,"d0"\n' + "".join(f"{t},d{t % 100}\n" for t in range(1, rows))
    source = io.StringIO(data)  # made untraced: it holds 4 bytes a character
    tracemalloc.start()
    try:
        tr = parse_trace(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * rows
    assert doc_ids(tr).tolist() == [f"d{t % 100}" for t in range(rows)]


#: 50,000 distinct 6-byte user ids, in a shuffled order
MANY_USERS = [f"u{u:05d}" for u in np.random.default_rng(1).permutation(50_000).tolist()]


def test_parse_memory_follows_the_distinct_ids():
    # each block's ids are merged into one running table as the scan goes,
    # and that table is ordered and decoded once its merge inputs are freed
    data = ("timestamp_ms,doc_id,user_id\n"
            + "".join(f"{t},d{t % 100},{user}\n" for t, user in enumerate(MANY_USERS))).encode()
    tracemalloc.start()
    try:
        tr = parse_trace(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 140 * len(MANY_USERS)  # bytes per distinct id, the Trace included
    assert tr.user_names[tr.users].tolist() == MANY_USERS


def test_serialize_memory_follows_the_names():
    # the formatted tables are held once, and where each name starts in
    # them, and its length, as int32
    tr = build_trace(range(len(MANY_USERS)), [f"d{i % 100}" for i in range(len(MANY_USERS))],
                     MANY_USERS)
    tracemalloc.start()
    try:
        serialize_trace(tr, SimpleNamespace(write=len))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 75 * len(MANY_USERS)


def test_build_trace_rejects_an_id_that_is_not_unicode_text():
    # a lone surrogate has no UTF-8 form, so no trace file can hold it
    with pytest.raises(ValueError, match=r"doc_id '\\udc80x' is not Unicode text"):
        build_trace([0, 1], ["\udc80x", "y"])
    with pytest.raises(ValueError, match="user_id"):
        build_trace([0, 1], ["a", "b"], ["u", "\ud800"])


@pytest.mark.parametrize("duration", [20, 10])  # every name used, or not
def test_extract_subtrace_shares_no_memory(duration):
    tr = build_trace([0, 1, 2, 20], ["a", "b", "a", "c"], ["u", "v", "u", "w"], window_length=20)
    sub = extract_subtrace(tr, duration)
    assert len(sub) == (4 if duration == 20 else 3)
    for field in ("timestamps", "docs", "doc_names", "users", "user_names"):
        assert not np.shares_memory(getattr(sub, field), getattr(tr, field))


def test_compact_keeps_the_used_names():
    # int64 codes, as generated, into a catalog's indices, or into names
    codes, used = trace_module._compact(np.array([4, 0, 4, 2]), np.arange(5))
    assert codes.dtype == np.int32 and codes.tolist() == [2, 0, 2, 1]
    assert used.tolist() == [0, 2, 4]
    names = np.array(["a", "b", "c"], dtype=object)
    codes, table = trace_module._compact(np.array([2, 2]), names)
    assert codes.dtype == np.int32 and codes.tolist() == [0, 0] and table.tolist() == ["c"]
    codes, table = trace_module._compact(np.zeros(0, np.int32), names)
    assert codes.dtype == np.int32 and len(codes) == 0 and len(table) == 0


@pytest.mark.parametrize("collide", [False, True], ids=["two-ids-hash-alike", "all-ids-hash-alike"])
def test_byte_scan_tables_hold_each_used_id_once(monkeypatch, collide):
    # "b" and "a\0" hash alike; a multiplier of 0 makes every id collide, in
    # each 16-byte block and again when the blocks' tables are merged: a
    # group the split empties leaves no entry behind
    data = b"timestamp_ms,doc_id\n0,b\n1,a\x00\n"
    if collide:
        data = b"timestamp_ms,doc_id,user_id\n3,bb,u\n1,a,u\n2,a\x00,v\n4,a,w\n5,bb,v\n"
        monkeypatch.setattr(trace_module, "_MIX", np.uint64(0))
        monkeypatch.setattr(trace_module, "_BLOCK_BYTES", 16)
    _, columns = trace_module._scan(data, None)
    for codes, table in columns:
        assert len(set(table)) == len(table)
        assert sorted(set(codes.tolist())) == list(range(len(table)))
    assert columns[0][1].tolist() == (["a", "a\x00", "bb"] if collide else ["a\x00", "b"])


def test_make_trace_does_not_repair_a_table():
    names = np.array(["a", "b", "c"], dtype=object)
    with pytest.raises(ValueError, match="doc ids must be"):
        trace_module._make_trace(np.array([0, 1]), np.array([0, 2], np.int32), names)
