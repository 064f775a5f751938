"""Request trace data model, CSV ingestion, session consolidation and
sub-trace extraction.

A trace is a time-ordered sequence of document requests over a finite
observation window. Timestamps are integer milliseconds since the start of
the window, which keeps every downstream operation (randomization,
simulation, generation) bit-reproducible.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TraceParseError",
    "ObservationWindow",
    "Trace",
    "TraceSummary",
    "build_trace",
    "parse_trace",
    "serialize_trace",
    "consolidate_sessions",
    "extract_subtrace",
    "trace_stats",
]

#: Session gap threshold of 8 minutes, in milliseconds.
DEFAULT_SESSION_GAP_MS = 480_000


class TraceParseError(ValueError):
    """Raised when a trace CSV cannot be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ObservationWindow:
    """Observation window of a trace, in integer milliseconds."""

    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"window length must be positive, got {self.length}")


@dataclass(frozen=True)
class Trace:
    """A request trace: parallel event arrays plus the observation window.

    Events are sorted by timestamp, with ties kept in input order. Each id
    column is held once: an int32 code per request indexing a table of
    names that is strictly ascending and whose every name is requested, so
    grouping by code walks the documents (or users) in name order and
    ``doc_names[docs]`` gives each request's document id.

    Parameters
    ----------
    timestamps : ndarray of int64
        Non-decreasing request times in milliseconds, all within
        ``[0, window.length]``.
    docs, doc_names : ndarray of int32, ndarray of object
        Document code per request, and the distinct document identifiers.
    users, user_names : ndarray of int32, ndarray of object, optional
        The same for users; both None when the trace carries no users.
    window : ObservationWindow
        The observation window the timestamps live in.
    """

    timestamps: np.ndarray
    docs: np.ndarray
    doc_names: np.ndarray
    users: Optional[np.ndarray]
    user_names: Optional[np.ndarray]
    window: ObservationWindow

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "timestamps", ts)
        _check_ids(self.docs, self.doc_names, len(ts), "doc")
        if self.users is not None or self.user_names is not None:
            _check_ids(self.users, self.user_names, len(ts), "user")
        if len(ts):
            if ts[0] < 0:
                raise ValueError("negative timestamp in trace")
            if np.any(np.diff(ts) < 0):
                raise ValueError("timestamps are not sorted")
            if ts[-1] > self.window.length:
                raise ValueError(
                    f"timestamp {ts[-1]} exceeds window {self.window.length}"
                )

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def distinct_docs(self) -> int:
        """Number of distinct documents requested."""
        return len(self.doc_names)


def _check_ids(codes, names, n: int, what: str) -> None:
    """Check one id column: an int32 code per request, each in range, into
    an object array of strictly ascending names that are all used."""
    if not (isinstance(codes, np.ndarray) and codes.dtype == np.int32 and len(codes) == n
            and isinstance(names, np.ndarray) and names.dtype == object
            and (n == 0 or 0 <= codes.min() and codes.max() < len(names))
            and not np.any(names[1:] <= names[:-1])
            and np.bincount(codes, minlength=len(names)).all()):
        raise ValueError(f"{what} ids must be int32 codes, one per request, "
                         "using every name of a strictly ascending object array")


@dataclass(frozen=True)
class TraceSummary:
    """Catalog-level counts of a trace.

    ``distinct_docs`` splits into documents seen exactly once
    (``docs_single_request``) and documents seen at least twice
    (``docs_multi_request``); ``mean_requests_multi`` is the average request
    count over the latter class (0.0 when the class is empty).
    """

    total_requests: int
    distinct_docs: int
    docs_single_request: int
    docs_multi_request: int
    mean_requests_multi: float

    def __post_init__(self):
        if self.distinct_docs != self.docs_single_request + self.docs_multi_request:
            raise ValueError("distinct_docs must equal single + multi counts")


#: CSV rows checked and interned together. A file is never held as
#: strings at once, and few rows stay alive for the garbage collector.
_BATCH_ROWS = 512


def _intern(values, table: dict) -> np.ndarray:
    """Int32 code of each value in `table` (name -> code), which first
    takes the names it does not hold yet, in order of appearance."""
    fresh = itertools.filterfalse(table.__contains__, dict.fromkeys(values))
    table.update(zip(fresh, itertools.count(len(table))))
    return np.fromiter(map(table.__getitem__, values), np.int32, len(values))


def _compact(codes: np.ndarray, names: np.ndarray):
    """Codes recoded onto the names they use, taken in ascending order."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    kept = np.asarray(names, dtype=object)[used]
    # Python's sort compares strings faster than numpy's sort of objects
    order = sorted(range(len(kept)), key=kept.tolist().__getitem__)
    recode = np.zeros(len(names), dtype=np.int32)
    recode[used[order]] = np.arange(len(used), dtype=np.int32)
    return recode[codes], kept[order]


def _make_trace(
    timestamps, docs, doc_names, users=None, user_names=None, window_length=None
) -> Trace:
    """Build a Trace from integer codes into sequences of distinct names
    in any order (entries no code uses may be anything): sort the events
    stably by time, keep the used names and recode them in ascending
    order. Every Trace is built here."""
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if window_length is None:
        window_length = max(int(ts[-1]) if len(ts) else 0, 1)
    docs, doc_names = _compact(docs[order], doc_names)
    users, user_names = (None, None) if users is None else _compact(users[order], user_names)
    window = ObservationWindow(int(window_length))
    return Trace(ts, docs, doc_names, users, user_names, window)


def build_trace(
    timestamps: Sequence[int],
    docs: Sequence[str],
    users: Optional[Sequence[str]] = None,
    window_length: Optional[int] = None,
) -> Trace:
    """Assemble a Trace from unsorted event columns of ids.

    Sorts stably by timestamp and derives the window from the maximum
    timestamp when `window_length` is not given (at least 1 ms so the
    window stays valid for empty or single-instant traces).
    """
    doc_table, user_table = {}, {}
    doc_codes = _intern(docs, doc_table)
    user_codes = None if users is None else _intern(users, user_table)
    return _make_trace(timestamps, doc_codes, list(doc_table), user_codes,
                       list(user_table), window_length)


def parse_trace(reader, window_length: Optional[int] = None) -> Trace:
    """Parse a request trace from CSV.

    The expected format is a header line ``timestamp_ms,doc_id`` or
    ``timestamp_ms,doc_id,user_id`` followed by one row per request.
    Rows may be in any time order; the result is sorted stably. A file is
    read in batches of rows, interning the ids of each batch as it goes.

    Parameters
    ----------
    reader : text or binary file-like, or str path
        Source of the CSV data. Paths and bytes are decoded as UTF-8, a
        leading byte-order mark skipped; both LF and CRLF line endings are
        accepted.
    window_length : int, optional
        Observation window in milliseconds. Defaults to the maximum
        timestamp in the data.

    Returns
    -------
    Trace

    Raises
    ------
    TraceParseError
        On a malformed header or row (non-integer timestamp, one beyond
        int64, missing field), naming the offending line.
    ValueError
        When a timestamp exceeds the supplied `window_length`.
    """
    if isinstance(reader, (str, bytes)) and not hasattr(reader, "read"):
        with open(reader, "r", encoding="utf-8-sig", newline="") as handle:
            return parse_trace(handle, window_length)
    if not isinstance(reader, io.TextIOWrapper):  # bytes or text in memory
        raw = reader.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8-sig")
        reader = io.StringIO(raw, newline="")
    rows = csv.reader(reader)
    try:
        header = next(rows)
    except StopIteration:
        raise TraceParseError("empty input, expected a header line", line=1)
    header = [h.strip() for h in header]
    if header not in (["timestamp_ms", "doc_id"], ["timestamp_ms", "doc_id", "user_id"]):
        raise TraceParseError(f"unexpected header {header!r}", line=1)
    expected = len(header)
    has_user = expected == 3
    doc_table, user_table = {}, {}
    columns = [np.empty(0, np.int64)], [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    line = 2
    while batch := list(itertools.islice(rows, _BATCH_ROWS)):
        ts, ids = _parse_batch(batch, line, expected, window_length)
        columns[0].append(ts)
        columns[1].append(_intern(ids[0], doc_table))
        columns[2].append(_intern(ids[1] if has_user else (), user_table))
        line += len(batch)
    ts, doc_codes, user_codes = (np.concatenate(c) for c in columns)
    return _make_trace(ts, doc_codes, list(doc_table), user_codes if has_user else None,
                       list(user_table), window_length)


def _parse_batch(batch, line: int, expected: int, window_length: Optional[int]):
    """Timestamps and id columns of the CSV rows `batch`, the first on
    `line`, skipping blank rows. The rows are checked together, and one
    by one only when they fail, to name the first bad row."""
    rows = batch if all(batch) else [row for row in batch if row]
    try:
        fields = list(zip(*rows, strict=True)) or [()] * expected  # unequal rows raise
        ts = np.fromiter(map(int, fields[0]), np.int64, len(rows))
        if len(fields) != expected or len(rows) and (ts.min() < 0 or not all(fields[1]) or (
                window_length is not None and ts.max() > window_length)):
            raise ValueError
        return ts, fields[1:]
    except (ValueError, OverflowError):
        pass
    for lineno, row in enumerate(batch, start=line):  # the first bad row raises
        if not row:
            continue
        if len(row) != expected:
            raise TraceParseError(f"expected {expected} fields, got {len(row)}", line=lineno)
        try:
            ts = int(row[0])
        except ValueError:
            raise TraceParseError(f"non-integer timestamp {row[0]!r}", line=lineno)
        if ts < 0:
            raise TraceParseError(f"negative timestamp {ts}", line=lineno)
        if ts >= 1 << 63:
            raise TraceParseError(f"timestamp {ts} beyond int64", line=lineno)
        if not row[1]:
            raise TraceParseError("empty doc_id", line=lineno)
        if window_length is not None and ts > window_length:
            raise ValueError(f"line {lineno}: timestamp {ts} exceeds window {window_length}")
    raise AssertionError("the rows failed their joint check but no row check")


def serialize_trace(trace: Trace, writer) -> None:
    """Write a trace as CSV, the inverse of :func:`parse_trace`.

    Emits the ``user_id`` column only when the trace carries users.
    """
    columns = [trace.timestamps.tolist(), trace.doc_names[trace.docs].tolist()]
    tables = [trace.doc_names]
    if trace.users is not None:
        columns.append(trace.user_names[trace.users].tolist())
        tables.append(trace.user_names)
    # the writer quotes an id holding "\n" but not one holding a lone "\r"
    carriage = any("\r" in str(name) for table in tables for name in table)
    out = csv.writer(writer, lineterminator="\n",
                     quoting=csv.QUOTE_NONNUMERIC if carriage else csv.QUOTE_MINIMAL)
    out.writerow(["timestamp_ms", "doc_id", "user_id"][: len(columns)])
    out.writerows(zip(*columns))


def consolidate_sessions(
    trace: Trace, gap_threshold: int = DEFAULT_SESSION_GAP_MS
) -> Trace:
    """Collapse per-user request sessions into single events.

    For each (user, doc) pair, maximal runs of consecutive requests whose
    inter-arrival time is below `gap_threshold` are replaced by one event
    at the run's first timestamp. The default threshold is 8 minutes. The
    operation is idempotent: surviving events of one (user, doc) pair are
    at least `gap_threshold` apart.

    Parameters
    ----------
    trace : Trace
        Must carry user identifiers.
    gap_threshold : int
        Session gap in milliseconds; a gap >= threshold starts a new run.

    Returns
    -------
    Trace
        Consolidated trace over the same observation window.

    Raises
    ------
    ValueError
        When the trace has no user identifiers.
    """
    if trace.users is None:
        raise ValueError("session consolidation requires user identifiers")
    if gap_threshold <= 0:
        raise ValueError("gap_threshold must be positive")
    pair = trace.users.astype(np.int64) * len(trace.doc_names) + trace.docs
    order = np.argsort(pair, kind="stable")  # pairs, time order within
    pair = pair[order]
    keep = np.ones(len(trace), dtype=bool)
    keep[order[1:]] = (pair[1:] != pair[:-1]) | (
        np.diff(trace.timestamps[order]) >= gap_threshold
    )
    return _make_trace(trace.timestamps[keep], trace.docs[keep], trace.doc_names,
                       trace.users[keep], trace.user_names, trace.window.length)


def extract_subtrace(trace: Trace, duration: int) -> Trace:
    """Extract the busiest sub-trace of a given duration.

    Scans windows ``[s, s + duration]`` anchored at every event timestamp
    and returns the one holding the most requests (earliest start on
    ties), with timestamps re-based to 0.

    Parameters
    ----------
    trace : Trace
    duration : int
        Sub-window length in milliseconds, 0 < duration <= window length.

    Returns
    -------
    Trace
        The densest sub-trace, over a window of length `duration`.
    """
    if duration <= 0 or duration > trace.window.length:
        raise ValueError(
            f"duration must be in (0, {trace.window.length}], got {duration}"
        )
    ts = trace.timestamps
    lo = hi = 0
    if len(ts):
        # per candidate start ts[i], events within [ts[i], ts[i]+duration]
        ends = np.searchsorted(ts, ts + duration, side="right")
        lo = int(np.argmax(ends - np.arange(len(ts))))  # the first maximum
        hi = int(ends[lo])
    users = None if trace.users is None else trace.users[lo:hi]
    # ts[lo:lo + 1] is the start, or empty with the trace
    return _make_trace(ts[lo:hi] - ts[lo : lo + 1], trace.docs[lo:hi], trace.doc_names,
                       users, trace.user_names, duration)


def trace_stats(trace: Trace) -> TraceSummary:
    """Compute catalog-level counts: the single/multi request split.

    Returns all-zero counts for an empty trace.
    """
    counts = np.bincount(trace.docs, minlength=len(trace.doc_names))
    multi = counts[counts >= 2]
    return TraceSummary(
        total_requests=len(trace),
        distinct_docs=len(counts),
        docs_single_request=int(np.count_nonzero(counts == 1)),
        docs_multi_request=len(multi),
        mean_requests_multi=float(multi.mean()) if len(multi) else 0.0,
    )
