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

    Events are sorted by timestamp, with ties kept in input order. Storage
    is columnar (`timestamps`, `docs`, and optionally `users`) so that
    million-request traces stay cheap to scan.

    Parameters
    ----------
    timestamps : ndarray of int64
        Non-decreasing request times in milliseconds, all within
        ``[0, window.length]``.
    docs : ndarray of object
        Document identifier per request.
    users : ndarray of object, optional
        User identifier per request; None when the trace carries no user
        information.
    window : ObservationWindow
        The observation window the timestamps live in.
    """

    timestamps: np.ndarray
    docs: np.ndarray
    users: Optional[np.ndarray]
    window: ObservationWindow

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        docs = np.asarray(self.docs, dtype=object)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "docs", docs)
        if self.users is not None:
            users = np.asarray(self.users, dtype=object)
            object.__setattr__(self, "users", users)
            if len(users) != len(ts):
                raise ValueError("users and timestamps length mismatch")
        if len(docs) != len(ts):
            raise ValueError("docs and timestamps length mismatch")
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
        return len(set(self.docs))


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


def _sort_events(timestamps, docs, users):
    """Stable sort of parallel event columns by timestamp."""
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    docs = np.asarray(docs, dtype=object)[order]
    users = None if users is None else np.asarray(users, dtype=object)[order]
    return ts[order], docs, users


def build_trace(
    timestamps: Sequence[int],
    docs: Sequence[str],
    users: Optional[Sequence[Optional[str]]] = None,
    window_length: Optional[int] = None,
) -> Trace:
    """Assemble a Trace from unsorted event columns.

    Sorts stably by timestamp and derives the window from the maximum
    timestamp when `window_length` is not given (at least 1 ms so the
    window stays valid for empty or single-instant traces).
    """
    ts, docs, users = _sort_events(timestamps, docs, users)
    if window_length is None:
        window_length = max(int(ts[-1]) if len(ts) else 0, 1)
    return Trace(ts, docs, users, ObservationWindow(int(window_length)))


def parse_trace(reader, window_length: Optional[int] = None) -> Trace:
    """Parse a request trace from CSV.

    The expected format is a header line ``timestamp_ms,doc_id`` or
    ``timestamp_ms,doc_id,user_id`` followed by one row per request.
    Rows may be in any time order; the result is sorted stably.

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
    raw = reader.read()
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8-sig")
    rows = csv.reader(io.StringIO(raw, newline=""))
    try:
        header = next(rows)
    except StopIteration:
        raise TraceParseError("empty input, expected a header line", line=1)
    header = [h.strip() for h in header]
    if header[:2] != ["timestamp_ms", "doc_id"] or len(header) > 3:
        raise TraceParseError(f"unexpected header {header!r}", line=1)
    has_user = len(header) == 3
    if has_user and header[2] != "user_id":
        raise TraceParseError(f"unexpected header {header!r}", line=1)

    timestamps: list[int] = []
    docs: list[str] = []
    users: list[str] = []
    expected = 3 if has_user else 2
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != expected:
            raise TraceParseError(
                f"expected {expected} fields, got {len(row)}", line=lineno
            )
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
            raise ValueError(
                f"line {lineno}: timestamp {ts} exceeds window {window_length}"
            )
        timestamps.append(ts)
        docs.append(row[1])
        if has_user:
            users.append(row[2])
    return build_trace(timestamps, docs, users if has_user else None, window_length)


def serialize_trace(trace: Trace, writer) -> None:
    """Write a trace as CSV, the inverse of :func:`parse_trace`.

    Emits the ``user_id`` column only when the trace carries users.
    """
    out = csv.writer(writer, lineterminator="\n")
    if trace.users is None:
        out.writerow(["timestamp_ms", "doc_id"])
        for t, d in zip(trace.timestamps, trace.docs):
            out.writerow([int(t), d])
    else:
        out.writerow(["timestamp_ms", "doc_id", "user_id"])
        for t, d, u in zip(trace.timestamps, trace.docs, trace.users):
            out.writerow([int(t), d, u])


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
    keep = np.ones(len(trace), dtype=bool)
    last_seen: dict[tuple, int] = {}
    for i, (ts, doc, user) in enumerate(
        zip(trace.timestamps, trace.docs, trace.users)
    ):
        key = (user, doc)
        prev = last_seen.get(key)
        if prev is not None and ts - prev < gap_threshold:
            keep[i] = False
        last_seen[key] = int(ts)
    return Trace(
        trace.timestamps[keep], trace.docs[keep], trace.users[keep], trace.window
    )


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
    window = ObservationWindow(int(duration))
    if len(trace) == 0:
        return Trace(trace.timestamps, trace.docs, trace.users, window)
    ts = trace.timestamps
    # per candidate start ts[i], events within [ts[i], ts[i]+duration]
    ends = np.searchsorted(ts, ts + duration, side="right")
    counts = ends - np.arange(len(ts))
    best = int(np.argmax(counts))  # argmax takes the first (earliest) maximum
    lo, hi = best, int(ends[best])
    users = None if trace.users is None else trace.users[lo:hi]
    return Trace(ts[lo:hi] - ts[lo], trace.docs[lo:hi], users, window)


def trace_stats(trace: Trace) -> TraceSummary:
    """Compute catalog-level counts: the single/multi request split.

    Returns all-zero counts for an empty trace.
    """
    if len(trace) == 0:
        return TraceSummary(0, 0, 0, 0, 0.0)
    _, counts = np.unique(trace.docs.astype(str), return_counts=True)
    n_single = int(np.count_nonzero(counts == 1))
    multi = counts[counts >= 2]
    mean_multi = float(multi.mean()) if len(multi) else 0.0
    return TraceSummary(
        total_requests=len(trace),
        distinct_docs=len(counts),
        docs_single_request=n_single,
        docs_multi_request=len(multi),
        mean_requests_multi=mean_multi,
    )
