"""Request trace data model, CSV ingestion, session consolidation and
sub-trace extraction.

A trace is a time-ordered sequence of document requests over a finite
observation window. Timestamps are integer milliseconds since the start of
the window, which keeps every downstream operation (randomization,
simulation, generation) bit-reproducible.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ._order import _BLOCK, _ranks, _stable_order

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
            if (ts[1:] < ts[:-1]).any():
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
            and _used(codes, len(names)).all()):
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


#: Bytes of CSV the byte scan, and the serializer, take at a time, so their
#: working arrays stay a small multiple of this whatever the trace's size.
_BLOCK_BYTES = 1 << 18
#: The fewest groups of a column's ids that are merged into its table: a
#: merge costs more per group than a block, so a small column is merged once.
_MERGE_GROUPS = 1 << 17
#: Rows the csv reader checks together: one bad row sends a batch through
#: the row-by-row checks that name it.
_BATCH_ROWS = 512
#: Odd multiplier of the id hash (Fibonacci hashing): any value gives the
#: same result, since every id is checked against its group and a group of
#: distinct ids is split.
_MIX = np.uint64(0x9E3779B97F4A7C15)
#: ``_KEEP[k]`` keeps the first k bytes of a little-endian 8-byte word,
#: ``_LAST[k]`` its last k bytes, and ``_ZEROS[k]`` fills the rest with "0".
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_LAST = _KEEP[::-1] ^ np.uint64(2**64 - 1)
_ZEROS = np.uint64(0x3030303030303030) & _KEEP[::-1]
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _intern(values, table: dict) -> np.ndarray:
    """Int32 code of each value in `table` (name -> code), which first
    takes the names it does not hold yet, in order of appearance."""
    fresh = itertools.filterfalse(table.__contains__, dict.fromkeys(values))
    table.update(zip(fresh, itertools.count(len(table))))
    return np.fromiter(map(table.__getitem__, values), np.int32, len(values))


def _used(codes: np.ndarray, size: int) -> np.ndarray:
    """Whether each of `size` names is used by `codes`, marked a block at a
    time, so no index copy of the whole column is made."""
    used = np.zeros(size, bool)
    for lo in range(0, len(codes), _BLOCK):
        used[codes[lo:lo + _BLOCK]] = True
    return used


def _compact(codes: np.ndarray, names: np.ndarray):
    """Codes into `names` recoded, as int32, onto the names they use, and
    those names, which keep their order (the indices of a generator's
    catalog stand for the names it has not formatted yet)."""
    used = np.flatnonzero(_used(codes, len(names)))
    recode = np.zeros(len(names), dtype=np.int32)
    recode[used] = np.arange(len(used), dtype=np.int32)
    return recode[codes], names[used]


def _byte_order(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                lead: np.ndarray) -> np.ndarray:
    """The permutation that sorts the distinct ids of `lengths` bytes from
    `starts` by their bytes, which for UTF-8 is ``str`` order; `words` holds
    the data's little-endian word at each byte, and `lead` each id's first
    one. A pass reads the next 8 bytes of the ids still tied (zero past an
    id's end), skips those that every run of tied ids shares, and sorts once
    by a uint64 key: the run, the bytes compared so far that the id has
    (shorter first), and as many bytes read as fit beside those and the
    index."""
    order = np.arange(len(starts))
    new = np.zeros(len(order), bool)  # where a run of ids tied so far starts
    new[:1] = True
    at, longest = 0, int(lengths.max(initial=0))
    while True:
        tied = ~new
        tied[:-1] |= ~new[1:]
        rows = np.flatnonzero(tied)
        if not len(rows):
            break
        ids = order[rows]
        word = (lead[ids] if at == 0 else  # the first pass reads no data
                _word(words, starts[ids] + at, np.maximum(lengths[ids] - at, 0))).byteswap()
        differ = word[1:] ^ word[:-1]
        differ[new[rows[1:]]] = 0
        skip = (64 - int(np.bitwise_or.reduce(differ)).bit_length()) // 8
        seen = np.minimum(lengths[ids], at + skip)
        seen -= seen.min()
        high = int(seen.max()).bit_length()
        key = np.cumsum(new[rows]) - 1  # the run
        width = 8 * min(8 - skip, max(1, (64 - max(len(rows) - 1, 1).bit_length()
                                          - int(key[-1]).bit_length() - high) // 8))
        key = (key << high | seen).view(np.uint64) << np.uint64(width)
        key |= word << np.uint64(8 * skip) >> np.uint64(64 - width)  # a shift by 64 gives 0
        del differ, seen, word
        if (key[1:] < key[:-1]).any():
            by = _stable_order(key)
            key, order[rows] = key[by], ids[by]
        new[rows[1:]] = key[1:] != key[:-1]
        if at + skip >= longest:  # this pass compared whole ids, and their lengths
            break
        at += skip + width // 8
    return order


def _sorted_names(names: list):
    """The rank of each of `names` in the order of their UTF-8 bytes, which
    is ``str`` order, and the names in that order; UnicodeEncodeError when
    one holds a lone surrogate, which has no UTF-8 form."""
    encoded = [name.encode("utf-8") for name in names]
    data = b"".join(encoded) + bytes(8)  # a word at each byte, and past the last
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    starts = np.cumsum(lengths) - lengths
    order = _byte_order(words, starts, lengths, _word(words, starts, lengths))
    return _ranks(order), np.array(names, dtype=object)[order]


def _make_trace(
    timestamps, docs, doc_names, users=None, user_names=None, window_length=None
) -> Trace:
    """Build a Trace from int32 codes into tables of distinct names in
    ascending order, every name used: sort the events stably by time.
    Every Trace is built here; every table is made complete and in order
    where it is created (see :func:`_byte_order` and :func:`_compact`),
    and the Trace checks it. An int64 `timestamps` array out of order is
    sorted in place: every caller hands over one it owns."""
    ts = np.asarray(timestamps, dtype=np.int64)
    if (ts[1:] < ts[:-1]).any():  # else already in order, and no copies are made
        order = _stable_order(ts, sort=True)
        docs, users = docs[order], None if users is None else users[order]
        del order
    if window_length is None:
        window_length = max(int(ts[-1]) if len(ts) else 0, 1)
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
    window stays valid for empty or single-instant traces). An id must be
    Unicode text, which a trace file can hold: one holding a lone surrogate
    is a ValueError.
    """
    columns = []
    for column, ids in zip(("doc_id", "user_id"), (docs,) if users is None else (docs, users)):
        table = {}
        codes = _intern(ids, table)
        try:
            rank, names = _sorted_names(list(table))
        except UnicodeEncodeError as exc:
            raise ValueError(f"{column} {exc.object!r} is not Unicode text") from None
        columns += [rank[codes], names]
    # a copy: the caller's array must not change the Trace later
    return _make_trace(np.array(timestamps, dtype=np.int64), *columns,
                       window_length=window_length)


def parse_trace(reader, window_length: Optional[int] = None) -> Trace:
    """Parse a request trace from CSV.

    The expected format is a header line ``timestamp_ms,doc_id`` or
    ``timestamp_ms,doc_id,user_id`` followed by one row per request.
    Rows may be in any time order; the result is sorted stably.

    A plain file is read by whole-array passes over blocks of its bytes.
    A file holding a quote, a lone CR or an id that is not UTF-8, or a row
    that is blank, has the wrong field count, an empty field or a
    timestamp other than 1 to 18 ASCII digits, is streamed through the
    stdlib ``csv`` module instead. Both give the same trace, or the same
    error, which names the first fault by its line in the file.

    Parameters
    ----------
    reader : text or binary file-like, or str path
        Source of the CSV data, read whole. Paths and bytes are UTF-8, a
        leading byte-order mark skipped; text is encoded as UTF-8 as it
        is. Both LF and CRLF line endings are accepted.
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
        int64, missing field, an id that is not valid UTF-8), naming the
        offending line.
    ValueError
        When a timestamp exceeds the supplied `window_length`.
    """
    if isinstance(reader, (str, bytes)) and not hasattr(reader, "read"):
        with open(reader, "rb") as handle:
            data = handle.read()
    else:
        data = reader.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")  # a lone surrogate fails as UTF-8
    else:
        data = data.removeprefix(codecs.BOM_UTF8)
    if not data:
        raise TraceParseError("empty input, expected a header line", line=1)
    ts, columns = _scan(data, window_length) or _tokenize(data, window_length)
    del data  # the columns hold no reference to it
    return _make_trace(ts, *itertools.chain(*columns), window_length=window_length)


def _check_header(fields) -> int:
    """The field count of a row under the header `fields`: a row, or the error reading it."""
    if isinstance(fields, csv.Error):  # a field beyond the csv module's size limit
        raise TraceParseError(str(fields), line=1)
    header = [h.strip() for h in fields]
    if header not in (["timestamp_ms", "doc_id"], ["timestamp_ms", "doc_id", "user_id"]):
        raise TraceParseError(f"unexpected header {header!r}", line=1)
    return len(header)


def _raise_first_fault(ts, columns, window_length, lines):
    """Raise the first fault by line of the rows with timestamps `ts` and id
    `columns` on `lines`, if any: an id that is not UTF-8, or a timestamp
    beyond the window, which wins over an id on its own row."""
    faults = []  # (row, whether an id's, message): on one row, the window's sorts first
    if window_length is not None and len(ts) and ts.max() > window_length:
        row = np.argmax(ts > window_length)
        faults.append((row, False, f"timestamp {ts[row]} exceeds window {window_length}"))
    for column, ids in zip(("doc_id", "user_id"), columns):
        try:
            "".join(ids).encode()
        except UnicodeEncodeError as exc:  # bytes that are not UTF-8, read as lone surrogates
            row = np.cumsum(list(map(len, ids))).searchsorted(exc.start, "right")
            faults.append((row, True, f"{column} is not valid UTF-8"))
    if faults:
        row, bad_id, message = min(faults)
        line = int(lines[row])
        raise TraceParseError(message, line) if bad_id else ValueError(f"line {line}: {message}")


def _tokenize(data: bytes, window_length: Optional[int]):
    """The rows of `data` by the stdlib csv reader: their timestamps, and
    per id column their codes and the sorted names these index. Rows are
    checked and interned a batch at a time, and the first fault by line is
    raised with the batch that holds it; each table is sorted once at the end."""
    # decoded as it is read, bytes that are not UTF-8 as lone surrogates
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape",
                                         newline=""))
    rows = _rows(reader)
    expected = _check_header(next(rows))
    tables = [{} for _ in range(expected - 1)]
    parts = [[np.zeros(0, np.int64)]] + [[np.zeros(0, np.int32)] for _ in tables]
    line = reader.line_num + 1
    while batch := list(itertools.islice(rows, _BATCH_ROWS)):
        lines = np.arange(line, line + len(batch))
        if reader.line_num != lines[-1]:  # a field spans lines: count the line ends in each
            text = map(",".join, batch[:-1])  # not the last row, which may be an error
            lines[1:] += np.cumsum([t.count("\n") + t.count("\r") - t.count("\r\n") for t in text],
                                   dtype=np.int64)
        line, error = reader.line_num + 1, None
        if isinstance(batch[-1], csv.Error):  # a field beyond the csv module's size limit
            error = TraceParseError(str(batch.pop()), int(lines[-1]))
            lines = lines[:-1]
        if not all(batch):  # blank rows are skipped
            lines = lines[list(map(bool, batch))]
            batch = list(filter(None, batch))
        fields = _batch_fields(batch, expected)
        if fields is None:  # name the first bad row, and keep the rows before it
            errors = map(_row_error, batch, itertools.repeat(expected), lines.tolist())
            good, error = next((n, e) for n, e in enumerate(errors) if e)
            batch, lines = batch[:good], lines[:good]
            fields = _batch_fields(batch, expected)
        _raise_first_fault(*fields, window_length, lines)
        if error:  # which lies after the rows kept
            raise error
        parts[0].append(fields[0])
        for table, ids, part in zip(tables, fields[1], parts[1:]):
            part.append(_intern(ids, table))
    ts, *codes = map(np.concatenate, parts)
    # every id is UTF-8 by now, so each table has its byte order
    return ts, [(rank[out], names)
                for out, (rank, names) in zip(codes, map(_sorted_names, map(list, tables)))]


def _rows(reader):
    """The rows of a csv `reader`, then the error that stopped it, if any."""
    try:
        yield from reader
    except csv.Error as exc:
        yield exc


def _batch_fields(rows: list, expected: int):
    """The timestamps of the csv `rows`, none blank, and their id columns,
    when every row passes the checks of :func:`_row_error`, else None."""
    try:
        fields = list(zip(*rows, strict=True)) or [()] * expected  # unequal rows raise
        text = "".join(fields[0]).encode("ascii")  # int() also takes "1_0" and "\uff17"
        ts = np.fromiter(map(int, fields[0]), np.int64, len(rows))
    except (ValueError, OverflowError):
        return None
    if len(fields) != expected or b"_" in text or rows and (ts.min() < 0 or not all(fields[1])):
        return None
    return ts, fields[1:]


def _row_error(row, expected: int, line: int) -> Optional[TraceParseError]:
    """What is wrong with a csv `row` on `line`, or None."""
    if len(row) != expected:
        return TraceParseError(f"expected {expected} fields, got {len(row)}", line=line)
    try:  # int() also takes "1_0" and "\uff17" (a fullwidth 7)
        ts = int(row[0].encode("ascii").replace(b"_", b"x"))
    except ValueError:
        return TraceParseError(f"non-integer timestamp {row[0]!r}", line=line)
    if ts < 0:
        return TraceParseError(f"negative timestamp {ts}", line=line)
    if ts >= 1 << 63:
        return TraceParseError(f"timestamp {ts} beyond int64", line=line)
    if not row[1]:
        return TraceParseError("empty doc_id", line=line)
    return None


def _scan(data: bytes, window_length: Optional[int]):
    """The rows of `data` by whole-array passes over blocks of its bytes,
    as :func:`_tokenize` gives them, or None when the input is not plain
    (see :func:`parse_trace`), holds a field beyond the csv module's size
    limit or an id that is not UTF-8; its one fault is the window's."""
    crlf = b"\r" in data
    if b'"' in data or crlf and data.count(b"\r") != data.count(b"\r\n"):
        return None
    pos = data.find(b"\n") + 1 or len(data)
    head = data[:pos].rstrip(b"\r\n")
    expected = _check_header(head.decode("utf-8", "surrogateescape").split(",") if head else [])
    count = data.count(b"\n", pos) + (pos < len(data) and not data.endswith(b"\n"))
    ts = np.empty(count, np.int64)
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # a word at each byte
    columns = [_IdColumn(data, words, count) for _ in range(expected - 1)]
    limit, row = csv.field_size_limit(), 0
    while pos < len(data):
        stop = len(data)
        if stop - pos > _BLOCK_BYTES:  # end the block after a newline
            stop = (data.rfind(b"\n", pos, pos + _BLOCK_BYTES) + 1
                    or data.find(b"\n", pos + _BLOCK_BYTES) + 1 or stop)
        block = buf[pos:stop]
        ends = np.flatnonzero(block <= 44)  # commas and newlines, and rarer bytes
        kinds = block[ends]
        separator = (kinds == 44) | (kinds == 10)
        if not separator.all():
            ends, kinds = ends[separator], kinds[separator]
        if block[-1] != 10:  # the last row has no newline
            ends, kinds = np.append(ends, len(block)), np.append(kinds, 10)
        if len(ends) % expected:
            return None
        ends, kinds = ends.reshape(-1, expected) + pos, kinds.reshape(-1, expected)
        if (kinds[:, :-1] != 44).any() or (kinds[:, -1] != 10).any():
            return None
        starts = np.empty_like(ends)
        starts[0, 0], starts[1:, 0], starts[:, 1:] = pos, ends[:-1, -1] + 1, ends[:, :-1] + 1
        if crlf:
            ends[:, -1] -= buf[ends[:, -1] - 1] == 13
        widths = ends - starts
        if widths.min() < 1 or widths.max() > limit or widths[:, 0].max() > 18:
            return None
        block_ts = _digits(words, ends[:, 0], widths[:, 0])
        if block_ts is None:
            return None
        n = len(block_ts)
        ts[row:row + n] = block_ts
        for index, column in enumerate(columns, 1):
            column.add(starts[:, index], ends[:, index], row)
        row, pos = row + n, stop
    block = starts = ends = kinds = widths = block_ts = None  # not alive while names decode
    try:
        columns = [(column.codes, column.names()) for column in columns]
    except UnicodeDecodeError:  # an id that is not UTF-8, which the csv reader names
        return None
    _raise_first_fault(ts, (), window_length, range(2, len(ts) + 2))
    return ts, columns


def _digits(words: np.ndarray, ends: np.ndarray, widths: np.ndarray) -> Optional[np.ndarray]:
    """The integer each field of `widths` ASCII digits ending before
    `ends` spells, or None when a byte is not a digit. Eight digits are
    read at once, from a word with the bytes before the field set to "0"."""
    value = np.zeros(len(ends), np.uint64)
    sign, six = np.uint64(0x8080808080808080), np.uint64(0x4646464646464646)
    for at in range(0, int(widths.max()), 8):
        inside = np.clip(widths - at, 0, 8)
        word = words[np.maximum(ends - at - 8, 0)] & _LAST[inside] | _ZEROS[inside]
        if ((word - _ZEROS[0] | word + six) & sign).any():  # a byte below "0" or above "9"
            return None
        # pairs, then fours, then all eight digits combined in place
        word = (word & np.uint64(0x0F0F0F0F0F0F0F0F)) * np.uint64(10 << 8 | 1) >> np.uint64(8)
        word = (word & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 << 16 | 1) >> np.uint64(16)
        word = (word & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 << 32 | 1) >> np.uint64(32)
        value += word * np.uint64(10**at)
    return value.view(np.int64)


def _word(words: np.ndarray, at: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The 8 bytes of the data from each of `at` as a little-endian word,
    zero past the `left` bytes that remain of its id. Most calls need no
    clamp, and one mask or none, since ids often share their length;
    skipping the rest takes about a tenth off a parse."""
    if at.max(initial=0) < len(words):
        word = words[at]
    else:
        top = np.minimum(at, len(words) - 1)  # the last word ends the data
        word = words[top] >> ((at - top) * 8).astype(np.uint64)
    low = int(left.min(initial=8))
    if low < 8:  # one mask for all when it can
        word &= _KEEP[np.minimum(left, 8)] if left.max() > low else _KEEP[low]
    return word


def _group_ids(data: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               key: np.ndarray, known: int = 0, read=()):
    """Number the ids of `lengths` bytes from `starts`, with hashes `key`,
    so that equal ids share a number: each of the first `known` ids, all
    distinct, keeps its index, and the others are numbered from `known` on
    in hash order. One sort of the hashes' high bits above each id's index
    orders them; each id is checked against the one before it, and ids that
    share those bits but differ are split by their bytes and numbered last.
    Returns each id's number (int32) and the first id of each new number."""
    n = len(key)
    bits = np.uint64(max(n - 1, 1).bit_length())
    order = key >> bits
    order <<= bits
    for lo in range(0, n, _BLOCK):  # no full-length index temporary
        order[lo:lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, n), dtype=np.uint64)
    order.sort()
    new = np.ones(n, bool)  # where a run of equal high bits starts
    np.greater_equal(order[1:] ^ order[:-1], np.uint64(1) << bits, out=new[1:])
    order &= (np.uint64(1) << bits) - np.uint64(1)
    order = order.view(np.int64)
    run = np.cumsum(new, dtype=np.int32)
    run -= 1
    first = order[new]
    split = np.zeros(len(first), bool)  # the runs whose ids differ
    split[run[_unlike_previous(words, starts, lengths, order, new, read)]] = True
    fresh = (first >= known) & ~split
    number = np.cumsum(fresh, dtype=np.int32)
    number += np.int32(known - 1)
    np.copyto(number, first, where=~fresh)
    group = np.empty(n, np.int32)
    group[order] = number[run]
    del number
    if split.any():
        rows = np.sort(order[split[run]])
        seen = {}
        twin = np.array([seen.setdefault(data[lo:lo + size], row) for row, lo, size in zip(
            rows.tolist(), starts[rows].tolist(), lengths[rows].tolist())], np.int64)
        outside = twin >= known  # not in the table: numbered after the rest
        ids, twin[outside] = np.unique(twin[outside], return_inverse=True)
        twin[outside] += known + np.count_nonzero(fresh)
        group[rows] = twin
        return group, np.concatenate([first[fresh], ids])
    return group, first[fresh]


def _unlike_previous(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                     order: np.ndarray, new: np.ndarray, read) -> np.ndarray:
    """Whether each id, taken in `order`, differs from the one before it in
    its run (`new` marks where runs start), a block of ids at a time: by the
    words every id has, from `read` in index order, then by reading the
    others of the ids in runs of two or more."""
    tied = ~new
    tied[:-1] |= ~new[1:]
    unlike = np.zeros(len(order), bool)
    for lo in range(1, len(order), _BLOCK):
        ids = order[lo - 1:lo + _BLOCK]
        size = lengths[ids]
        out = unlike[lo:lo + _BLOCK]
        np.not_equal(size[1:], size[:-1], out=out)
        for word in read:
            word = word[ids]
            out |= word[1:] != word[:-1]
        rows = np.flatnonzero(tied[lo - 1:lo + _BLOCK] & (size > 8 * len(read)))
        at, size = starts[ids[rows]], size[rows]
        for offset in range(8 * len(read), int(size.max(initial=0)), 8):
            reach = size > offset  # compared where an id and the one before it reach
            word = _word(words, at[reach] + offset, size[reach] - offset)
            pair = rows[reach]
            both = pair[1:] == pair[:-1] + 1
            out[pair[1:][both] - 1] |= word[1:][both] != word[:-1][both]
    unlike &= ~new  # an id that starts a run was read with the end of the run before
    return unlike


class _IdColumn:
    """One id column of the byte scan: an int32 code per row into a table
    of its distinct ids, each held as where one copy starts, its length, its
    first word and its hash. Each block's ids are grouped; the groups wait
    until they are as many as the table holds, and `_MERGE_GROUPS`, then are
    merged into it and their rows recoded. So the merges take time in
    proportion to the rows, and memory in proportion to the distinct ids
    plus one block. The first words spare the merges, the byte order and
    the names of short ids any read of the data."""

    def __init__(self, data: bytes, words: np.ndarray, rows: int):
        self.data, self.words = data, words
        self.codes = np.empty(rows, np.int32)
        offset = np.int32 if len(data) < 2**31 else np.int64  # where a copy starts
        self.table = (np.zeros(0, offset), np.zeros(0, np.int32), np.zeros(0, np.uint64),
                      np.zeros(0, np.uint64))
        self.pending, self.waiting, self.merged = [], 0, 0  # groups, their count, rows

    def add(self, starts: np.ndarray, ends: np.ndarray, row: int) -> None:
        """Group the block's ids, of the rows from `row` on: a hash of each,
        its length and then each 8-byte word xor-ed in and multiplied by
        _MIX; the words every id has are kept to check the groups by, and
        the first of them waits with each group."""
        lengths = (ends - starts).astype(np.int32)
        key, shortest, read = lengths.astype(np.uint64), int(lengths.min()), []
        for at in range(0, int(lengths.max()), 8):
            rows = slice(None) if at < shortest else np.flatnonzero(lengths > at)
            word = _word(self.words, starts[rows] + at, lengths[rows] - at)
            key[rows] = (key[rows] ^ word) * _MIX
            if at < shortest:
                read.append(word)
        group, first = _group_ids(self.data, self.words, starts, lengths, key, read=read)
        # a group's code counts after the table and the groups already waiting
        self.codes[row:row + len(group)] = group + (len(self.table[0]) + self.waiting)
        self.pending.append((starts[first].astype(self.table[0].dtype), lengths[first],
                             read[0][first], key[first]))
        del read
        self.waiting += len(first)
        if self.waiting >= max(len(self.table[0]), _MERGE_GROUPS):
            self._merge(row + len(group))

    def _merge(self, stop: int) -> None:
        """Merge the waiting groups into the table, and recode the rows up
        to `stop`; the new ids follow the table in the order of their
        numbers, that is of their hashes."""
        known = len(self.table[0])
        starts, lengths, lead, key = map(np.concatenate, zip(self.table, *self.pending))
        self.table, self.pending, self.waiting = None, [], 0
        group, first = _group_ids(self.data, self.words, starts, lengths, key, known, (lead,))
        self.table = tuple(np.concatenate([part[:known], part[first]])
                           for part in (starts, lengths, lead, key))
        del starts, lengths, lead, key, first
        for lo in range(self.merged, stop, _BLOCK):
            codes = self.codes[lo:min(lo + _BLOCK, stop)]
            codes[:] = group[codes]  # the waiting groups follow the table, as in `group`
        self.merged = stop

    def names(self):
        """The distinct ids in ascending order, the codes recoded in place
        to index them; UnicodeDecodeError when one is not UTF-8."""
        if self.pending:
            self._merge(len(self.codes))
        starts, lengths, lead = self.table[:3]  # the hashes are freed
        self.table = None
        order = _byte_order(self.words, starts, lengths, lead)
        rank = _ranks(order)
        for lo in range(0, len(self.codes), _BLOCK):  # no index copy of the whole column
            self.codes[lo:lo + _BLOCK] = rank[self.codes[lo:lo + _BLOCK]]
        del rank
        starts = starts[order]  # one copy at a time
        lengths = lengths[order]
        lead = lead[order].astype("<u8", copy=False) if lengths.min(initial=8) < 8 else None
        del order
        # the ids of each length decoded and split a slice at a time, so the
        # names are made in their order, and compare fast later: an id of up
        # to 7 bytes is its first word with a "\n" set after it (then NULs), a
        # longer one is gathered from the data as a record, and a "\n" added
        by_length = _stable_order(lengths).astype(np.int32)
        count = np.bincount(lengths)  # ids of each length, so each length's run
        widths = np.flatnonzero(count)
        runs = itertools.pairwise([0, *np.cumsum(count[widths]).tolist()])
        table, data = np.empty(len(starts), dtype=object), self.data
        for width, (lo, hi) in zip(widths.tolist(), runs):
            records = np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))
            step = max(1, _BLOCK_BYTES // 4 // (width + 1))
            for part in range(lo, hi, step):
                stop = min(part + step, hi)
                ids = by_length[part:stop]
                if width < 8:
                    text, end = lead[ids].copy(), "\n" + "\0" * (7 - width)
                    text |= np.uint64(10 << 8 * width)
                else:
                    text, end = np.full((stop - part, width + 1), 10, np.uint8), "\n"
                    text[:, :width] = records[starts[ids]].view(np.uint8).reshape(-1, width)
                table[ids] = np.fromiter(str(text, "utf-8").split(end), object, stop - part)
        return table


def serialize_trace(trace: Trace, writer) -> None:
    """Write a trace as CSV, the inverse of :func:`parse_trace`.

    Emits the ``user_id`` column only when the trace carries users. Each
    id column's table is formatted once, as the stdlib ``csv`` writer would
    (by the writer itself for a slice of it that holds a name it quotes);
    the rows are then gathered from those bytes, a block at a time.
    """
    columns = [(trace.docs, trace.doc_names)]
    if trace.users is not None:
        columns.append((trace.users, trace.user_names))
    # the source of every byte written: "\n", then per column "0", each id as
    # "," and the field the writer puts within a row, and "\n", a slice of the
    # table at a time; the writer quotes an id holding "\n" but not one
    # holding a lone "\r", so tables holding one are formatted again, all quoted
    for quoting in csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC:
        fields = csv.writer(SimpleNamespace(write=str), lineterminator="\n", quoting=quoting)
        source, bounds = bytearray(b"\n"), []
        for _, names in columns:
            bounds.append(len(source))
            source += b"0"
            for lo in range(0, len(names), _BLOCK // 8):
                part = names[lo:lo + _BLOCK // 8].tolist()
                text = "," + ",".join(part)  # the writer's, where no name needs quotes
                if (quoting != csv.QUOTE_MINIMAL or text.count(",") > len(part)
                        or '"' in text or "\n" in text):
                    text = fields.writerow([0, *part])[1:-1]
                source += text.encode("utf-8", "surrogatepass")
            source += b"\n"
        if b"\r" not in source:
            break
    out = csv.writer(writer, lineterminator="\n", quoting=quoting)
    out.writerow(["timestamp_ms", "doc_id", "user_id"][: len(columns) + 1])
    kind = np.int32 if len(source) < 2**31 else np.int64  # for positions in the source
    tables = []  # where each id starts in the source, and its length
    for (codes, _), lo, hi in zip(columns, bounds, bounds[1:] + [len(source)]):
        text = np.frombuffer(source, np.uint8, hi - lo, lo)
        # an id is "," + field: from a comma outside quotes to the next, or to the "\n"
        comma = np.logical_xor.accumulate(text == 34)
        np.logical_not(comma, out=comma)
        comma &= text == 44
        first = np.flatnonzero(comma).astype(kind)
        del text, comma  # the source can grow again
        size = np.diff(first, append=kind(hi - lo - 1))
        first += lo
        tables.append((codes, first, size))
    ts = trace.timestamps
    width = len(str(ts.max(initial=0)))
    # blocks of rows that hold a quarter of _BLOCK_BYTES on average, as the
    # indices that gather a block take 16 bytes per byte written
    total = len(ts) * (width + 1)
    for codes, _, size in tables:
        for lo in range(0, len(codes), _BLOCK_BYTES // 8):  # no copy of the whole column
            total += int(size[codes[lo:lo + _BLOCK_BYTES // 8]].sum())
    step = max(1, len(ts) * (_BLOCK_BYTES // 4) // max(total, 1))
    offset = len(source)
    source += bytes(step * width)  # a block's timestamp digits
    source = np.frombuffer(source, np.uint8)
    digits = source[offset:].reshape(step, width)
    for lo in range(0, len(ts), step):
        stamps = ts[lo:lo + step]
        n = len(stamps)
        count = np.searchsorted(_POW10[1:], stamps, side="right") + 1
        for col in range(width - 1, -1, -1):  # right-aligned
            stamps, digit = np.divmod(stamps, 10)
            digits[:n, col] = digit + 48
        # each row in pieces: its timestamp's digits, "," and each id, "\n"
        rows = [(first[codes[lo:lo + step]], size[codes[lo:lo + step]])
                for codes, first, size in tables]
        starts = np.column_stack([offset + np.arange(1, n + 1) * width - count]
                                 + [first for first, _ in rows] + [np.zeros(n, np.int64)])
        sizes = np.column_stack([count] + [size for _, size in rows] + [np.ones(n, np.int64)])
        cells = source[_ranges(starts.ravel(), sizes.ravel())]
        writer.write(cells.tobytes().decode("utf-8", "surrogatepass"))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]`` up to ``starts[i] + lengths[i]``, for
    each i in turn."""
    ends = np.cumsum(lengths)
    index = np.repeat(starts - ends + lengths, lengths)
    index += np.arange(len(index))
    return index


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
    order = _stable_order(pair)  # pairs, time order within
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
        # per candidate start ts[i], events within [ts[i], min(ts[i]+duration, window)]
        ends = np.searchsorted(ts, np.minimum(ts, trace.window.length - duration) + duration,
                               side="right")
        lo = int(np.argmax(ends - np.arange(len(ts))))  # the first maximum
        hi = int(ends[lo])
    # only the names the sub-trace requests, in new arrays: it shares none with the trace
    docs = _compact(trace.docs[lo:hi], trace.doc_names)
    users = (None, None) if trace.users is None else _compact(trace.users[lo:hi], trace.user_names)
    # ts[lo:lo + 1] is the start, or empty with the trace
    return _make_trace(ts[lo:hi] - ts[lo : lo + 1], *docs, *users, duration)


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
