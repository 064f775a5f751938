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
#: Requests per block of a pass whose temporaries would otherwise span a column.
_BLOCK = 1 << 15
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


def _byte_order(words: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The permutation that sorts the distinct ids ``data[starts:ends]`` by
    their bytes, which for UTF-8 is ``str`` order; `words` holds the data's
    little-endian word at each byte. A pass compares, among the ids still
    tied, the bytes compared so far that each has (shorter first) and then
    its next 8 bytes as a big-endian word, zero past its end; so only tied
    ids are read further, and each pass takes memory in proportion to them."""
    lengths = ends - starts
    order = np.arange(len(starts))
    new = np.zeros(len(order), bool)  # where a run of ids tied so far starts
    new[:1] = True
    for at in range(0, int(lengths.max(initial=0)) + 8, 8):
        tied = ~new
        tied[:-1] |= ~new[1:]
        rows = np.flatnonzero(tied)
        if not len(rows):
            break
        ids = order[rows]
        word = _word(words, starts[ids] + at, np.maximum(lengths[ids] - at, 0)).byteswap()
        # the run, then the bytes compared so far, as one key above the word
        head = np.cumsum(new[rows]) * (at + 1) + np.minimum(lengths[ids], at)
        by = np.argsort(word)
        by = by[_stable_order(head[by])]
        head, word = head[by], word[by]
        order[rows] = ids[by]
        new[rows[1:]] = (head[1:] != head[:-1]) | (word[1:] != word[:-1])
    return order


def _sorted_names(names: list, encoded: list):
    """The rank of each of `names` in the order of their bytes `encoded`,
    and the names in that order."""
    data = b"".join(encoded) + bytes(7)  # a word at each byte, the last ones too
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    ends = np.cumsum(lengths)
    order = _byte_order(np.ndarray((len(data) - 7,), "<u8", data, strides=(1,)),
                        ends - lengths, ends)
    return _ranks(order), np.array(names, dtype=object)[order]


def _ranks(order: np.ndarray) -> np.ndarray:
    """The inverse of the permutation `order`, as int32."""
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts integer `keys` stably, by one sort of
    distinct uint64 words, each key less the least above its index (faster
    than numpy's stable sort); wider keys take their rank (below 2**32 keys)."""
    n, bits = len(keys), max(len(keys) - 1, 1).bit_length()
    low, high = (int(keys.min()), int(keys.max())) if n else (0, 0)
    if (high - low).bit_length() + bits > 64:
        keys, low = np.unique(keys, return_inverse=True)[1], 0
    words = keys.astype(np.uint64)  # a negative key wraps, and the difference wraps back
    words -= np.uint64(low % 2**64)
    words <<= np.uint64(bits)
    for lo in range(0, n, _BLOCK):  # no full-length index temporary
        words[lo:lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, n), dtype=np.uint64)
    words.sort()
    words &= np.uint64((1 << bits) - 1)
    return words.view(np.int64)


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
        order = _stable_order(ts)
        docs, users = docs[order], None if users is None else users[order]
        del order
        ts.sort()
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
    window stays valid for empty or single-instant traces).
    """
    columns = []
    for ids in (docs,) if users is None else (docs, users):
        table = {}
        codes = _intern(ids, table)
        rank, names = _sorted_names(list(table), [name.encode("utf-8", "surrogatepass")
                                                  for name in table])
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
    A file holding a quote or a lone CR, or a row that is blank, has the
    wrong field count, an empty field or a timestamp other than 1 to 18
    ASCII digits, is read by the stdlib ``csv`` module instead. Both give
    the same trace, or the same error.

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
    rows = _scan(data) or _tokenize(data)
    del data  # the rows hold no reference to it
    return _assemble(*rows, window_length)


def _check_header(fields) -> int:
    """The field count of a row under the header `fields`."""
    header = [h.strip() for h in fields]
    if header not in (["timestamp_ms", "doc_id"], ["timestamp_ms", "doc_id", "user_id"]):
        raise TraceParseError(f"unexpected header {header!r}", line=1)
    return len(header)


def _assemble(ts, columns, lines, error, window_length: Optional[int]) -> Trace:
    """The trace of the rows both tokenizers give, after the checks they
    share: the first timestamp beyond the window, then `error` (the first
    bad row, on a later line), then the first id that is not UTF-8.

    `columns` holds, per id column, the codes of the rows and the sorted
    names they index: decoded (an object array of str), or as a list of
    bytes; `lines` holds each row's line, None when the rows are lines 2,
    3, ...
    """
    def line(row: int) -> int:
        return row + 2 if lines is None else int(lines[row])

    if window_length is not None and len(ts) and ts.max() > window_length:
        row = int(np.argmax(ts > window_length))
        raise ValueError(f"line {line(row)}: timestamp {ts[row]} exceeds window {window_length}")
    if error is not None:
        raise error
    tables, failures = [], []
    for column, (codes, table) in enumerate(columns):
        if isinstance(table, np.ndarray):
            tables.append(table)
            continue
        try:
            tables.append(np.array(list(map(bytes.decode, table)), dtype=object))
        except UnicodeDecodeError:
            bad = [code for code, name in enumerate(table)
                   if name.decode("utf-8", "ignore").encode() != name]
            failures.append((int(np.flatnonzero(np.isin(codes, bad))[0]), column))
    if failures:
        row, column = min(failures)
        raise TraceParseError(f"{('doc_id', 'user_id')[column]} is not valid UTF-8",
                              line=line(row))
    users = (columns[1][0], tables[1]) if len(columns) > 1 else (None, None)
    return _make_trace(ts, columns[0][0], tables[0], *users, window_length)


def _tokenize(data: bytes):
    """The rows of `data` by the stdlib csv reader, up to the first bad
    one, as :func:`_assemble` takes them. Ids keep their bytes, undecodable
    ones included. Rows are checked and interned a batch at a time, and
    each table is sorted once at the end."""
    reader = csv.reader(io.StringIO(data.decode("utf-8", "surrogateescape"), newline=""))
    expected = _check_header(next(reader))
    rows, tables = _rows(reader), [{} for _ in range(expected - 1)]
    parts = [[np.zeros(0, np.int64)], [np.zeros(0, np.int64)]] + [[np.zeros(0, np.int32)]
                                                                 for _ in tables]
    line, error = 2, None
    while error is None:
        batch = list(itertools.islice(rows, _BATCH_ROWS))
        if not batch:
            break
        lines = np.arange(line, line + len(batch))
        line += len(batch)
        if isinstance(batch[-1], csv.Error):  # a field beyond the csv module's size limit
            error = TraceParseError(str(batch.pop()), line=int(lines[-1]))
            lines = lines[:-1]
        if not all(batch):  # blank rows are skipped
            lines = lines[list(map(bool, batch))]
            batch = list(filter(None, batch))
        fields = _batch_fields(batch, expected)
        if fields is None:  # name the first bad row, and keep the rows before it
            errors = map(_row_error, batch, itertools.repeat(expected), lines.tolist())
            good, error = next((n, e) for n, e in enumerate(errors) if e is not None)
            batch, lines = batch[:good], lines[:good]
            fields = _batch_fields(batch, expected)
        parts[0].append(fields[0])
        parts[1].append(lines)
        for table, ids, part in zip(tables, fields[1:], parts[2:]):
            part.append(_intern(ids, table))
    ts, lines, *codes = map(np.concatenate, parts)
    columns = []
    for out, table in zip(codes, tables):
        names = [name.encode("utf-8", "surrogateescape") for name in table]
        rank, names = _sorted_names(names, names)
        columns.append((rank[out], names.tolist()))
    return ts, columns, lines, error


def _rows(reader):
    """The rows of a csv `reader`, then the error that stopped it, if any."""
    try:
        yield from reader
    except csv.Error as exc:
        yield exc


def _batch_fields(rows: list, expected: int):
    """The timestamps and id fields of the csv `rows`, none blank, when
    every row passes the checks of :func:`_row_error`, else None."""
    try:
        fields = list(zip(*rows, strict=True)) or [()] * expected  # unequal rows raise
        ts = np.fromiter(map(int, fields[0]), np.int64, len(rows))
    except (ValueError, OverflowError):
        return None
    if len(fields) != expected or len(rows) and (ts.min() < 0 or not all(fields[1])):
        return None
    return ts, *fields[1:]


def _row_error(row, expected: int, line: int) -> Optional[TraceParseError]:
    """What is wrong with a csv `row` on `line`, or None."""
    if len(row) != expected:
        return TraceParseError(f"expected {expected} fields, got {len(row)}", line=line)
    try:
        ts = int(row[0])
    except ValueError:
        return TraceParseError(f"non-integer timestamp {row[0]!r}", line=line)
    if ts < 0:
        return TraceParseError(f"negative timestamp {ts}", line=line)
    if ts >= 1 << 63:
        return TraceParseError(f"timestamp {ts} beyond int64", line=line)
    if not row[1]:
        return TraceParseError("empty doc_id", line=line)
    return None


def _scan(data: bytes):
    """The rows of `data` by whole-array passes over blocks of its bytes,
    as :func:`_assemble` takes them, or None when the input is not plain
    (see :func:`parse_trace`) or holds a field beyond the csv module's
    size limit."""
    crlf = b"\r" in data
    if b'"' in data or crlf and data.count(b"\r") != data.count(b"\r\n"):
        return None
    pos = data.find(b"\n") + 1 or len(data)
    head = data[:pos].rstrip(b"\r\n")
    expected = _check_header(head.decode("utf-8", "surrogateescape").split(",") if head else [])
    count = data.count(b"\n", pos) + (pos < len(data) and not data.endswith(b"\n"))
    ts = np.empty(count, np.int64)
    codes = [np.empty(count, np.int32) for _ in range(expected - 1)]
    # per column and block, where one id of each of the block's groups starts and ends
    groups = [[(np.zeros(0, np.int64),) * 2] for _ in codes]
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))  # a word at each byte
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
        for column, out, group in zip(range(1, expected), codes, groups):
            found = _group_ids(data, words, starts[:, column], ends[:, column])
            out[row:row + n] = found[0] + sum(len(s) for s, _ in group)  # after earlier groups
            group.append(found[1:])
        row, pos = row + n, stop
    tables = [_name_table(data, words, out, group) for out, group in zip(codes, groups)]
    return ts, list(zip(codes, tables)), None, None


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
    zero past the `left` bytes that remain of its id."""
    top = np.minimum(at, len(words) - 1)  # the last word ends the data
    return words[top] >> ((at - top) * 8).astype(np.uint64) & _KEEP[np.minimum(left, 8)]


def _group_ids(data: bytes, words: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Group the ids ``data[starts:ends]`` by the high bits of a hash of
    their bytes, and check each byte for byte against one id of its group.
    A group whose ids differ (distinct ids whose hashes share those bits)
    is split by their bytes. Returns the group of each id, and where one id
    of each group starts and ends."""
    lengths, chunks = ends - starts, []
    key, shortest = lengths.astype(np.uint64), lengths.min(initial=2**62)
    for at in range(0, int(lengths.max(initial=0)), 8):
        # the ids that reach this word: all of them, or few when some are long
        rows = slice(None) if at < shortest else np.flatnonzero(lengths > at)
        word = _word(words, starts[rows] + at, lengths[rows] - at)
        key[rows] = (key[rows] ^ word) * _MIX
        chunks.append((at, rows, word))
    # one sort of the hashes' high bits, with each id's index in the low bits
    bits = np.uint64(max(len(key) - 1, 1).bit_length())
    key = key >> bits << bits | np.arange(len(key), dtype=np.uint64)
    key.sort()
    order = (key & (np.uint64(1) << bits) - np.uint64(1)).astype(np.intp)
    key >>= bits
    new = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = order[new]
    group = np.empty(len(key), np.intp)
    group[order] = np.cumsum(new) - 1
    twin = first[group]
    differ = lengths[twin] != lengths
    for at, rows, word in chunks:
        if isinstance(rows, slice):
            differ |= word != word[twin]
        else:
            differ[rows] |= word != _word(words, starts[twin[rows]] + at, lengths[rows] - at)
    if differ.any():  # the split groups are dropped, and their ids numbered after the rest
        rows = np.flatnonzero(np.isin(group, group[differ]))
        split = _intern([data[lo:hi] for lo, hi in zip(starts[rows].tolist(),
                                                       ends[rows].tolist())], {})
        keep = np.bincount(group[rows], minlength=len(first)) == 0
        group = (np.cumsum(keep) - 1)[group]
        first = first[keep]
        group[rows] = len(first) + split
        first = np.append(first, rows[np.unique(split, return_index=True)[1]])
    return group, starts[first], ends[first]


def _name_table(data: bytes, words: np.ndarray, codes: np.ndarray, blocks: list):
    """The distinct ids of one column in ascending order, given where one
    id of each group of each block (`blocks`) starts and ends, with the
    `codes` that index those groups recoded in place to index the result.
    The ids are decoded a length at a time, or all kept as bytes when that
    fails."""
    recode, starts, ends = _group_ids(data, words,
                                      *(np.concatenate(part) for part in zip(*blocks)))
    order = _byte_order(words, starts, ends)
    recode = _ranks(order)[recode]
    for lo in range(0, len(codes), _BLOCK_BYTES):  # no index copy of the whole column
        codes[lo:lo + _BLOCK_BYTES] = recode[codes[lo:lo + _BLOCK_BYTES]]
    starts, ends = starts[order], ends[order]
    # the ids of each length gathered as one record each, with a "\n" after
    # each, then decoded and split together
    lengths = ends - starts
    by_length = _stable_order(lengths)
    runs = np.flatnonzero(np.diff(lengths[by_length], prepend=-1, append=-1)).tolist()
    table = np.empty(len(starts), dtype=object)
    try:
        for lo, hi in itertools.pairwise(runs):
            ids, width = by_length[lo:hi], int(lengths[by_length[lo]])
            records = np.ndarray((len(data) - width + 1,), f"V{width}", data, strides=(1,))
            text = np.full((hi - lo, width + 1), 10, np.uint8)
            text[:, :width] = records[starts[ids]].view(np.uint8).reshape(hi - lo, width)
            table[ids] = str(text, "utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        return list(map(data.__getitem__, map(slice, starts.tolist(), ends.tolist())))
    return table


def serialize_trace(trace: Trace, writer) -> None:
    """Write a trace as CSV, the inverse of :func:`parse_trace`.

    Emits the ``user_id`` column only when the trace carries users. Each
    id column's table is formatted once by the stdlib ``csv`` writer; the
    rows are then gathered from those bytes, a block at a time.
    """
    columns = [(trace.docs, trace.doc_names)]
    if trace.users is not None:
        columns.append((trace.users, trace.user_names))
    # per column one row "0," + its ids + "\n", each id as the writer puts it
    # within a row; the writer quotes an id holding "\n" but not one holding
    # a lone "\r", so tables holding one are formatted again, every id quoted
    for quoting in csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC:
        fields = csv.writer(SimpleNamespace(write=str), lineterminator="\n", quoting=quoting)
        texts = [fields.writerow([0, *names]).encode("utf-8", "surrogatepass")
                 for _, names in columns]
        if not any(b"\r" in text for text in texts):
            break
    out = csv.writer(writer, lineterminator="\n", quoting=quoting)
    out.writerow(["timestamp_ms", "doc_id", "user_id"][: len(columns) + 1])
    tables, offset = [], 1  # where each id starts in the source, and its length
    for (codes, _), text in zip(columns, texts):
        text = np.frombuffer(text, np.uint8)
        # an id is "," + field: from a comma outside quotes to the next, or to the "\n"
        first = np.flatnonzero((text == 44) & ~np.logical_xor.accumulate(text == 34))
        tables.append((codes, first + offset, np.diff(first, append=len(text) - 1)))
        offset += len(text)
    ts = trace.timestamps
    width = len(str(ts.max(initial=0)))
    # blocks of rows that hold a quarter of _BLOCK_BYTES on average, as the
    # indices that gather a block take 16 bytes per byte written
    total = len(ts) * (width + 1)
    for codes, _, size in tables:
        for lo in range(0, len(codes), _BLOCK_BYTES // 8):  # no copy of the whole column
            total += int(size[codes[lo:lo + _BLOCK_BYTES // 8]].sum())
    step = max(1, len(ts) * (_BLOCK_BYTES // 4) // max(total, 1))
    # the source of every byte written: "\n", the ids, and a block's timestamp digits
    source = np.frombuffer(bytearray().join([b"\n", *texts, bytes(step * width)]), np.uint8)
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
        # per candidate start ts[i], events within [ts[i], ts[i]+duration]
        ends = np.searchsorted(ts, ts + duration, side="right")
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
