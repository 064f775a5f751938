"""The command line's exit-code contract, driven by generated inputs.

``main()`` returns 0 on success, 2 on a usage error and 3 on an I/O, parse
or input error; only ``validate``'s z-test returns 1. No exception or
warning escapes it, a failed run says why on stderr, and a run that fails
leaves nothing at ``--out``.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from cachechurn.cli import main
from cachechurn.synth import GeneratorConfig


def drive(argv, files: dict, writes: bool = True):
    """``main(argv)`` in a new directory holding `files` (name: bytes),
    with ``--out out`` when `writes`, and check the contract."""
    with tempfile.TemporaryDirectory() as work:
        for name, data in files.items():
            with open(os.path.join(work, name), "wb") as handle:
                handle.write(data)
        argv = [os.path.join(work, a) if a in files else a for a in argv]
        out = os.path.join(work, "out")
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv + ["--out", out] * writes)
        assert caught == [], [str(w.message) for w in caught]
        assert code in (0, 1, 2, 3), code
        assert code != 1 or argv[0] == "validate", stderr.getvalue()
        if code:
            assert stderr.getvalue(), "a failed run must say why"
        if code in (2, 3):  # a run that fails leaves only its inputs
            assert sorted(os.listdir(work)) == sorted(files), stderr.getvalue()
        elif writes:
            assert os.path.isfile(out)


def flag(name: str, good: list, odd: list):
    """No `name` flag, or `name` with a value of `good` or, less often, of `odd`."""
    value = st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from(odd))
    return st.one_of(st.just([]), value.map(lambda value: [name, value]))


#: ids and timestamps that a well-formed row holds, and odd ones: a quote,
#: a line end or a NUL inside, bytes that are not UTF-8, empty fields,
#: numbers beyond int64, signs and spaces
plain_ids = [b"a", b"b", b"c", b"doc", b"\xc3\xa9"]
odd_ids = st.one_of(st.sampled_from([b'"q"', b'"a,b"', b'"x\ny"', b'"x\r\ny"', b"\x00",
                                     b"\xff", b"", b'"', b"a b", b"\xef\xbb\xbfa"]),
                    st.binary(max_size=4))
odd_stamps = [b"-1", b"9" * 19, str(2**63).encode(), str(2**63 - 1).encode(), b"", b"1.5",
              b" 7", b"+3", b"0x1", b"\xff"]


@st.composite
def traces(draw):
    """Trace files: a header, often a good one, then well-formed rows among
    which up to two odd ones (a field changed, added or dropped), with one
    kind of line end; or any bytes."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=48))
    header = draw(st.sampled_from([b"timestamp_ms,doc_id"] * 3
                                  + [b"timestamp_ms,doc_id,user_id"] * 3
                                  + [b"\xef\xbb\xbftimestamp_ms,doc_id", b"timestamp_ms", b"",
                                     b"time,doc", b'"timestamp_ms",doc_id']))
    row = st.tuples(st.integers(0, 10**4).map(lambda v: str(v).encode()),
                    *[st.sampled_from(plain_ids)] * max(header.count(b","), 1)).map(list)
    lines = [b",".join(fields) for fields in draw(st.lists(row, max_size=10))]
    for _ in range(draw(st.integers(0, 2))):
        fields = draw(row)
        change = draw(st.sampled_from(["stamp", "id", "add", "drop"]))
        if change == "stamp":
            fields[0] = draw(st.sampled_from(odd_stamps))
        elif change == "id":
            fields[-1] = draw(odd_ids)
        elif change == "add":
            fields.append(draw(st.sampled_from(plain_ids)))
        else:
            fields.pop()
        lines.insert(draw(st.integers(0, len(lines))), b",".join(fields))
    end = draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
    return end.join([header] + lines) + end * draw(st.booleans())


sizes = flag("--sizes", ["1,2,5", "log:1:max:5", "lin:1:max:3", "3", "lin:1:2:9"],
             ["0", "-1", "", "nan", "max", "1,99999999999999999999", "log:5:1:3", "log:1:max:0",
              "lin:0.5:4:3", "lin:1:1e400:3", "log:1:2:99999999999999999999"])
gaps = flag("--gap-ms", ["1", "480000", "99999999999999999999"], ["0", "-1", "x"])
seeds = flag("--seed", ["0", "7", str(2**64)], ["-1", "1.5"])
trace_commands = st.one_of(
    st.tuples(st.just(["simulate"]), sizes, gaps),
    st.tuples(st.just(["predict"]), flag("--method", ["box", "classic"], ["other"]), sizes,
              gaps, flag("--min-requests", ["2", "3", "10000000000000000000"], ["0", "1"])),
    st.tuples(st.just(["shuffle"]),
              flag("--kind", ["global", "positional", "local", "all"], ["bogus"]),
              sizes, gaps, seeds),
)


@settings(max_examples=250, deadline=None)
@given(data=traces(), command=trace_commands)
def test_trace_commands_keep_the_exit_code_contract(data, command):
    (name,), *options = command
    drive([name, "trace.csv", *sum(options, [])], {"trace.csv": data})


#: generator config values out of range, of the wrong kind, or missing
odd_values = {
    "gamma": [0, -1, math.nan, math.inf, 1e6, 1e18, None, "x"],
    "window_ms": [1, 10**5, 2**52, 2**53, 0, -3, 1.5, None],
    "pairs": [[], [[1]], "x", [[0, 5]], [[-1, 5]], [[math.nan, 5]], [[0.01, math.inf]],
              [[0.01, 0]], [[1e9, 1e18]], [[1e-3, 1e18]], [[0.01, 50]] * 200],
    "warmup_ms": [-1, math.nan, math.inf, 1e300],
}


@st.composite
def documents(draw):
    """Generator config documents: small in-range values, up to two of
    them replaced by odd ones or left out."""
    document = {
        "gamma": draw(st.sampled_from([1e-3, 0.01, 0.05])),
        "window_ms": draw(st.sampled_from([100, 1000, 5000])),
        "pairs": draw(st.lists(st.tuples(st.sampled_from([1e-3, 0.01, 0.05]),
                                         st.sampled_from([50, 500, 2000])).map(list),
                               min_size=1, max_size=3)),
    }
    if draw(st.booleans()):
        document["warmup_ms"] = draw(st.sampled_from([0, 10, 1000]))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(odd_values)))
        if draw(st.integers(0, 5)) == 0:
            document.pop(key, None)
        else:
            document[key] = draw(st.sampled_from(odd_values[key]))
    return document


def affordable(document: dict) -> bool:
    """Whether a run on `document` generates few requests, or so many that
    numpy refuses the first array at once; a run in between would take
    seconds to minutes and gigabytes, and ends in the same two outcomes."""
    try:
        config = GeneratorConfig.from_json(json.dumps(document))
    except (ValueError, TypeError):  # refused before any work
        return True
    docs = config.gamma * (config.warmup_ms + config.window)
    requests = float((config.lambdas * config.taus).max())
    return docs * (1 + requests) <= 5e4 or docs >= 1e17 or docs <= 1e4 and requests >= 1e17


generator_commands = st.one_of(
    st.tuples(st.just(["generate"]), seeds),
    st.tuples(st.just(["validate"]), seeds,
              flag("--reps", ["2", "3"], ["1", "-2"]).filter(bool),  # 500 by default
              flag("--t-grid", ["0,1", "lin:0:50:3", "log:1:100:4", "0"],
                   ["-1", "nan", "1e400", "x", "1e300"]).filter(bool)),  # a required flag
)


@settings(max_examples=120, deadline=None)
@given(document=documents().filter(affordable), source=st.sampled_from(["json", "text"]),
       text=st.text(max_size=12), command=generator_commands,
       writes=st.sampled_from([True, True, True, False]))
def test_generator_commands_keep_the_exit_code_contract(document, source, text, command,
                                                         writes):
    # NaN and Infinity as json writes them, or any text at all
    data = text if source == "text" else json.dumps(document)
    drive(sum(command, []) + ["--config", "config.json"], {"config.json": data.encode()}, writes)
