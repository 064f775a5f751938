"""Time trace serialization and parsing on the acceptance trace.

A child process builds the acceptance trace in memory (the criterion-2
pool of 4000 (lambda, tau) pairs drawn with ``default_rng(12345)``,
gamma = 1e-3 per ms, a 3e7 ms window, generator seed 2024: 2.93 M requests
over 30.5 k documents) and writes it with ``serialize_trace`` to a
temporary file. A second child parses that file with ``parse_trace``, so
its peak RSS is the parse's own. Two more children do the same for a
trace of many distinct ids: 3 M rows over 2 M ids of 30 bytes each, the
numbers of a random permutation with their leading zeros (so the ids tie
on their first 23 bytes), every id once and then 1 M rows of uniform ids,
in a random order, at uniform times. This process imports neither numpy
nor cachechurn and stays small: a child's peak RSS also counts the peak
of the process that started it. Prints one JSON object:

- ``serialize_s``: wall time of ``serialize_trace`` into the file;
- ``serialize_alloc_mb``: the most memory ``serialize_trace`` held at once
  beyond what was live before it, by ``tracemalloc`` (a second, traced run);
- ``parse_s``: wall time of ``parse_trace`` on the file;
- ``parse_peak_rss_mb``: peak RSS of the parsing process, interpreter and
  numpy included;
- ``many_ids_parse_s`` and ``many_ids_parse_peak_rss_mb``: the same two
  for the trace of many distinct ids.

Run from the repository root, with only numpy installed::

    PYTHONPATH=src python3 tools/io_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile


def write_child(path: str) -> dict:
    """Build the acceptance trace and serialize it to `path`, timed."""
    import time
    import tracemalloc

    import numpy as np

    from acceptance_bench import acceptance_config
    from cachechurn.synth import generate_box_trace
    from cachechurn.trace import serialize_trace

    trace = generate_box_trace(acceptance_config(), 2024)

    def write() -> float:
        started = time.perf_counter()
        with open(path, "w", encoding="utf-8", newline="") as handle:
            serialize_trace(trace, handle)
        return time.perf_counter() - started

    seconds = write()
    tracemalloc.start()
    write()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"requests": len(trace), "docs": trace.distinct_docs,
            "csv_bytes": os.path.getsize(path), "serialize_s": seconds,
            "serialize_alloc_mb": peak / 2**20, "numpy": np.__version__}


def many_ids_child(path: str) -> dict:
    """Write the trace of many distinct ids to `path`."""
    import numpy as np

    rng = np.random.default_rng(0)
    ids = np.char.zfill(rng.permutation(2_000_000).astype("U30"), 30)
    rows = np.concatenate([np.arange(len(ids)), rng.integers(0, len(ids), 1_000_000)])
    rng.shuffle(rows)
    times = rng.integers(0, 10**9, len(rows))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("timestamp_ms,doc_id\n")
        handle.writelines(f"{t},{doc}\n" for t, doc in zip(times.tolist(), ids[rows].tolist()))
    return {"many_ids_rows": len(rows), "many_ids_distinct": len(ids),
            "many_ids_csv_bytes": os.path.getsize(path)}


def parse_child(path: str) -> dict:
    """Parse `path`, timed, with this process's peak RSS."""
    import resource
    import time

    from cachechurn.trace import parse_trace

    started = time.perf_counter()
    trace = parse_trace(path)
    seconds = time.perf_counter() - started
    return {"parse_s": seconds, "parsed_requests": len(trace),
            "parse_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def child(mode: str, path: str) -> dict:
    done = subprocess.run([sys.executable, __file__, mode, path],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        result = {**child("--write", path), **child("--parse", path)}
        many = os.path.join(tmp, "many_ids.csv")
        result.update(child("--write-many-ids", many))
        result.update({f"many_ids_{key}": value for key, value in child("--parse", many).items()
                       if key != "parsed_requests"})
        return {**result, "python": sys.version.split()[0]}


if __name__ == "__main__":
    if len(sys.argv) == 3:
        mode, path = sys.argv[1:]
        modes = {"--write": write_child, "--write-many-ids": many_ids_child,
                 "--parse": parse_child}
        print(json.dumps(modes[mode](path)))
    else:
        print(json.dumps(main(), indent=2))
