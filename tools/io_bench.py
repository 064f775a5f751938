"""Time trace serialization and parsing on the acceptance trace.

A child process builds the acceptance trace in memory (the criterion-2
pool of 4000 (lambda, tau) pairs drawn with ``default_rng(12345)``,
gamma = 1e-3 per ms, a 3e7 ms window, generator seed 2024: 2.93 M requests
over 30.5 k documents) and writes it with ``serialize_trace`` to a
temporary file. A second child parses that file with ``parse_trace``, so
its peak RSS is the parse's own. This process imports neither numpy nor
cachechurn and stays small: a child's peak RSS also counts the peak of
the process that started it. Prints one JSON object:

- ``serialize_s``: wall time of ``serialize_trace`` into the file;
- ``serialize_alloc_mb``: the most memory ``serialize_trace`` held at once
  beyond what was live before it, by ``tracemalloc`` (a second, traced run);
- ``parse_s``: wall time of ``parse_trace`` on the file;
- ``parse_peak_rss_mb``: peak RSS of the parsing process, interpreter and
  numpy included.

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
        return {**child("--write", path), **child("--parse", path),
                "python": sys.version.split()[0]}


if __name__ == "__main__":
    if len(sys.argv) == 3:
        mode, path = sys.argv[1:]
        print(json.dumps((write_child if mode == "--write" else parse_child)(path)))
    else:
        print(json.dumps(main(), indent=2))
