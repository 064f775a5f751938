"""Time the pipeline on the acceptance trace, as CLI children and by stage.

The acceptance trace is the criterion-2 generator config (a pool of 4000
(lambda, tau) pairs drawn with ``default_rng(12345)``, gamma = 1e-3 per
ms, a 3e7 ms window) with generator seed 2024: 2.93 M requests over
30.5 k documents. Prints one JSON object, in this order of work:

- ``cli``: whole CLI children, ``python -m cachechurn``. First at gamma =
  1e-4 per ms (0.28 M requests), ``CLI_RUNS`` rounds of ``--version``,
  ``generate``, ``simulate``, ``predict --method box|classic``,
  ``shuffle --kind all``, ``validate`` and ``shuffle --kind local``, on
  the grid of 1 % to 40 % of its documents, 20 sizes (``children``). Then
  ``ACCEPTANCE_RUNS`` rounds of the same commands but ``--version`` and
  ``shuffle --kind local`` on the acceptance config, on the grid
  ``log:305:12188:20`` (``acceptance_children``). At each gamma
  ``generate`` writes the trace that the other commands read, and
  ``validate`` runs on the config of that gamma with a 1e6 ms window,
  ``--t-grid lin:100000:1000000:10`` and 50 replications. The configs give no ``warmup_ms``, as the benchmark's
  sampler writes them, so each child computes the default warmup. Per
  command: its wall times, their median, its peak RSS (``os.wait4``) and
  the median ``teardown_s``, the time from the command's return to the
  child's reap. The child runs the package's ``__main__`` through
  ``runpy`` after registering an atexit handler that writes
  ``time.monotonic()``; registered first, it runs last, after the
  command has returned and every other handler has run.
- ``cli.parse_children``: one child per CSV file parses it with
  ``parse_trace``, once for wall time and its own peak RSS
  (``ru_maxrss``), then once more under ``tracemalloc`` for its peak in
  bytes per request. ``peak_split_bytes_per_request`` splits that peak
  into what the file's bytes, the names' ``str`` objects and the Trace's
  arrays hold, and the rest (``working``), the parse's working arrays
  alive at the peak. It imports only ``cachechurn.trace`` and numpy. The
  files are the acceptance trace that ``generate`` wrote
  (``acceptance``); the same file with its first doc id quoted
  (``quoted``), and with every doc id quoted and every 100th ending in a
  doubled quote, so its quote state and the ids it unquotes are read
  (``all_quoted``); a trace of
  many distinct ids (``many_ids``), which another child writes: 3 M rows
  over 2 M ids of 30 bytes each, the numbers of a random permutation with
  their leading zeros (so the ids tie on their first 23 bytes), every id
  once and then 1 M rows of uniform ids, in a random order, at uniform
  times; and the acceptance trace with a user column as the benchmark's
  ``semi-sessions`` input has one (``users``): each row's user drawn
  uniformly from 100,000 and named ``u%05d``, with no session repeats.
- ``cli.users_children``: ``ACCEPTANCE_RUNS`` rounds of ``shuffle --kind
  local --gap-ms 480000`` on that file with users, as the benchmark's
  ``shuffle_local`` operation runs: session consolidation, the
  randomization and the whole trace written back.
- ``stages``: in this process, on the acceptance trace built in memory,
  ``RUNS`` timed runs each of ``generate_box_trace``, ``serialize_trace``
  into a file, ``stack_distances``, each randomization (seed 2024),
  ``run_semi_experiments`` (all three and their four curve passes, grid
  ``log:305:12188:20``), ``trace_stats``, ``build_joint_sample``,
  ``rank_frequency`` and ``box_hit_ratio_curve`` (from the joint sample
  and catalog rate that ``predict --method box`` builds), and
  ``monte_carlo_distinct_docs`` as the ``validate`` child at gamma = 1e-4
  per ms runs it: the 1e6 ms window, ``lin:100000:1000000:10``, 50
  replications, seed 2024. After the
  randomizations, the trace gets a user column through ``Trace``: each
  request's user drawn uniformly among 100,000 with ``default_rng(SEED)``
  and named ``u%05d``, so the table of the users drawn is ascending as
  made. Then
  ``consolidate_sessions_users`` times ``consolidate_sessions`` of it with
  a 480,000 ms gap, and ``randomize_<kind>_users`` each randomization of
  the consolidated trace: traces derived from a trace with users, as the
  benchmark's ``semi-sessions`` workload derives them. Per stage: the
  wall times, their minimum, and ``ru_maxrss_mb``, this process's peak
  RSS after the stage's runs (it only grows, so it is the peak of every
  stage up to that one). ``generate_box_trace``, ``serialize_trace``,
  ``stack_distances`` and ``randomize_global`` run once more each under
  ``tracemalloc``: ``peak_bytes_per_request`` is that run's own peak of
  numpy and Python allocations, divided by the trace's requests.

Every child is started through ``bench/launcher.py``'s ``run``, which
notes the reap time; the launcher is itself started while this process
is small, because a child's peak RSS counts the peak of the process it
was forked from. The JSON also gets the code size: ``src_lines``, the
lines of ``src/cachechurn/*.py``, and ``exports``, the number of names
in ``cachechurn.__all__``.

Run from the repository root, with only numpy installed::

    PYTHONPATH=src python3 tools/acceptance_bench.py [OUT.json]

With ``OUT.json`` (``BENCH_<n>.json`` at the root, one per change that
measures) it also writes the JSON there.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import cachechurn
from cachechurn.boxmodel import box_hit_ratio_curve
from cachechurn.cli import _parse_grid_spec, _parse_t_grid
from cachechurn.estimators import build_joint_sample, estimate_catalog_rate, rank_frequency
from cachechurn.lrusim import stack_distances
from cachechurn.shuffle import (
    randomize_global, randomize_local, randomize_positional, run_semi_experiments,
)
from cachechurn.synth import GeneratorConfig, generate_box_trace, monte_carlo_distinct_docs
from cachechurn.trace import Trace, consolidate_sessions, parse_trace, serialize_trace, trace_stats

RUNS = 3
CLI_RUNS = 5
ACCEPTANCE_RUNS = 3
CLI_GAMMA = 1e-4
SEED = 2024
#: 1 % to 40 % of the acceptance trace's 30,469 documents, 20 sizes
ACCEPTANCE_GRID = "log:305:12188:20"
#: The ``validate`` children's window lengths, within their 1e6 ms window
T_GRID = "lin:100000:1000000:10"
ROOT = Path(__file__).resolve().parent.parent
#: Starts ``bench/launcher.py``'s jobs and adds to each result the
#: ``time.monotonic()`` right after the child was reaped.
REAPER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from launcher import run
for line in sys.stdin:
    result = run(json.loads(line))
    result["reaped"] = time.monotonic()
    print(json.dumps(result), flush=True)
"""
#: ``python -m cachechurn`` on the arguments after the first, which names
#: the file where the last atexit handler writes ``time.monotonic()``.
STAMPED = """
import atexit, runpy, sys, time

def stamp(path=sys.argv.pop(1)):
    with open(path, "w") as handle:
        handle.write(repr(time.monotonic()))

atexit.register(stamp)
runpy.run_module("cachechurn", run_name="__main__", alter_sys=True)
"""
#: Parses the CSV file named by its argument, timed, then again under
#: ``tracemalloc``, and prints the result as JSON.
PARSER = """
import json, os, resource, sys, time, tracemalloc
from cachechurn.trace import parse_trace

started = time.perf_counter()
trace = parse_trace(sys.argv[1])
result = {"s": time.perf_counter() - started, "requests": len(trace),
          "docs": trace.distinct_docs, "bytes": os.path.getsize(sys.argv[1]),
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
del trace
tracemalloc.start()
trace = parse_trace(sys.argv[1])
peak = tracemalloc.get_traced_memory()[1]
tables = [table for table in (trace.doc_names, trace.user_names) if table is not None]
held = {"file": result["bytes"],
        "str": sum(sys.getsizeof(name) for table in tables for name in table),
        "arrays": sum(array.nbytes for array in (trace.timestamps, trace.docs, trace.users,
                                                 *tables) if array is not None)}
held["working"] = peak - sum(held.values())
result["peak_bytes_per_request"] = peak / result["requests"]
result["peak_split_bytes_per_request"] = {part: size / result["requests"]
                                          for part, size in held.items()}
print(json.dumps(result))
"""
#: Copies the CSV file named by its first argument to the one named by its
#: second, with the first row's doc id quoted.
QUOTED = """
import shutil, sys

with open(sys.argv[1], "rb") as source, open(sys.argv[2], "wb") as out:
    out.write(source.readline())
    stamp, doc = source.readline().split(b",")
    out.write(stamp + b',"' + doc.rstrip(b"\\n") + b'"\\n')
    shutil.copyfileobj(source, out)
"""
#: Copies the CSV file named by its first argument to the one named by its
#: second, with every doc id quoted and every 100th ending in ``""``.
ALL_QUOTED = """
import sys

with open(sys.argv[1], "rb") as source, open(sys.argv[2], "wb") as out:
    out.write(source.readline())
    for number, line in enumerate(source, 1):
        stamp, doc = line.rstrip(b"\\n").split(b",")
        out.write(stamp + b',"' + doc + b'""' * (number % 100 == 0) + b'"\\n')
"""
#: Copies the CSV file named by its first argument to the one named by its
#: second, with a user column: each row's user uniform among 100,000.
USERS = """
import sys
import numpy as np

rng = np.random.default_rng(int(sys.argv[3]))
with open(sys.argv[1], "rb") as source, open(sys.argv[2], "wb") as out:
    out.write(source.readline().rstrip(b"\\n") + b",user_id\\n")
    for lines in iter(lambda: source.readlines(1 << 20), []):
        users = rng.integers(0, 100_000, len(lines)).tolist()
        out.writelines(line.rstrip(b"\\n") + b",u%05d\\n" % user
                       for line, user in zip(lines, users))
"""
#: Writes the trace of many distinct ids to the file named by its argument.
MANY_IDS = """
import sys
import numpy as np

rng = np.random.default_rng(0)
ids = np.char.zfill(rng.permutation(2_000_000).astype("U30"), 30)
rows = np.concatenate([np.arange(len(ids)), rng.integers(0, len(ids), 1_000_000)])
rng.shuffle(rows)
times = rng.integers(0, 10**9, len(rows))
with open(sys.argv[1], "w", encoding="utf-8", newline="") as handle:
    handle.write("timestamp_ms,doc_id\\n")
    handle.writelines(f"{t},{doc}\\n" for t, doc in zip(times.tolist(), ids[rows].tolist()))
"""


def acceptance_config(gamma: float = 1e-3) -> GeneratorConfig:
    """The criterion-2 generator config of the acceptance trace."""
    rng = np.random.default_rng(12345)
    lambdas = 10 ** rng.uniform(np.log10(8e-6), np.log10(8e-4), 4000)
    taus = 10 ** rng.uniform(np.log10(1.5e5), np.log10(1.5e6), 4000)
    return GeneratorConfig(gamma, 3 * 10**7, lambdas, taus)


def cli_config(window: int, gamma: float = CLI_GAMMA) -> str:
    """The CLI children's config document, without `warmup_ms`."""
    document = acceptance_config(gamma).to_dict()
    del document["warmup_ms"]
    return json.dumps(dict(document, window_ms=window))


def commands(name: str, sizes: str) -> dict:
    """The CLI children on the config `name`.json, on the size grid `sizes`:
    ``generate`` writes `name`.csv, which the others read, and ``validate``
    runs on `name`_mc.json."""
    trace, grid, seed = f"{name}.csv", ["--sizes", sizes], ["--seed", str(SEED)]
    return {
        "generate": ["generate", "--config", f"{name}.json", *seed, "--out", trace],
        "simulate": ["simulate", trace, *grid, "--out", "sim.csv"],
        "predict_box": ["predict", trace, "--method", "box", *grid, "--out", "box.csv"],
        "predict_classic": ["predict", trace, "--method", "classic", *grid,
                            "--out", "classic.csv"],
        "shuffle_all": ["shuffle", trace, "--kind", "all", *grid, *seed, "--out", "all.csv"],
        "validate": ["validate", "--config", f"{name}_mc.json", "--t-grid", T_GRID,
                     "--reps", "50", *seed, "--out", "validate.csv"],
    }


def cli_children(work: Path) -> dict:
    """Wall times and peak RSS of the CLI children at gamma = CLI_GAMMA and
    on the acceptance trace, and the parse children."""
    launcher = subprocess.Popen([sys.executable, "-c", REAPER, str(ROOT / "bench")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stamp = work / "stamp"

    def launch(script, *args, stdout=os.devnull):
        job = {"cmd": [sys.executable, "-c", script, *args], "cwd": str(work), "env": env,
               "stdout": stdout, "stderr": str(work / "stderr"), "timeout": 600}
        launcher.stdin.write(json.dumps(job) + "\n")
        launcher.stdin.flush()
        result = json.loads(launcher.stdout.readline())
        if result["code"] != 0:
            raise SystemExit(f"{args} exited {result['code']}: "
                             + (work / "stderr").read_text(errors="replace"))
        return result

    def rounds(commands, count):
        results = {name: [] for name in commands}
        for _ in range(count):
            for name, argv in commands.items():
                result = launch(STAMPED, str(stamp), *argv)
                result["teardown_s"] = result.pop("reaped") - float(stamp.read_text())
                results[name].append(result)
        return {name: {"s": [r["seconds"] for r in runs],
                       "median_s": float(np.median([r["seconds"] for r in runs])),
                       "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024,
                       "teardown_s": float(np.median([r["teardown_s"] for r in runs]))}
                for name, runs in results.items()}

    def parse(path):
        launch(PARSER, path, stdout=str(work / "parse.json"))
        return json.loads((work / "parse.json").read_text())

    try:
        for name, gamma in (("small", CLI_GAMMA), ("acceptance", 1e-3)):
            (work / f"{name}.json").write_text(cli_config(3 * 10**7, gamma), encoding="utf-8")
            (work / f"{name}_mc.json").write_text(cli_config(10**6, gamma), encoding="utf-8")
        launch(STAMPED, str(stamp), *commands("small", "")["generate"])  # for the grid
        trace = parse_trace(str(work / "small.csv"))
        docs = trace.distinct_docs
        small = commands("small", f"log:{round(0.01 * docs)}:{round(0.4 * docs)}:20")
        children = rounds({"version": ["--version"], **small, "shuffle_local": [
            "shuffle", "small.csv", "--kind", "local", "--seed", str(SEED), "--out", "local.csv",
        ]}, CLI_RUNS)
        acceptance = rounds(commands("acceptance", ACCEPTANCE_GRID), ACCEPTANCE_RUNS)
        parse_children = {"acceptance": parse("acceptance.csv")}
        launch(QUOTED, "acceptance.csv", "quoted.csv")
        parse_children["quoted"] = parse("quoted.csv")
        launch(ALL_QUOTED, "acceptance.csv", "all_quoted.csv")
        parse_children["all_quoted"] = parse("all_quoted.csv")
        launch(MANY_IDS, "many_ids.csv")
        parse_children["many_ids"] = parse("many_ids.csv")
        launch(USERS, "acceptance.csv", "users.csv", str(SEED))
        parse_children["users"] = parse("users.csv")
        users = rounds({"shuffle_local": ["shuffle", "users.csv", "--kind", "local", "--gap-ms",
                                          "480000", "--seed", str(SEED), "--out", "local.csv"]},
                       ACCEPTANCE_RUNS)
    finally:
        launcher.stdin.close()
        launcher.wait()
    return {"gamma": CLI_GAMMA, "requests": len(trace), "docs": docs, "runs": CLI_RUNS,
            "children": children, "acceptance_runs": ACCEPTANCE_RUNS,
            "acceptance_children": acceptance, "parse_children": parse_children,
            "users_children": users}


def write_csv(trace, path: str) -> None:
    """`serialize_trace` of `trace` into the file `path`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        serialize_trace(trace, handle)


def main() -> dict:
    with tempfile.TemporaryDirectory() as work:
        cli = cli_children(Path(work))
    stages = {}

    def timed(name, fn, *args):
        seconds = []
        for _ in range(RUNS):
            started = time.perf_counter()
            out = fn(*args)
            seconds.append(time.perf_counter() - started)
            del out
        stages[name] = {"s": seconds, "min_s": min(seconds),
                        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def traced(name, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stages[name]["peak_bytes_per_request"] = peak / len(trace)

    config = acceptance_config()
    timed("generate_box_trace", generate_box_trace, config, SEED)
    trace = generate_box_trace(config, SEED)
    docs = trace.distinct_docs
    sizes = _parse_grid_spec(ACCEPTANCE_GRID, docs)  # the CLI children's grid
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "trace.csv")
        timed("serialize_trace", write_csv, trace, path)
        traced("serialize_trace", write_csv, trace, path)
    timed("stack_distances", stack_distances, trace)
    traced("generate_box_trace", generate_box_trace, config, SEED)
    traced("stack_distances", stack_distances, trace)
    for fn in (randomize_global, randomize_positional, randomize_local):
        timed(fn.__name__, fn, trace, SEED)
    traced("randomize_global", randomize_global, trace, SEED)
    draws = np.random.default_rng(SEED).integers(0, 100_000, len(trace))
    drawn, users = np.unique(draws, return_inverse=True)
    user_names = np.array([f"u{user:05d}" for user in drawn.tolist()], dtype=object)
    with_users = Trace(trace.timestamps, trace.docs, trace.doc_names, users.astype(np.int32),
                       user_names, trace.window)
    del draws, drawn, users
    timed("consolidate_sessions_users", consolidate_sessions, with_users, 480_000)
    consolidated = consolidate_sessions(with_users, 480_000)
    del with_users
    for fn in (randomize_global, randomize_positional, randomize_local):
        timed(f"{fn.__name__}_users", fn, consolidated, SEED)
    del consolidated
    timed("run_semi_experiments", run_semi_experiments, trace, sizes, SEED)
    for fn in (trace_stats, build_joint_sample, rank_frequency):
        timed(fn.__name__, fn, trace)
    sample = build_joint_sample(trace)
    gamma_hat = estimate_catalog_rate(trace_stats(trace), trace.window.length)
    timed("box_hit_ratio_curve", box_hit_ratio_curve, sample, gamma_hat, sizes)
    mc_config = GeneratorConfig.from_json(cli_config(10**6))  # the validate child's
    timed("monte_carlo_distinct_docs", monte_carlo_distinct_docs, mc_config,
          _parse_t_grid(T_GRID, 10**6), 50, SEED)
    src_lines = sum(path.read_bytes().count(b"\n")
                    for path in (ROOT / "src" / "cachechurn").glob("*.py"))
    return {"requests": len(trace), "docs": docs, "runs": RUNS, "stages": stages, "cli": cli,
            "src_lines": src_lines, "exports": len(cachechurn.__all__),
            "cachechurn": cachechurn.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0], "cpu_count": os.cpu_count()}


if __name__ == "__main__":
    result = json.dumps(main(), indent=2)
    print(result)
    if len(sys.argv) > 1:
        Path(sys.argv[1]).write_text(result + "\n", encoding="utf-8")
