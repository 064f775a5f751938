"""Time the main stages of the pipeline on the acceptance trace.

Builds the acceptance trace in memory (the criterion-2 pool of 4000
(lambda, tau) pairs drawn with ``default_rng(12345)``, gamma = 1e-3 per
ms, a 3e7 ms window, generator seed 2024: 2.93 M requests over 30.5 k
documents) and times, in this one process, each of:

- ``generate_box_trace``: building that trace;
- ``stack_distances``: one exact LRU pass over it;
- ``randomize_global``, ``randomize_positional``, ``randomize_local``:
  each randomization, seed 2024;
- ``run_semi_experiments``: all three and their four curve passes, on the
  size grid of 1 % to 40 % of the documents, 20 sizes (``log:305:12188:20``);
- ``box_hit_ratio_curve``: the box-model prediction on that grid, from the
  trace's joint (rate, lifespan) sample and catalog rate, both built once
  outside the timed runs, as ``predict --method box`` builds them.

Each stage runs ``RUNS`` times. Prints one JSON object: per stage the
wall times of its runs and their minimum, and ``ru_maxrss_mb``, this
process's peak RSS after the stage's runs (it only grows, so it is the
peak of every stage up to that one). The peak of the trace's own build
counts towards every later stage. So ``generate_box_trace`` and
``stack_distances`` run once more each, under ``tracemalloc``, after their
timed runs: ``peak_bytes_per_request`` is that run's own peak of numpy
and Python allocations, divided by the trace's requests.

Before those stages it times whole CLI children, ``python -m cachechurn``
with ``--version``, ``generate``, ``simulate``, ``predict --method box``
and ``predict --method classic``, on the same config at gamma = 1e-4 per
ms (0.28 M requests) and the same 1 % to 40 % grid of its documents, and
``validate`` on that config with a 1e6 ms window, ``--t-grid
lin:100000:1000000:10`` and 50 replications. Their configs give no
``warmup_ms``, as the benchmark's sampler writes them, so each child
computes the default warmup. The children run ``CLI_RUNS`` rounds, one
of each command per round, and the JSON gets each one's wall times,
their median and its peak RSS (``os.wait4``). They are started through ``bench/launcher.py``, which
is itself started while this process is small, because a child's peak
RSS counts the peak of the process it was forked from.

Then, through the same launcher, it runs ``generate`` once at gamma =
1e-3 per ms, which writes the acceptance trace, and one ``simulate`` and
one ``shuffle --kind all`` (seed 2024) on it, on the grid of the stages
below (``log:305:12188:20``). ``acceptance_children`` gets each one's wall
time and its peak RSS (``os.wait4``): the CLI numbers of the whole trace,
measured rather than projected from the smaller one.

Run from the repository root, with only numpy installed::

    PYTHONPATH=src python3 tools/acceptance_bench.py
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
from cachechurn.estimators import build_joint_sample, estimate_catalog_rate
from cachechurn.lrusim import stack_distances
from cachechurn.shuffle import (
    randomize_global, randomize_local, randomize_positional, run_semi_experiments,
)
from cachechurn.synth import GeneratorConfig, generate_box_trace
from cachechurn.trace import parse_trace, trace_stats

RUNS = 3
CLI_RUNS = 5
CLI_GAMMA = 1e-4
SEED = 2024
#: 1 % to 40 % of the acceptance trace's 30,469 documents, 20 sizes
ACCEPTANCE_GRID = "log:305:12188:20"
ROOT = Path(__file__).resolve().parent.parent


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


def cli_children(work: Path) -> dict:
    """Wall times and peak RSS of the CLI children at gamma = CLI_GAMMA,
    and of those on the acceptance trace."""
    launcher = subprocess.Popen([sys.executable, str(ROOT / "bench" / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(argv):
        job = {"cmd": [sys.executable, "-m", "cachechurn", *argv], "cwd": str(work),
               "env": env, "stdout": os.devnull, "stderr": str(work / "stderr"),
               "timeout": 600}
        launcher.stdin.write(json.dumps(job) + "\n")
        launcher.stdin.flush()
        result = json.loads(launcher.stdout.readline())
        if result["code"] != 0:
            raise SystemExit(f"{argv[0]} exited {result['code']}: "
                             + (work / "stderr").read_text(errors="replace"))
        return result

    try:
        (work / "config.json").write_text(cli_config(3 * 10**7), encoding="utf-8")
        (work / "mc_config.json").write_text(cli_config(10**6), encoding="utf-8")
        generate = ["generate", "--config", "config.json", "--seed", str(SEED), "--out"]
        run(generate + ["trace.csv"])
        trace = parse_trace(str(work / "trace.csv"))
        docs = trace.distinct_docs
        grid = ["--sizes", f"log:{round(0.01 * docs)}:{round(0.4 * docs)}:20"]
        commands = {
            "version": ["--version"],
            "generate": generate + ["gen.csv"],
            "simulate": ["simulate", "trace.csv", *grid, "--out", "sim.csv"],
            "predict_box": ["predict", "trace.csv", "--method", "box", *grid, "--out", "box.csv"],
            "predict_classic": ["predict", "trace.csv", "--method", "classic", *grid,
                                "--out", "classic.csv"],
            "validate": ["validate", "--config", "mc_config.json", "--t-grid",
                         "lin:100000:1000000:10", "--reps", "50", "--seed", str(SEED),
                         "--out", "validate.csv"],
        }
        results = {name: [] for name in commands}
        for _ in range(CLI_RUNS):
            for name, argv in commands.items():
                results[name].append(run(argv))
        (work / "acceptance.json").write_text(cli_config(3 * 10**7, 1e-3), encoding="utf-8")
        grid = ["--sizes", ACCEPTANCE_GRID]
        acceptance = {name: run(argv) for name, argv in (
            ("generate", ["generate", "--config", "acceptance.json", "--seed", str(SEED),
                          "--out", "acceptance.csv"]),
            ("simulate", ["simulate", "acceptance.csv", *grid, "--out", "sim.csv"]),
            ("shuffle_all", ["shuffle", "acceptance.csv", "--kind", "all", *grid,
                             "--seed", str(SEED), "--out", "all.csv"]),
        )}
    finally:
        launcher.stdin.close()
        launcher.wait()
    children = {name: {"s": [r["seconds"] for r in runs],
                       "median_s": float(np.median([r["seconds"] for r in runs])),
                       "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024}
                for name, runs in results.items()}
    return {"gamma": CLI_GAMMA, "requests": len(trace), "docs": docs, "runs": CLI_RUNS,
            "children": children,
            "acceptance_children": {name: {"s": r["seconds"], "peak_rss_mb": r["maxrss_kb"] / 1024}
                                    for name, r in acceptance.items()}}


def traced_peak(fn, *args) -> int:
    """The peak of the allocations `tracemalloc` sees in one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    config = acceptance_config()
    timed("generate_box_trace", generate_box_trace, config, SEED)
    trace = generate_box_trace(config, SEED)
    docs = trace.distinct_docs
    sizes = np.unique(np.rint(np.geomspace(round(0.01 * docs), round(0.4 * docs), 20)))
    sizes = sizes.astype(np.int64)
    timed("stack_distances", stack_distances, trace)
    for name, fn, args in (("generate_box_trace", generate_box_trace, (config, SEED)),
                           ("stack_distances", stack_distances, (trace,))):
        stages[name]["peak_bytes_per_request"] = traced_peak(fn, *args) / len(trace)
    for fn in (randomize_global, randomize_positional, randomize_local):
        timed(fn.__name__, fn, trace, SEED)
    timed("run_semi_experiments", run_semi_experiments, trace, sizes, SEED)
    sample = build_joint_sample(trace)
    gamma_hat = estimate_catalog_rate(trace_stats(trace), trace.window.length)
    timed("box_hit_ratio_curve", box_hit_ratio_curve, sample, gamma_hat, sizes)
    return {"requests": len(trace), "docs": docs, "runs": RUNS, "stages": stages, "cli": cli,
            "cachechurn": cachechurn.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0]}


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
