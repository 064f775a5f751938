#!/usr/bin/env python3
"""Benchmark of the cachechurn command line.

Run from the repository root:

    python3 bench/run.py --workload churn-ref --seed 2024 --seconds 20 --trace 0

Each timed operation is a ``python -m cachechurn ...`` child process,
started one at a time (a closed loop with one client), single-threaded,
between runs of a fixed calibration program (``bench/calibrate.py``).
The run builds the workload's inputs from the seed with the benchmark's
own sampler (``bench/sampler.py``), repeats the workload's operations
until ``--seconds`` have passed, checks every output, and prints the
metrics that ``BENCHMARK.json`` declares, as a JSON object on the last
line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` also runs every operation in-process with a span around
each library call and reports the per-layer metrics. See
``bench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import os

# set before numpy loads, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import calibrate
import checks
import sampler

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = Path(__file__).resolve().parent / "calibrate.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
try:
    if not (SRC / "cachechurn" / "__init__.py").is_file():
        raise ImportError("no cachechurn package there")
    import traced  # imports cachechurn from SRC
except ImportError as exc:
    traced, IMPORT_ERROR = None, exc

#: Set-up is built before the timed passes and again after them, each
#: time at least this often and for at least this long, and once after
#: every pass, so its builds span the machine's state over the whole run.
SETUP_MIN_BUILDS = 5
SETUP_MIN_S = 1.0
#: `setup_s` is in seconds at the machine speed at which the in-process
#: calibration, ``calibrate.work()``, takes this long (about its median on
#: the 2-core machine where the benchmark was defined).
CALIBRATION_REFERENCE_S = 0.05
#: Interpreter start-up (``python -m cachechurn --version``) samples per run.
STARTUP_REPEATS = 5
#: A run stops starting operations this long after it began; every child
#: still running then is killed, and the run reports it as failed.
DEADLINE_S = 165.0
DEFAULT_SEED = 2024

SESSION_GAP_MS = 480_000
T_GRID = "lin:100000:1000000:10"
MC_REPS = 50


@dataclass
class Op:
    """One timed CLI operation: its argv, its in-process twin and its check."""

    name: str
    argv: Callable[[Path], list]
    traced: Callable[[object, Path], None]
    check: Callable[[Path], Optional[str]]


@dataclass
class Probe:
    """A robustness probe: a tiny crafted input and its documented exit code."""

    name: str
    argv: list
    expect: int
    writes: Optional[Path] = None


class Launcher:
    """Runs children through ``launcher.py``, so each one's peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list, workdir: Path, label: str, timeout: float):
        """Wall time, exit code, peak RSS in MB and stderr of one child."""
        err_path = workdir / f"{label}.stderr"
        job = {"cmd": [sys.executable, *map(str, cmd)], "cwd": str(workdir),
               "env": dict(os.environ, PYTHONPATH=str(SRC)),
               "stdout": str(workdir / f"{label}.stdout"), "stderr": str(err_path),
               "timeout": max(timeout, 0.1)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the launcher process ended")
        result = json.loads(line)
        return (result["seconds"], result["code"], result["maxrss_kb"] / 1024.0,
                err_path.read_text(errors="replace"))

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs built from the seed, the timed operations and their checks."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.pool = sampler.pair_pool()
        self.findings = {}  # name -> values the checks measured, one per check

    def note(self, name: str, value: float):
        self.findings.setdefault(name, []).append(value)

    def config(self, window: int) -> sampler.BoxConfig:
        return sampler.BoxConfig(sampler.GAMMA, window, *self.pool)

    def setup(self) -> dict:
        """Build the inputs; returns ``{file name: Requests or None}``."""
        raise NotImplementedError

    def prepare(self):
        """References for the checks, computed once, untimed.

        Sets `requests`, the number of requests the operations process,
        by which the end-to-end cost is divided.
        """

    def ops(self) -> list:
        raise NotImplementedError

    def probes(self) -> list:
        return []


class ChurnRef(Workload):
    name = "churn-ref"
    window = 30_000_000

    def setup(self):
        self.cfg = self.config(self.window)
        self.req = sampler.sample_box(self.cfg, np.random.default_rng(self.seed))
        (self.work / "config.json").write_text(self.cfg.to_json(), encoding="utf-8")
        (self.work / "trace.csv").write_bytes(sampler.render_csv(self.req))
        return {"config.json": None, "trace.csv": self.req}

    def prepare(self):
        n = self.req.distinct_docs
        self.spec = checks.acceptance_grid(n)
        self.sizes = checks.log_grid(round(0.01 * n), round(0.4 * n), 20)
        docs = self.req.docs.tolist()
        self.requests = len(docs)
        probe_sizes = (int(self.sizes[0]), int(self.sizes[len(self.sizes) // 2]))
        self.reference = {
            "requests": len(docs),
            "distinct": n,
            "oracle": {c: checks.lru_hits(docs, c) for c in probe_sizes},
        }

    def ops(self):
        cfg, trace = self.work / "config.json", self.work / "trace.csv"
        expected = {"requests": len(self.req.times), "docs": self.req.distinct_docs}

        def check_box(d):
            reason, value = checks.check_predict_box(d / "box.csv", d / "sim.csv")
            self.note("mare_box", value)
            return reason

        return [
            Op("generate",
               lambda d: ["generate", "--config", cfg, "--seed", self.seed, "--out", d / "gen.csv"],
               lambda tr, d: traced.run_generate(tr, cfg, self.seed, d / "gen.csv"),
               lambda d: checks.check_trace_counts(d / "gen.csv", self.window, expected,
                                                   self.cfg.expected_spread())),
            Op("simulate",
               lambda d: ["simulate", trace, "--sizes", self.spec, "--out", d / "sim.csv"],
               lambda tr, d: traced.run_simulate(tr, trace, self.sizes, d / "sim.csv"),
               lambda d: checks.check_simulate(d / "sim.csv", self.sizes, self.reference)),
            Op("predict_box",
               lambda d: ["predict", trace, "--method", "box", "--sizes", self.spec,
                          "--out", d / "box.csv"],
               lambda tr, d: traced.run_predict_box(tr, trace, self.sizes, d / "box.csv"),
               check_box),
            Op("predict_classic",
               lambda d: ["predict", trace, "--method", "classic", "--sizes", self.spec,
                          "--out", d / "classic.csv"],
               lambda tr, d: traced.run_predict_classic(tr, trace, self.sizes,
                                                        d / "classic.csv"),
               lambda d: checks.check_predict_classic(d / "classic.csv", self.sizes)),
        ]


class SemiSessions(Workload):
    name = "semi-sessions"
    window = 10_000_000

    def setup(self):
        self.req = sampler.sample_sessions(self.config(self.window),
                                           np.random.default_rng(self.seed))
        (self.work / "trace.csv").write_bytes(sampler.render_csv(self.req))
        return {"trace.csv": self.req}

    def prepare(self):
        req = self.req
        self.requests = len(req.times)
        keep = checks.consolidate(req.times, req.docs, req.users, SESSION_GAP_MS)
        # d%08d names sort like their integer indices
        _, codes = np.unique(req.docs, return_inverse=True)
        self.distinct = int(codes.max()) + 1
        self.spec = checks.acceptance_grid(self.distinct)
        self.sizes = checks.log_grid(round(0.01 * self.distinct),
                                     round(0.4 * self.distinct), 20)
        self.expected = {
            "header": ["timestamp_ms", "doc_id", "user_id"],
            "invariants": checks.doc_invariants(req.times[keep], codes[keep]),
        }

    def ops(self):
        trace, gap = self.work / "trace.csv", SESSION_GAP_MS
        return [
            Op("shuffle_all",
               lambda d: ["shuffle", trace, "--kind", "all", "--gap-ms", gap,
                          "--sizes", self.spec, "--seed", self.seed, "--out", d / "all.csv"],
               lambda tr, d: traced.run_shuffle_all(tr, trace, self.sizes, gap, self.seed,
                                                    d / "all.csv"),
               lambda d: checks.check_shuffle_all(d / "all.csv", self.sizes, self.distinct)),
            Op("shuffle_local",
               lambda d: ["shuffle", trace, "--kind", "local", "--gap-ms", gap,
                          "--seed", self.seed, "--out", d / "local.csv"],
               lambda tr, d: traced.run_shuffle_local(tr, trace, gap, self.seed,
                                                      d / "local.csv"),
               lambda d: checks.check_shuffle_local(d / "local.csv", self.expected)),
        ]


class ValidateMC(Workload):
    name = "validate-mc"
    window = 1_000_000

    #: Tiny crafted inputs of the robustness probes, ROADMAP items 5a-d.
    probe_inputs = {
        "zero_hit.csv": "timestamp_ms,doc_id\n0,a\n1,b\n2,a\n3,b\n4,c\n5,a\n",
        "overflow.csv": "timestamp_ms,doc_id\n0,a\n123456789012345678901,b\n",
        "bom.csv": "\ufefftimestamp_ms,doc_id\n0,a\n1,b\n2,a\n",
    }

    def setup(self):
        (self.work / "mc_config.json").write_text(self.config(self.window).to_json(),
                                                  encoding="utf-8")
        (self.work / "probes").mkdir(exist_ok=True)
        for name, text in self.probe_inputs.items():
            (self.work / "probes" / name).write_text(text, encoding="utf-8")
        return {"mc_config.json": None, **{f"probes/{name}": None for name in self.probe_inputs}}

    def prepare(self):
        # one box-model trace per replication, seeded as the Monte Carlo seeds it
        config = self.config(self.window)
        self.requests = sum(
            len(sampler.sample_box(config, np.random.default_rng(
                np.random.SeedSequence([self.seed, rep]))).times)
            for rep in range(MC_REPS))

    def ops(self):
        cfg = self.work / "mc_config.json"
        _, lo, hi, n = T_GRID.split(":")
        t_grid = [float(v) for v in np.linspace(float(lo), float(hi), int(n))]

        def check(d):
            reason, worst = checks.check_validate(d / "validate.csv", len(t_grid))
            self.note("validate.max_abs_z", worst)
            return reason

        return [
            Op("validate",
               lambda d: ["validate", "--config", cfg, "--t-grid", T_GRID, "--reps", MC_REPS,
                          "--seed", self.seed, "--out", d / "validate.csv"],
               lambda tr, d: traced.run_validate(tr, cfg, t_grid, MC_REPS, self.seed,
                                                 d / "validate.csv"),
               check),
        ]

    def probes(self):
        """ROADMAP items 5a-d, on the inputs `setup` wrote."""
        d = self.work / "probes"
        return [
            Probe("5a_shuffle_zero_hit_ratio", ["shuffle", d / "zero_hit.csv", "--kind", "all",
                                                "--out", d / "zero_hit.out"], 0,
                  d / "zero_hit.out"),
            Probe("5b_timestamp_beyond_int64", ["simulate", d / "overflow.csv",
                                                "--out", d / "overflow.out"], 3),
            Probe("5c_validate_reps_1", ["validate", "--config", self.work / "mc_config.json",
                                         "--t-grid", T_GRID, "--reps", 1,
                                         "--out", d / "reps.out"], 2),
            Probe("5d_utf8_bom_header", ["simulate", d / "bom.csv", "--out", d / "bom.out"], 0,
                  d / "bom.out"),
        ]


WORKLOADS = {w.name: w for w in (ChurnRef, SemiSessions, ValidateMC)}

#: Per-layer metric -> span whose summed duration it reports.
SPAN_METRICS = {
    "trace.parse_s": "trace.parse",
    "trace.consolidate_s": "trace.consolidate",
    "trace.serialize_s": "trace.serialize",
    "trace.stats_s": "trace.stats",
    "trace.distinct_docs_s": "trace.distinct_docs",
    "lrusim.stack_distances_s": "lrusim.stack_distances",
    "lrusim.hits_at_s": "lrusim.hits_at",
    "shuffle.global_s": "shuffle.global",
    "shuffle.positional_s": "shuffle.positional",
    "shuffle.local_s": "shuffle.local",
    "estimators.joint_sample_s": "estimators.joint_sample",
    "estimators.rank_frequency_s": "estimators.rank_frequency",
    "boxmodel.t_c_s": "boxmodel.t_c",
    "boxmodel.hits_s": "boxmodel.hits",
    "boxmodel.irm_che_s": "boxmodel.irm_che",
    "boxmodel.working_set_s": "boxmodel.working_set",
    "synth.generate_s": "synth.generate",
    "synth.mc_s": "synth.mc",
    "cli.write_s": "cli.write",
}
#: Per-layer counters, reported as recorded (0 when the layer did not run).
COUNTERS = (
    "trace.bytes_in", "trace.requests", "trace.docs", "trace.consolidate_dropped",
    "lrusim.cold_misses", "shuffle.groups", "estimators.n1", "estimators.n2",
    "estimators.lifespans_clamped", "boxmodel.ws_evals", "synth.requests_generated",
    "synth.mc_reps",
)
#: What the hooks in `traced.hooks` must record inside each operation. A
#: library change that bypasses a hook fails the traced pass, instead of
#: reading as a layer that takes no time.
HOOK_RECORDS = {
    "generate": ("synth.generate", "synth.requests_generated"),
    "simulate": ("lrusim.stack_distances", "lrusim.requests", "lrusim.hits_at"),
    "predict_box": ("boxmodel.t_c", "boxmodel.ws_evals", "boxmodel.hits"),
    "predict_classic": ("boxmodel.irm_t_c",),
    "shuffle_all": ("lrusim.stack_distances", "lrusim.requests", "lrusim.hits_at",
                    "shuffle.global", "shuffle.positional", "shuffle.local"),
    "shuffle_local": ("shuffle.local",),
    "validate": ("synth.generate", "synth.requests_generated"),
}
OP_NAMES = ("generate", "simulate", "predict_box", "predict_classic",
            "shuffle_all", "shuffle_local", "validate")


def check(op: Op, outdir: Path) -> Optional[str]:
    """The op's check; output it cannot read is a failure too."""
    try:
        return op.check(outdir)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Run:
    """One benchmark run: set-up, timed passes, checks, probes and report."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.workload = WORKLOADS[args.workload](args.seed, self.work)
        self.launcher = Launcher()
        self.attempted = self.failed = 0
        self.failures = []
        self.failed_names = set()  # operations that failed on some pass
        self.samples = {}  # op -> untraced seconds, one per pass
        self.inputs = None
        self.setup_times = []
        self.setup_around = []  # per build: mean of the in-process calibrations around it
        self.calibration = []
        self.around = {}  # op -> mean of the calibrations before and after it
        self.peak_rss_mb = 0.0
        self.pass_totals = []
        self.layer_samples = []  # per traced pass: metric -> value
        self.spans = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli(self, argv: list, workdir: Path, label: str):
        """``python -m cachechurn argv`` in a child, killed at the deadline."""
        return self.launcher.run(["-m", "cachechurn", *argv], workdir, label,
                                 self.remaining())

    def record(self, op: str, reason: Optional[str], where: str = ""):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failed_names.add(op)
            self.failures.append(f"{op}{where}: {reason}")

    def set_up(self, min_builds: int = SETUP_MIN_BUILDS, min_seconds: float = SETUP_MIN_S):
        """Build the inputs `min_builds` times or more, for `min_seconds`
        or more; each build must be identical."""
        phase_start = time.perf_counter()
        builds = 0
        before = self.calibrate_in_process()
        while builds < min_builds or time.perf_counter() - phase_start < min_seconds:
            builds += 1
            start = time.perf_counter()
            inputs = self.workload.setup()
            self.setup_times.append(time.perf_counter() - start)
            after = self.calibrate_in_process()
            self.setup_around.append((before + after) / 2)
            before = after
            identities = [sampler.identity(self.work / name, req)
                          for name, req in inputs.items()]
            if self.inputs is None:
                self.inputs = identities
            elif identities != self.inputs:
                self.record("setup", "inputs differ between set-ups of one seed")

    def run_op(self, op: Op, outdir: Path):
        seconds, code, rss, stderr = self.cli(op.argv(outdir), outdir, op.name)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        reason = f"exit {code}: {stderr.strip()[-200:]}" if code != 0 else check(op, outdir)
        self.record(op.name, reason)
        return seconds

    @staticmethod
    def calibrate_in_process() -> float:
        start = time.perf_counter()
        calibrate.work()
        return time.perf_counter() - start

    def calibrate(self) -> float:
        seconds, code, _, stderr = self.launcher.run([CALIBRATION], self.work,
                                                     "calibration", self.remaining())
        if code != 0:
            raise SystemExit(f"calibration program failed: {stderr.strip()}")
        self.calibration.append(seconds)
        return seconds

    def untraced_pass(self) -> dict:
        outdir = self.work / "untraced"
        outdir.mkdir(exist_ok=True)
        times = {}
        before = self.calibrate()
        for op in self.ops:
            times[op.name] = self.run_op(op, outdir)
            after = self.calibrate()
            self.samples.setdefault(op.name, []).append(times[op.name])
            self.around.setdefault(op.name, []).append((before + after) / 2)
            before = after
        self.pass_totals.append(sum(times.values()))
        return times

    def in_process(self, op: Op, tr, outdir: Path, hooked: bool) -> Optional[float]:
        """Wall time of the op's in-process twin; None, recorded, if it fails.

        With hooks, the op fails too if a hook of HOOK_RECORDS recorded
        nothing in it."""
        mode = "traced" if hooked else "plain"
        try:
            with (traced.hooks(tr) if hooked else contextlib.nullcontext()), tr.op(op.name):
                start = time.perf_counter()
                op.traced(tr, outdir)
                wall = time.perf_counter() - start
        except Exception as exc:  # the CLI would have exited non-zero
            self.record(op.name, f"{type(exc).__name__}: {exc}", f" ({mode})")
            return None
        reason = check(op, outdir)
        missing = [name for name in HOOK_RECORDS[op.name] if (op.name, name) not in tr.seen]
        if reason is None and hooked and missing:
            reason = (f"no {', '.join(missing)} recorded; the library no longer goes "
                      "through these hooks, update bench/traced.py")
        self.record(op.name, reason, f" ({mode})")
        return wall if reason is None else None

    def traced_pass(self, untraced: dict, index: int):
        """Each op in-process twice in this warm process: with spans and
        hooks, and plain (a tracer that records nothing, no hooks). The
        difference is the tracing overhead. The order alternates between
        passes, so warm-up falls on both sides alike."""
        outdir = self.work / "traced"
        outdir.mkdir(exist_ok=True)
        tr = traced.Tracer()
        walls, plain = {}, {}
        for op in self.ops:
            for hooked in ((False, True) if index % 2 == 0 else (True, False)):
                wall = self.in_process(op, tr if hooked else traced.NullTracer(), outdir,
                                       hooked)
                if wall is None:
                    return
                (walls if hooked else plain)[op.name] = wall
        m = {metric: tr.total(span) for metric, span in SPAN_METRICS.items()}
        m.update({name: tr.counters.get(name, 0) for name in COUNTERS})
        requests = tr.counters.get("lrusim.requests", 0)
        m["lrusim.ns_per_request"] = (
            1e9 * m["lrusim.stack_distances_s"] / requests if requests else 0.0)
        # what the spans do not cover: start-up, argument parsing, glue
        m["cli.self_s"] = sum(untraced[op] - tr.top_level(op) for op in walls)
        m["tracing.overhead_s"] = sum(walls[op] - plain[op] for op in walls)
        box = "predict_box"
        if box in walls:
            m["predict_box.span_sum_s"] = tr.top_level(box)
        self.layer_samples.append(m)
        self.spans.extend(tr.spans)

    def measure(self):
        startup = []
        for i in range(STARTUP_REPEATS + 1):  # the first one warms the file cache
            seconds, code, _, stderr = self.cli(["--version"], self.work, "startup")
            if code != 0:
                raise SystemExit(f"cachechurn does not start: {stderr.strip()}")
            if i:
                startup.append(seconds)
        self.startup_s = median(startup)
        budget_end = time.perf_counter() + self.args.seconds
        for index in itertools.count():
            pass_start = time.perf_counter()
            untraced = self.untraced_pass()
            if self.args.trace and not self.failed:
                self.traced_pass(untraced, index)
            self.set_up(1, 0.0)
            pass_s = time.perf_counter() - pass_start
            if (time.perf_counter() + pass_s > budget_end
                    or self.remaining() < 2 * pass_s or self.failed):
                break

    def run_probes(self):
        self.probe_results = []
        for probe in self.workload.probes():
            _, code, _, stderr = self.cli(probe.argv, self.work / "probes", probe.name)
            ok = (code == probe.expect and "Traceback" not in stderr
                  and (probe.writes is None or probe.writes.is_file()))
            self.probe_results.append({"probe": probe.name, "expect": probe.expect,
                                       "exit": code, "traceback": "Traceback" in stderr,
                                       "passed": ok})

    def summary(self) -> dict:
        """Every metric this run measured, by name."""
        probes_failed = sum(not p["passed"] for p in self.probe_results)
        # The machine's speed changes within one operation, so an
        # operation's time averages over its states; so does the mean of
        # the calibrations around it. Means, not medians or minima.
        total_cal = sum(statistics.fmean(self.samples[op]) / statistics.fmean(self.around[op])
                        for op in self.samples)
        # each operation and each probe counts once: an operation failed
        # if it failed on any pass, timed or traced
        ops_failed = len(self.failed_names & {op.name for op in self.ops})
        values = {
            # each build over the calibrations just around it, as for ops
            "setup_s": CALIBRATION_REFERENCE_S * median(
                [b / c for b, c in zip(self.setup_times, self.setup_around)]),
            "setup_wall_s": median(self.setup_times),
            "cal_per_mreq": total_cal / (self.workload.requests / 1e6),
            "total_cal": total_cal,
            "total_s": median(self.pass_totals),
            "calibration_s": median(self.calibration),
            "peak_rss_mb": self.peak_rss_mb,
            "cli.startup_s": self.startup_s,
            "probes_failed": probes_failed,
            "failed_ops_frac": ((ops_failed + probes_failed)
                                / (len(self.ops) + len(self.probe_results))),
            "mare_box": 0.0,  # when the workload does not predict
        }
        for name, found in self.workload.findings.items():
            values[name] = median(found)
        for op in OP_NAMES:
            values[f"{op}_s"] = median(self.samples.get(op, []))
        for metric in self.layer_samples[0] if self.layer_samples else ():
            values[metric] = median([m[metric] for m in self.layer_samples])
        return values

    def report(self, declared: dict, units: dict):
        values = self.summary()
        print(f"workload {self.workload.name} seed {self.args.seed} trace {self.args.trace}")
        for item in self.inputs:
            print("input " + " ".join(f"{k}={v}" for k, v in item.items()))
        for op, times in self.samples.items():
            print(f"op {op}: median {median(times):.4f} s, min {min(times):.4f} s, "
                  f"max {max(times):.4f} s, n={len(times)}")
        for probe in self.probe_results:
            print("probe {probe}: expect exit {expect}, got {exit}, traceback {traceback}: "
                  "{}".format("pass" if probe["passed"] else "FAIL", **probe))
        for failure in self.failures:
            print(f"FAILED {failure}")
        for name in sorted(values):
            if name.endswith("_s") and values[name] == 0:
                continue  # an operation or layer this workload does not run
            print(f"metric {name} = {values[name]:.6g} {units.get(name, '')}".rstrip())
        if "predict_box.span_sum_s" in values:
            spans, wall = values["predict_box.span_sum_s"], values["predict_box_s"]
            print(f"predict_box: spans {spans:.4f} s + start-up {self.startup_s:.4f} s "
                  f"= {spans + self.startup_s:.4f} s of {wall:.4f} s untraced "
                  f"({(spans + self.startup_s) / wall - 1:+.1%})")
        missing = [name for name in declared if name not in values]
        if missing and not self.failed:
            raise SystemExit(f"declared metrics not measured: {missing}")
        for name in missing:  # a failed operation stopped the run before them
            values[name] = 0.0
        record = {
            "workload": self.workload.name, "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace, "inputs": self.inputs,
            "samples": self.samples, "setup_times": self.setup_times,
            "setup_around": self.setup_around,
            "calibration": self.calibration, "around": self.around,
            "probes": self.probe_results,
            "failures": self.failures, "values": values, "spans": self.spans,
        }
        report_path = WORK / f"{self.workload.name}-seed{self.args.seed}-trace{self.args.trace}.json"
        report_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": spec["unit"]}
                        for name, spec in declared.items()},
        }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if traced is None:
        print(f"error: cannot import cachechurn from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    run = Run(args)
    try:
        run.set_up()
        run.workload.prepare()
        run.ops = run.workload.ops()
        run.measure()
        run.set_up()
        run.run_probes()
        run.report(declared, units)
    finally:
        run.launcher.close()
        for sub in ("untraced", "traced", "probes"):
            shutil.rmtree(run.work / sub, ignore_errors=True)
        for name in ("trace.csv", "config.json", "mc_config.json"):
            (run.work / name).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
