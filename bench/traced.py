"""In-process traced run: the CLI's public calls, with a span around each.

Each ``run_*`` function makes the same public `cachechurn` calls as the
matching CLI subcommand, in the same order, and writes the same files.
The benchmark records a span around every call; :func:`hooks` adds spans
and counters inside a few library functions by swapping module
attributes for the duration of a traced operation. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from cachechurn import __version__, boxmodel, estimators, lrusim, shuffle, synth, trace


class Tracer:
    """Spans (name, operation, parent, start, end) and counters, in memory.

    `seen` holds the (operation, name) of every span and counter recorded.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.seen = set()
        self._stack = []
        self._op = None

    @contextmanager
    def op(self, name: str):
        self._op = name
        try:
            yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.seen.add((self._op, name))
        record = {"name": name, "op": self._op, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value=1):
        self.seen.add((self._op, name))
        self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value):
        self.seen.add((self._op, name))
        self.counters[name] = value

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(result)` records counters past its end."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def top_level(self, op: str) -> float:
        """Summed duration of the operation's outermost spans."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["op"] == op and s["parent"] is None)


class NullTracer(Tracer):
    """Takes a Tracer's calls and records nothing: the untraced twin."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value=1):
        pass

    def set(self, name: str, value):
        pass


class _CountingWorkingSet:
    """Counts the evaluations `characteristic_time` makes of a working set."""

    def __init__(self, fn, tracer, counter):
        self._fn, self._tracer, self._counter = fn, tracer, counter

    def __call__(self, t):
        self._tracer.count(self._counter)
        return self._fn(t)


@contextmanager
def hooks(tr: Tracer):
    """Spans inside the library, restored on exit.

    Only module attributes the library looks up at call time are swapped,
    so the code under test runs unchanged. An attribute that a later
    version no longer has raises AttributeError, so the benchmark is
    updated with the library instead of reporting a layer as free.
    """
    saved = []

    def swap(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def count_profile(profile):
        tr.count("lrusim.requests", profile.total_requests)
        tr.count("lrusim.cold_misses", profile.infinite_count)

    def timed_t_c(fn):
        def characteristic_time(cache_size, working_set, *args, **kwargs):
            box = isinstance(working_set, boxmodel.WorkingSetModel)
            name = "boxmodel.t_c" if box else "boxmodel.irm_t_c"
            counter = "boxmodel.ws_evals" if box else "boxmodel.irm_occupancy_evals"
            with tr.span(name):
                return fn(cache_size, _CountingWorkingSet(working_set, tr, counter),
                          *args, **kwargs)
        return characteristic_time

    original = {}  # shuffle._RANDOMIZERS as it was
    try:
        swap(lrusim, "stack_distances",
             tr.wrap(lrusim.stack_distances, "lrusim.stack_distances", count_profile))
        swap(lrusim.StackDistanceProfile, "hits_at",
             tr.wrap(lrusim.StackDistanceProfile.hits_at, "lrusim.hits_at"))
        swap(boxmodel, "characteristic_time", timed_t_c(boxmodel.characteristic_time))
        swap(boxmodel, "mean_expected_hits",
             tr.wrap(boxmodel.mean_expected_hits, "boxmodel.hits"))
        swap(synth, "generate_box_trace",
             tr.wrap(synth.generate_box_trace, "synth.generate",
                     lambda t: tr.count("synth.requests_generated", len(t))))
        original = dict(shuffle._RANDOMIZERS)
        for kind, fn in original.items():
            shuffle._RANDOMIZERS[kind] = tr.wrap(fn, f"shuffle.{kind}")
        yield
    finally:
        if original:
            shuffle._RANDOMIZERS.update(original)
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


# --------------------------------------------------------------------------
# the CLI subcommands, call for call


def _manifest(out: Path, subcommand: str, **params):
    manifest = {"tool": "cachechurn", "version": __version__,
                "subcommand": subcommand, "outputs": [str(out)], **params}
    Path(f"{out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_curve(tr: Tracer, curve, out: Path, subcommand: str, **params):
    with tr.span("cli.write"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            lrusim.write_curve_csv(curve, handle)
        _manifest(out, subcommand, **params)


def _load(tr: Tracer, path: Path, gap_ms=None):
    with tr.span("trace.parse"):
        t = trace.parse_trace(str(path), None)
    tr.set("trace.bytes_in", path.stat().st_size)
    tr.set("trace.requests", len(t))
    if gap_ms is not None:
        with tr.span("trace.consolidate"):
            consolidated = trace.consolidate_sessions(t, gap_ms)
        tr.set("trace.consolidate_dropped", len(t) - len(consolidated))
        t = consolidated
    return t


def _distinct_docs(tr: Tracer, t) -> int:
    # the CLI reads it to resolve the grid spec, whatever the spec
    with tr.span("trace.distinct_docs"):
        distinct = t.distinct_docs
    tr.set("trace.docs", distinct)
    return distinct


def run_simulate(tr: Tracer, path: Path, sizes, out: Path):
    t = _load(tr, path)
    _distinct_docs(tr, t)
    with tr.span("lrusim.hit_ratio_curve"):
        curve = lrusim.hit_ratio_curve(t, sizes)
    _write_curve(tr, curve, out, "simulate")


def run_predict_box(tr: Tracer, path: Path, sizes, out: Path):
    t = _load(tr, path)
    _distinct_docs(tr, t)
    with tr.span("trace.stats"):
        summary = trace.trace_stats(t)
    with tr.span("estimators.joint_sample"):
        sample = estimators.build_joint_sample(t, 2)
    tr.set("estimators.n1", sample.n1)
    tr.set("estimators.n2", sample.n2)
    tr.set("estimators.lifespans_clamped",
             int(np.count_nonzero(sample.taus <= estimators.MIN_LIFESPAN_MS)))
    with tr.span("estimators.catalog_rate"):
        gamma_hat = estimators.estimate_catalog_rate(summary, t.window.length)
    with tr.span("boxmodel.box_hit_ratio_curve"):
        curve, times = boxmodel.box_hit_ratio_curve(sample, gamma_hat, sizes)
    with tr.span("cli.write"):
        meta = {"gamma_hat": gamma_hat, "n1": sample.n1, "n2": sample.n2,
                "mean_n_multi": sample.mean_n_multi,
                "t_c": [{"cache_size": int(tc.cache_size), "t_c_ms": tc.t_c}
                        for tc in times]}
        Path(f"{out}.meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_curve(tr, curve, out, "predict", method="box")


def run_predict_classic(tr: Tracer, path: Path, sizes, out: Path):
    t = _load(tr, path)
    _distinct_docs(tr, t)
    with tr.span("estimators.rank_frequency"):
        ranked = estimators.rank_frequency(t)
    counts = [count for _, count in ranked]
    with tr.span("boxmodel.irm_che"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = boxmodel.irm_che_curve(counts, t.window.length, sizes)
    _write_curve(tr, curve, out, "predict", method="classic")


def run_generate(tr: Tracer, config_path: Path, seed: int, out: Path):
    with tr.span("synth.config"):
        config = synth.GeneratorConfig.from_json(config_path.read_text(encoding="utf-8"))
    generated = synth.generate_box_trace(config, seed)
    with tr.span("trace.serialize"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            trace.serialize_trace(generated, handle)
    with tr.span("cli.write"):
        _manifest(out, "generate", seed=seed)


def run_shuffle_all(tr: Tracer, path: Path, sizes, gap_ms: int, seed: int, out: Path):
    t = _load(tr, path, gap_ms)
    tr.set("shuffle.groups", _distinct_docs(tr, t))
    with tr.span("shuffle.run_semi_experiments"):
        report = shuffle.run_semi_experiments(t, sizes, seed)
    with tr.span("cli.write"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            rows = csv.writer(handle, lineterminator="\n")
            rows.writerow(["kind", "cache_size", "relative_size", "hit_ratio"])
            for kind in ("original",) + shuffle.RANDOMIZATION_KINDS:
                curve = report.original if kind == "original" else report.randomized[kind]
                for c, r, h in curve.points:
                    rows.writerow([kind, c, f"{r:.6g}", f"{h:.6g}"])
        _manifest(out, "shuffle", kind="all", seed=seed, gap_ms=gap_ms)


def run_shuffle_local(tr: Tracer, path: Path, gap_ms: int, seed: int, out: Path):
    t = _load(tr, path, gap_ms)
    with tr.span("shuffle.randomize"):
        shuffled = shuffle.randomize(t, "local", seed)
    tr.set("shuffle.groups", len(set(t.docs)))
    with tr.span("trace.serialize"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            trace.serialize_trace(shuffled, handle)
    with tr.span("cli.write"):
        _manifest(out, "shuffle", kind="local", seed=seed, gap_ms=gap_ms)


def run_validate(tr: Tracer, config_path: Path, t_grid, reps: int, seed: int, out: Path):
    with tr.span("synth.config"):
        config = synth.GeneratorConfig.from_json(config_path.read_text(encoding="utf-8"))
    with tr.span("synth.mc"):
        mc = synth.monte_carlo_distinct_docs(config, t_grid, reps, seed)
    tr.count("synth.mc_reps", reps)
    with tr.span("boxmodel.working_set"):
        analytic = boxmodel.box_working_set(mc.t, config.gamma, config.lambdas, config.taus)
    with tr.span("cli.write"):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            rows = csv.writer(handle, lineterminator="\n")
            rows.writerow(["t_ms", "psi_analytic", "mc_mean", "mc_stderr", "z_score"])
            for t, ws, mean, stderr in zip(mc.t, np.atleast_1d(analytic), mc.mean, mc.stderr):
                z = 0.0 if stderr == 0 and mean == ws else (mean - ws) / stderr
                rows.writerow([f"{v:.6g}" for v in (t, ws, mean, stderr, z)])
        _manifest(out, "validate", seed=seed, reps=reps)
