"""Command-line front end.

Subcommands cover the full pipeline: `generate` synthesizes traces,
`simulate` computes empirical LRU hit-ratio curves, `shuffle` applies the
trace randomizations, `predict` produces analytic curves (dynamic-catalog
box model or classic IRM Che baseline), and `validate` cross-checks the
analytic working set against Monte Carlo. `generate` and `validate` read
the generator's parameters from a `--config` JSON file only.

Data outputs are CSV/JSON files; human-readable diagnostics go to stderr.
Every file-writing run also emits a `<out>.manifest.json` recording the
exact invocation, sufficient to reproduce the outputs bit-identically.

Exit codes: 0 success, 1 validation failure (only `validate`'s z-test),
2 usage error, 3 I/O, parse or input error (an input the library rejects,
such as a trace with no requests or a generator config value out of range).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import NoReturn, Optional, Sequence

import numpy as np

# Each command imports the library modules it runs, so a child process
# loads only those.
from . import RANDOMIZATION_KINDS, __version__

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3


class _UsageError(Exception):
    """Bad flag value; maps to exit code 2."""


def _range_spec(spec: str, number, least, top=None):
    """Values of a ``log:LO:HI:N`` or ``lin:LO:HI:N`` spec, or None when
    `spec` is not one. LO and HI are read with `number`, HI may be the
    word `max` when `top` is given, LO must be at least `least`, and HI
    and N must be finite and fit in int64."""
    if not spec.startswith(("log:", "lin:")):
        return None
    kind, lo_s, hi_s, n_s = spec.split(":")
    lo = number(lo_s)
    hi = top if top is not None and hi_s == "max" else number(hi_s)
    n = int(n_s)
    if not least <= lo <= hi or float(hi) >= 2**63 or not 1 <= n < 2**63:
        raise ValueError
    return (np.geomspace if kind == "log" else np.linspace)(lo, hi, n)


def _parse_grid_spec(spec: str, max_size: int) -> np.ndarray:
    """Resolve a cache-size grid spec.

    Forms: ``log:LO:HI:N`` or ``lin:LO:HI:N`` (HI may be the word `max`,
    the distinct-document count of the input trace), or an explicit comma
    list ``1,2,5,10``. Duplicates after rounding collapse.
    """
    from .lrusim import _rounded_sizes, check_cache_sizes

    try:
        sizes = _range_spec(spec, int, 1, max_size)
        if sizes is not None:
            return _rounded_sizes(sizes)
        return check_cache_sizes([int(tok) for tok in spec.split(",")])
    except (ValueError, OverflowError):  # overflow: an integer beyond int64
        raise _UsageError(f"bad --sizes spec {spec!r}")


def _parse_t_grid(spec: str, window: int) -> list:
    """Resolve a time grid: comma list of ms values, or lin/log:LO:HI:N,
    each value within [0, window]."""
    try:
        values = _range_spec(spec, float, 0)
        values = [float(v) for v in (spec.split(",") if values is None else values)]
        if all(0 <= v <= window for v in values):  # NaN fails too
            return values
    except (ValueError, OverflowError):
        pass
    raise _UsageError(f"bad --t-grid spec {spec!r}: values must lie within [0, {window}]")


def _check_flag_ranges(args) -> None:
    """Reject an integer flag below its documented least value."""
    for flag, attr, least in (("--reps", "reps", 2), ("--min-requests", "min_requests", 2),
                              ("--gap-ms", "gap_ms", 1), ("--seed", "seed", 0)):
        value = getattr(args, attr, None)
        if value is not None and value < least:
            raise _UsageError(f"{flag} must be >= {least}, got {value}")


def _load_trace(path: str, gap_ms: Optional[int]):
    from .trace import consolidate_sessions, parse_trace

    trace = parse_trace(path)
    if gap_ms is not None:
        trace = consolidate_sessions(trace, gap_ms)
    return trace


def _write_outputs(out: str, emit, subcommand: str, argv: Sequence[str], meta=None,
                   **params) -> None:
    """Write ``<out>.manifest.json`` (the invocation and `params`), then
    ``<out>.meta.json`` when `meta` is given, then `out` by ``emit(handle)``,
    each to a temporary file beside it; only once all are written are they
    renamed into place, `out` last. A command that fails leaves none of them."""
    manifest = dict(tool="cachechurn", version=__version__, subcommand=subcommand,
                    argv=list(argv), outputs=[out], **params)
    # one line: without `indent`, json takes its C encoder
    texts = {f"{out}.manifest.json": json.dumps(manifest, sort_keys=True) + "\n"}
    if meta is not None:
        texts[f"{out}.meta.json"] = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    files = [(path, lambda handle, text=text: handle.write(text))
             for path, text in texts.items()] + [(out, emit)]
    for path, _ in files:  # a rename would replace a device, a pipe or a directory
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"not a regular file: {path!r}")
    temps, renamed = [], []
    try:
        for path, write in files:
            temp = f"{path}.{os.getpid()}.tmp"  # "x": a new file, with a plain open's mode
            with open(temp, "x", encoding="utf-8", newline="") as handle:
                temps.append(temp)
                write(handle)
        for temp, (path, _) in zip(temps, files):
            os.replace(temp, path)
            renamed.append(path)
    except BaseException:
        for path in temps + renamed:
            with contextlib.suppress(FileNotFoundError):  # a temporary file renamed
                os.unlink(path)
        raise


def _cmd_simulate(args, argv) -> int:
    from .lrusim import hit_ratio_curve, write_curve_csv

    trace = _load_trace(args.trace, args.gap_ms)
    sizes = _parse_grid_spec(args.sizes, max(trace.distinct_docs, 1))
    curve = hit_ratio_curve(trace, sizes)
    _write_outputs(
        args.out, partial(write_curve_csv, curve), "simulate", argv,
        inputs={"trace": args.trace}, sizes=args.sizes, gap_ms=args.gap_ms,
    )
    return EXIT_OK


def _cmd_shuffle(args, argv) -> int:
    from .shuffle import randomize, run_semi_experiments
    from .trace import serialize_trace

    trace = _load_trace(args.trace, args.gap_ms)
    if args.kind == "all":
        sizes = _parse_grid_spec(args.sizes, max(trace.distinct_docs, 1))
        report = run_semi_experiments(trace, sizes, args.seed)

        def emit(handle):
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["kind", "cache_size", "relative_size", "hit_ratio"])
            for kind in ("original",) + RANDOMIZATION_KINDS:
                curve = (
                    report.original if kind == "original" else report.randomized[kind]
                )
                for c, r, h in curve.points:
                    out.writerow([kind, c, f"{r:.6g}", f"{h:.6g}"])
    else:  # the input goes: the randomized trace shares only its name tables
        trace = randomize(trace, args.kind, args.seed)
        emit = partial(serialize_trace, trace)
    _write_outputs(
        args.out, emit, "shuffle", argv,
        inputs={"trace": args.trace}, kind=args.kind, seed=args.seed,
        sizes=args.sizes, gap_ms=args.gap_ms,
    )
    if args.kind == "all":  # once the files are in place: a failed run prints only its error
        for kind in RANDOMIZATION_KINDS:
            value = report.mare_values[kind]
            if np.isnan(value):
                zero = report.original.cache_sizes[report.original.hit_ratios == 0][0]
                print(f"mare {kind} undefined: reference hit ratio is zero at "
                      f"cache size {zero}", file=sys.stderr)
            else:
                print(f"mare {kind} {value:.6g}", file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args, argv) -> int:
    from .boxmodel import box_hit_ratio_curve, irm_che_curve
    from .estimators import build_joint_sample, estimate_catalog_rate, rank_frequency
    from .lrusim import write_curve_csv
    from .trace import trace_stats

    trace = _load_trace(args.trace, args.gap_ms)
    sizes = _parse_grid_spec(args.sizes, max(trace.distinct_docs, 1))
    ts = trace.timestamps
    if not len(ts):
        raise ValueError("the trace has no requests to predict from")
    meta = None
    if args.method == "classic":
        counts = [count for _, count in rank_frequency(trace)]
        with warnings.catch_warnings(record=True) as caught:  # as one stderr line each
            warnings.simplefilter("always")
            curve = irm_che_curve(counts, trace.window.length, sizes)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    else:
        if ts[0] == ts[-1]:
            raise ValueError(f"every request is at {ts[0]} ms: a trace that spans 0 ms has "
                             "no lifespan or rate for the box model to estimate")
        summary = trace_stats(trace)
        sample = build_joint_sample(trace, args.min_requests)
        gamma_hat = estimate_catalog_rate(summary, trace.window.length)
        curve, times = box_hit_ratio_curve(sample, gamma_hat, sizes)
        meta = {
            "gamma_hat": gamma_hat,
            "n1": sample.n1,
            "n2": sample.n2,
            "mean_n_multi": sample.mean_n_multi,
            "t_c": [
                {"cache_size": int(tc.cache_size), "t_c_ms": tc.t_c} for tc in times
            ],
        }
    _write_outputs(
        args.out, partial(write_curve_csv, curve), "predict", argv, meta,
        inputs={"trace": args.trace}, method=args.method, sizes=args.sizes,
        min_requests=args.min_requests, gap_ms=args.gap_ms,
    )
    return EXIT_OK


def _cmd_generate(args, argv) -> int:
    from .synth import GeneratorConfig, generate_box_trace
    from .trace import serialize_trace

    config = GeneratorConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    trace = generate_box_trace(config, args.seed)
    _write_outputs(
        args.out, partial(serialize_trace, trace), "generate", argv,
        seed=args.seed, config=config.to_dict(),
    )
    return EXIT_OK


def _cmd_validate(args, argv) -> int:
    from .boxmodel import box_working_set
    from .synth import GeneratorConfig, monte_carlo_distinct_docs

    config = GeneratorConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    t_grid = _parse_t_grid(args.t_grid, config.window)
    mc = monte_carlo_distinct_docs(config, t_grid, args.reps, args.seed)
    analytic = box_working_set(mc.t, config.gamma, config.lambdas, config.taus)
    rows = []
    worst = 0.0
    for t, ws, mean, stderr in zip(mc.t, np.atleast_1d(analytic), mc.mean, mc.stderr):
        with np.errstate(divide="ignore"):  # a zero stderr off the mean is |z| = inf
            z = 0.0 if stderr == 0 and mean == ws else (mean - ws) / stderr
        worst = max(worst, abs(z))
        rows.append((t, ws, mean, stderr, z))

    def emit(handle):
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["t_ms", "psi_analytic", "mc_mean", "mc_stderr", "z_score"])
        for t, ws, mean, stderr, z in rows:
            out.writerow(
                [f"{t:.6g}", f"{ws:.6g}", f"{mean:.6g}", f"{stderr:.6g}", f"{z:.6g}"]
            )

    if args.out:
        _write_outputs(
            args.out, emit, "validate", argv,
            seed=args.seed, reps=args.reps, t_grid=args.t_grid,
            config=config.to_dict(),
        )
    else:
        emit(sys.stdout)
    if worst > 3.0:
        print(f"validation failed: max |z| = {worst:.3g} > 3", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


_CONFIG_HELP = ("generator config JSON path: {gamma, window_ms, warmup_ms?, pairs: "
                "[[lambda, tau], ...]}; one pair pins every document to it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachechurn",
        description="LRU cache analysis under dynamic content catalogs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="simulate an LRU hit-ratio curve")
    sim.add_argument("trace", help="input trace CSV")
    sim.add_argument("--sizes", default="log:1:max:40", help="cache-size grid spec")
    sim.add_argument("--gap-ms", type=int, help="consolidate sessions with this gap")
    sim.add_argument("--out", required=True, help="output curve CSV")
    sim.set_defaults(func=_cmd_simulate)

    shuf = commands.add_parser("shuffle", help="randomize a trace (semi-experiments)")
    shuf.add_argument("trace", help="input trace CSV")
    shuf.add_argument(
        "--kind",
        choices=RANDOMIZATION_KINDS + ("all",),
        default="all",
        help="randomization to apply; `all` compares hit-ratio curves",
    )
    shuf.add_argument("--seed", type=int, default=0)
    shuf.add_argument("--sizes", default="log:1:max:40", help="grid for --kind all")
    shuf.add_argument("--gap-ms", type=int, help="consolidate sessions with this gap")
    shuf.add_argument("--out", required=True)
    shuf.set_defaults(func=_cmd_shuffle)

    pred = commands.add_parser("predict", help="analytic hit-ratio prediction")
    pred.add_argument("trace", help="input trace CSV")
    pred.add_argument("--method", choices=("box", "classic"), default="box")
    pred.add_argument("--sizes", default="log:1:max:40")
    pred.add_argument(
        "--min-requests", type=int, default=2,
        help="minimum per-document request count for estimation",
    )
    pred.add_argument("--gap-ms", type=int, help="consolidate sessions with this gap")
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=_cmd_predict)

    gen = commands.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument("--config", required=True, help=_CONFIG_HELP)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    val = commands.add_parser(
        "validate", help="cross-check the analytic working set against Monte Carlo"
    )
    val.add_argument("--config", required=True, help=_CONFIG_HELP)
    val.add_argument("--t-grid", required=True, help="time grid spec, ms")
    val.add_argument("--reps", type=int, default=500)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--out", help="output CSV (stdout when omitted)")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flag_ranges(args)
        return args.func(args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # ValueError: the library found the input unusable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # an input that asks for more memory than there is
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> NoReturn:
    """Process entry point of ``python -m cachechurn`` and the console
    script: `main` on ``sys.argv``, then exit with its code. The freeze
    moves every tracked object into the permanent generation, which the
    interpreter's finalizing collections skip; atexit handlers and stream
    flushes still run. In-process callers use `main`, which never freezes."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
