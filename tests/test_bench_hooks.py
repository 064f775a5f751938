"""The benchmark's in-process twin still fits the library.

`bench/traced.py` calls the library by name and swaps some of its module
attributes to time them; `bench/run.py` lists, per operation, what those
hooks must record. A library change that breaks either fails here, on a
tiny input, instead of in a benchmark run. Nothing is started: the two
modules are imported and each traced operation runs once in-process.
"""

import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from cachechurn.synth import GeneratorConfig, generate_box_trace
from cachechurn.trace import build_trace, serialize_trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The `traced` module and `run.HOOK_RECORDS`, imported as the
    benchmark imports them; the environment is restored afterwards."""
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    assert run.traced is not None, run.IMPORT_ERROR
    return run.traced, run.HOOK_RECORDS


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_hooks")
    config = GeneratorConfig(0.01, 200_000, np.array([0.002, 0.01]), np.array([5000.0, 800.0]))
    (tmp / "config.json").write_text(config.to_json(), encoding="utf-8")
    trace = generate_box_trace(config, 3)
    with open(tmp / "trace.csv", "w", encoding="utf-8", newline="") as handle:
        serialize_trace(trace, handle)
    users = np.random.default_rng(3).integers(0, 20, len(trace))
    with_users = build_trace(trace.timestamps, trace.doc_names[trace.docs],
                             [f"u{u}" for u in users], trace.window.length)
    with open(tmp / "users.csv", "w", encoding="utf-8", newline="") as handle:
        serialize_trace(with_users, handle)
    return tmp


def operations(tmp):
    config, trace, users = tmp / "config.json", tmp / "trace.csv", tmp / "users.csv"
    sizes = [1, 2, 4, 8]
    return {
        "generate": lambda m, tr: m.run_generate(tr, config, 5, tmp / "gen.csv"),
        "simulate": lambda m, tr: m.run_simulate(tr, trace, sizes, tmp / "sim.csv"),
        "predict_box": lambda m, tr: m.run_predict_box(tr, trace, sizes, tmp / "box.csv"),
        "predict_classic": lambda m, tr: m.run_predict_classic(tr, trace, sizes,
                                                               tmp / "classic.csv"),
        "shuffle_all": lambda m, tr: m.run_shuffle_all(tr, users, sizes, 1000, 2,
                                                       tmp / "all.csv"),
        "shuffle_local": lambda m, tr: m.run_shuffle_local(tr, users, 1000, 2,
                                                           tmp / "local.csv"),
        "validate": lambda m, tr: m.run_validate(tr, config, [20_000.0, 100_000.0], 3, 7,
                                                 tmp / "validate.csv"),
    }


def test_every_operation_is_covered(bench, inputs):
    _, hook_records = bench
    assert set(operations(inputs)) == set(hook_records)


@pytest.mark.parametrize("op", sorted(operations(Path("."))))
def test_traced_operation_records_every_hook(bench, inputs, op):
    traced, hook_records = bench
    tracer = traced.Tracer()
    with traced.hooks(tracer), tracer.op(op):
        operations(inputs)[op](traced, tracer)
    missing = [name for name in hook_records[op] if (op, name) not in tracer.seen]
    assert not missing
