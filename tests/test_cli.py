import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cachechurn
from cachechurn.cli import main
from cachechurn.lrusim import log_size_grid, read_curve_csv
from cachechurn.synth import GeneratorConfig, generate_box_trace
from cachechurn.trace import parse_trace, serialize_trace

from conftest import random_trace


def write_trace(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        serialize_trace(trace, handle)


@pytest.fixture
def trace_file(tmp_path, rng):
    path = tmp_path / "trace.csv"
    write_trace(path, random_trace(rng, 600, 50))
    return path


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_simulate_writes_curve_and_manifest(trace_file, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["simulate", str(trace_file), "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["cache_size", "relative_size", "hit_ratio"]
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["outputs"] == [str(out)]


def test_simulate_missing_file(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "nope.csv" in capsys.readouterr().err


def test_simulate_sizes_spec(trace_file, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["simulate", str(trace_file), "--sizes", "log:1:max:40", "--out", str(out)]) == 0
    curve = read_curve_csv(open(out, encoding="utf-8", newline=""))
    distinct = parse_trace(str(trace_file)).distinct_docs
    assert np.array_equal(curve.cache_sizes, log_size_grid(distinct, 40))


def test_simulate_bad_sizes_usage_error(trace_file, tmp_path, capsys):
    code = main(["simulate", str(trace_file), "--sizes", "nope", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--sizes" in capsys.readouterr().err


def test_simulate_empty_trace_is_validation_error(tmp_path, capsys):
    # an input the library rejects is an input error (3), not a failed validation
    path = tmp_path / "empty.csv"
    path.write_text("timestamp_ms,doc_id\n")
    code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "hit ratio undefined for an empty trace" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv, message", [
    (["shuffle", "--kind", "all"], "semi-experiments require a non-empty trace"),
    (["predict", "--method", "box"], "the trace has no requests"),
    (["predict", "--method", "classic"], "the trace has no requests"),
])
def test_header_only_trace_is_input_error(tmp_path, capsys, argv, message):
    path = tmp_path / "empty.csv"
    path.write_text("timestamp_ms,doc_id\n")
    assert main(argv[:1] + [str(path)] + argv[1:] + ["--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_simulate_non_utf8_trace_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"timestamp_ms,doc_id\n1,a\n2,\xff\xfe\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 3
    assert "line 3: doc_id is not valid UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_usage():
    assert main(["frobnicate"]) == 2


def test_shuffle_local_identity_on_small_docs(tmp_path):
    # every document has <= 2 requests: local randomization is the identity
    path = tmp_path / "in.csv"
    path.write_text("timestamp_ms,doc_id\n0,a\n10,b\n90,a\n")
    out = tmp_path / "out.csv"
    assert main(["shuffle", str(path), "--kind", "local", "--out", str(out)]) == 0
    assert out.read_text() == path.read_text()


def test_shuffle_deterministic_files(trace_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["shuffle", str(trace_file), "--kind", "global", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_shuffle_all_emits_curves_and_mare(trace_file, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main(
        ["shuffle", str(trace_file), "--kind", "all", "--seed", "3",
         "--sizes", "1,2,5,10", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["kind", "cache_size", "relative_size", "hit_ratio"]
    kinds = {row[0] for row in rows[1:]}
    assert kinds == {"original", "global", "positional", "local"}
    err = capsys.readouterr().err
    mare_lines = [l for l in err.splitlines() if l.startswith("mare ")]
    assert len(mare_lines) == 3


def test_shuffle_all_zero_reference_hit_ratio(tmp_path, capsys):
    # at C = 1 the original trace never hits, so every MARE is undefined
    path = tmp_path / "in.csv"
    path.write_text("timestamp_ms,doc_id\n0,a\n1,b\n2,a\n3,b\n4,c\n5,a\n")
    out = tmp_path / "curves.csv"
    assert main(["shuffle", str(path), "--kind", "all", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[1] == ["original", "1", "0.333333", "0"]
    assert {row[0] for row in rows[1:]} == {"original", "global", "positional", "local"}
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"mare {kind} undefined: reference hit ratio is zero at cache size 1"
        for kind in ("global", "positional", "local")
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["validate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--t-grid", "10,20", "--reps", "1"], "--reps"),
        (["predict", "TRACE", "--method", "classic", "--min-requests", "1"],
         "--min-requests"),
        (["simulate", "TRACE", "--gap-ms", "0"], "--gap-ms"),
        (["shuffle", "TRACE", "--kind", "local", "--gap-ms", "-5"], "--gap-ms"),
        # grid values must fit in int64, be finite and (t) lie in the window
        (["simulate", "TRACE", "--sizes", "1,99999999999999999999"], "--sizes"),
        (["simulate", "TRACE", "--sizes", "log:1:99999999999999999999:3"], "--sizes"),
        (["simulate", "TRACE", "--sizes", "lin:1:99999999999999999999:3"], "--sizes"),
        (["validate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--t-grid", "50,500", "--reps", "3"], "--t-grid"),
        (["validate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--t-grid", "50,nan", "--reps", "3"], "--t-grid"),
        (["shuffle", "TRACE", "--kind", "global", "--seed", "-1"], "--seed"),
        (["generate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--seed", "-3"], "--seed"),
        (["generate", "--gamma", "-1", "--window-ms", "5", "--lambda", "1", "--tau", "2"],
         "--gamma"),
        # an infinite generator value is a usage error too
        (["generate", "--gamma", "inf", "--window-ms", "5", "--lambda", "1", "--tau", "2"],
         "--gamma must be finite"),
        (["validate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "inf",
          "--tau", "10", "--t-grid", "10,20"], "--lambda must be finite"),
        (["generate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "inf"], "--tau must be finite"),
        (["validate", "--gamma", "0.01", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--warmup-ms", "inf", "--t-grid", "10,20"], "--warmup-ms must be finite"),
        (["validate", "--gamma", "nan", "--window-ms", "100", "--lambda", "0.1",
          "--tau", "10", "--t-grid", "10,20"], "--gamma"),
    ],
)
def test_flag_out_of_range_usage_error(trace_file, tmp_path, capsys, argv, flag):
    argv = [str(trace_file) if a == "TRACE" else a for a in argv]
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_predict_classic_symmetric(tmp_path):
    # 60 identical documents: HR(C) = C / 60 at every grid point
    rows = ["timestamp_ms,doc_id"]
    for i in range(60):
        for k in range(5):
            rows.append(f"{i * 100 + k * 7 + 1},doc{i:02d}")
    path = tmp_path / "sym.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "curve.csv"
    code = main(
        ["predict", str(path), "--method", "classic", "--sizes", "6,15,30",
         "--out", str(out)]
    )
    assert code == 0
    curve = read_curve_csv(open(out, encoding="utf-8", newline=""))
    assert curve.hit_ratios == pytest.approx([0.1, 0.25, 0.5], rel=1e-5)


def test_predict_box_without_estimable_docs(tmp_path, capsys):
    path = tmp_path / "singles.csv"
    path.write_text("timestamp_ms,doc_id\n0,a\n5,b\n9,c\n")
    code = main(["predict", str(path), "--method", "box", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "no estimable documents" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_predict_box_zero_span_trace(tmp_path, capsys):
    # every request at one instant: no lifespan or rate can be estimated, so
    # the box model refuses it; the classic IRM curve needs neither
    path = tmp_path / "instant.csv"
    path.write_text("timestamp_ms,doc_id\n0,a\n0,b\n0,a\n0,b\n0,c\n0,a\n")
    out = tmp_path / "box.csv"
    assert main(["predict", str(path), "--method", "box", "--sizes", "1,2",
                 "--out", str(out)]) == 3
    assert "spans 0 ms" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
    out = tmp_path / "classic.csv"
    assert main(["predict", str(path), "--method", "classic", "--sizes", "1,2",
                 "--out", str(out)]) == 0
    assert len(read_curve_csv(open(out, encoding="utf-8", newline="")).hit_ratios) == 2


def test_predict_box_meta_and_shared_grid(tmp_path):
    config = GeneratorConfig.fixed_pair(gamma=5e-3, window=10**6, lam=5e-3, tau=2000)
    trace = generate_box_trace(config, seed=8)
    tr_path = tmp_path / "box.csv"
    write_trace(tr_path, trace)
    box_out = tmp_path / "box_curve.csv"
    sim_out = tmp_path / "sim_curve.csv"
    sizes = "log:10:400:8"
    assert main(["predict", str(tr_path), "--method", "box", "--sizes", sizes,
                 "--out", str(box_out)]) == 0
    assert main(["simulate", str(tr_path), "--sizes", sizes, "--out", str(sim_out)]) == 0
    box_curve = read_curve_csv(open(box_out, encoding="utf-8", newline=""))
    sim_curve = read_curve_csv(open(sim_out, encoding="utf-8", newline=""))
    assert np.array_equal(box_curve.cache_sizes, sim_curve.cache_sizes)
    meta = json.loads(Path(f"{box_out}.meta.json").read_text())
    assert set(meta) == {"gamma_hat", "n1", "n2", "mean_n_multi", "t_c"}
    assert len(meta["t_c"]) == len(box_curve)
    assert all(entry["t_c_ms"] > 0 for entry in meta["t_c"])


def test_generate_empty_catalog(tmp_path):
    out = tmp_path / "empty.csv"
    code = main(
        ["generate", "--gamma", "0", "--window-ms", "1000", "--lambda", "0.01",
         "--tau", "100", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == "timestamp_ms,doc_id\n"


def test_generate_from_json_config_echoed_in_manifest(tmp_path):
    config = {
        "gamma": 0.002,
        "window_ms": 50_000,
        "pairs": [[0.01, 500.0], [0.002, 3000.0]],
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "trace.csv"
    code = main(["generate", "--config", str(cfg_path), "--seed", "4", "--out", str(out)])
    assert code == 0
    trace = parse_trace(str(out), 50_000)
    assert len(trace) > 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.002
    assert manifest["config"]["pairs"] == [[0.01, 500.0], [0.002, 3000.0]]


@pytest.mark.parametrize("command", [["generate"], ["validate", "--t-grid", "10"]])
@pytest.mark.parametrize(
    "document, message",
    [("{}", "lacks gamma, window_ms, pairs"), ("[1, 2]", "must be a JSON object"),
     ('{"gamma": null, "window_ms": 5, "pairs": [[1, 2]]}', "malformed value"),
     ('{"gamma": -1, "window_ms": 5, "pairs": [[1, 2]]}', "gamma must be non-negative"),
     # non-finite values, which json reads as NaN, Infinity and -Infinity
     ('{"gamma": 0.01, "window_ms": 5, "pairs": [[NaN, 100.0]]}', "lambdas must be finite"),
     ('{"gamma": 0.01, "window_ms": 5, "pairs": [[1, Infinity]]}', "taus must be finite"),
     ('{"gamma": NaN, "window_ms": 5, "pairs": [[1, 2]]}', "gamma must be finite"),
     ('{"gamma": 0.01, "window_ms": 5, "warmup_ms": -Infinity, "pairs": [[1, 2]]}',
      "warmup must be finite")],
)
def test_malformed_config_is_parse_error(tmp_path, capsys, command, document, message):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(document)
    out = tmp_path / "o.csv"
    assert main(command + ["--config", str(cfg_path), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_requires_config_or_flags(tmp_path, capsys):
    code = main(["generate", "--gamma", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--window-ms" in capsys.readouterr().err


def test_generate_manifest_reruns_byte_identical(tmp_path):
    out = tmp_path / "trace.csv"
    argv = ["generate", "--gamma", "0.01", "--window-ms", "20000", "--lambda",
            "0.005", "--tau", "1500", "--seed", "77", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert main(manifest["argv"]) == 0
    assert out.read_bytes() == first


def test_validate_format_and_pass(tmp_path):
    out = tmp_path / "val.csv"
    code = main(
        ["validate", "--gamma", "0.002", "--window-ms", "4000", "--lambda", "0.001",
         "--tau", "2000", "--t-grid", "1000,2500,4000", "--reps", "200",
         "--seed", "6", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["t_ms", "psi_analytic", "mc_mean", "mc_stderr", "z_score"]
    assert len(rows) == 4
    assert all(abs(float(r[4])) <= 3 for r in rows[1:])


def test_validate_detects_misspecified_model(tmp_path, capsys):
    # warmup 0 starves the window start of alive documents, so the Monte
    # Carlo counts fall well below the stationary working set
    code = main(
        ["validate", "--gamma", "0.01", "--window-ms", "4000", "--lambda", "0.002",
         "--tau", "4000", "--warmup-ms", "0", "--t-grid", "2000,4000",
         "--reps", "300", "--seed", "2", "--out", str(tmp_path / "v.csv")]
    )
    assert code == 1
    assert "|z|" in capsys.readouterr().err


def test_validate_stdout_when_no_out(capsys):
    code = main(
        ["validate", "--gamma", "0.002", "--window-ms", "2000", "--lambda", "0.001",
         "--tau", "1000", "--t-grid", "1000,2000", "--reps", "50", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t_ms,psi_analytic,mc_mean,mc_stderr,z_score")


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cachechurn", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


#: Runs one command in a fresh interpreter and prints its exit code, the
#: cachechurn submodules it loaded and whether numpy.ma was imported.
COMMAND_PROBE = """
import json, sys
from cachechurn.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("cachechurn."))
print(json.dumps([code, loaded, "numpy.ma" in sys.modules]))
"""


def run_probe(code, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(cachechurn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def pool_config(tmp_path):
    """A config of 40 (rate, lifespan) pairs and no `warmup_ms`, as the
    benchmark writes it, so the warmup is the lifespan pool's percentile."""
    rng = np.random.default_rng(5)
    pairs = np.column_stack((rng.uniform(0.002, 0.01, 40), rng.uniform(200, 2000, 40)))
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({"gamma": 0.01, "window_ms": 5000, "pairs": pairs.tolist()}))
    return path


@pytest.mark.parametrize("argv, modules", [
    (["simulate", "TRACE", "--sizes", "log:1:max:12"], ["lrusim", "trace"]),
    (["predict", "TRACE", "--method", "box"], ["boxmodel", "estimators", "lrusim", "trace"]),
    (["predict", "TRACE", "--method", "classic"], ["boxmodel", "estimators", "lrusim", "trace"]),
    (["shuffle", "TRACE", "--kind", "all", "--sizes", "lin:1:max:12"],
     ["lrusim", "shuffle", "trace"]),
    (["generate", "--gamma", "0.01", "--window-ms", "5000", "--lambda", "0.01", "--tau", "500"],
     ["synth", "trace"]),
    (["generate", "--config", "CONFIG"], ["synth", "trace"]),
    (["validate", "--config", "CONFIG", "--t-grid", "lin:1000:5000:5", "--reps", "20"],
     ["boxmodel", "synth", "trace"]),
], ids=["simulate", "predict-box", "predict-classic", "shuffle-all", "generate",
        "generate-config", "validate-config"])
def test_each_command_loads_only_the_modules_it_runs(trace_file, pool_config, tmp_path,
                                                     argv, modules):
    files = {"TRACE": trace_file, "CONFIG": pool_config}
    argv = [files.get(arg, arg) for arg in argv] + ["--out", "out.csv"]
    code, loaded, numpy_ma = run_probe(COMMAND_PROBE, *argv, cwd=tmp_path)
    assert code == 0
    assert loaded == sorted(modules + ["cli"])
    assert not numpy_ma  # neither a size grid nor a default warmup imports numpy.ma


def test_package_import_loads_no_submodule_and_resolves_every_name(tmp_path):
    probe = """
import json, sys
import cachechurn
bare = [m for m in sys.modules if m.startswith("cachechurn.")]
unresolved = [name for name in cachechurn.__all__ if getattr(cachechurn, name, None) is None]
star = {}
exec("from cachechurn import *", star)
star = sorted(set(star) - {"__builtins__"})
print(json.dumps([bare, unresolved, len(cachechurn.__all__), star]))
"""
    bare, unresolved, count, star = run_probe(probe, cwd=tmp_path)
    assert bare == [] and unresolved == []
    assert count == 49 and star == sorted(cachechurn.__all__)
