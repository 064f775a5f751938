import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    path = tmp_path / "empty.csv"
    path.write_text("timestamp_ms,doc_id\n")
    code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


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
    assert code == 1
    assert "no estimable documents" in capsys.readouterr().err


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
