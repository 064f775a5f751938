"""Golden lock: sha256 of every CLI output on a small fixed-seed input.

A refactor that keeps these hashes keeps every output byte. The digests
were recorded from the tree before the batched characteristic-time
inverter; a change that alters an output on purpose re-records the
digest and says why in CHANGES.md. The user-column digests lock session
consolidation, user ids and CSV quoting; they were recorded from the tree
before document and user ids were interned. The three shuffle digests were
re-recorded at version 0.2.0, when each randomization became whole-array
draws from one stream.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from cachechurn.cli import main

CONFIG = {
    "gamma": 0.004,
    "window_ms": 400_000,
    "pairs": [[0.002, 3000.0], [0.0005, 20000.0], [0.01, 800.0]],
}

GOLDEN = {
    "generate": (
        "e35efb6176c068cb2e1b875c7febc3c9"
        "21a187dd8fd542dfa3373f83f0f3dcf9"
    ),
    "simulate": (
        "1c7f4e07d5835c508767608a82d59829"
        "5248e39ea25e39c8b5895395b38e8f46"
    ),
    "predict_box": (
        "8e2ab21fc0e75344d0a53b5d11d8dda2"
        "0feaf00f24142a9d943e902bdbc4efe2"
    ),
    "predict_box_meta": (
        "e48f4ff080709447ddb4ba52d4d4b52c"
        "c7fee8c047c683de244022c62b0b6bcb"
    ),
    "predict_classic": (
        "98c52dfe41a3616801dd0467add8a183"
        "a9ecdc2860177cb9f45f47d3c364a8a9"
    ),
    "shuffle_all": (
        "3a587ed82a7a42a51bd4e584249d2261"
        "0c1ff04628eb53e7d227325503ae61fe"
    ),
    "shuffle_local": (
        "afde2f22d470273f608084ed7aeed3e7"
        "b82f679221951b5062350b85736ccf17"
    ),
    "validate": (
        "59c8bbdabea327017efa85aadefff37a"
        "c7db01c39996900c056643a128fe31cb"
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    trace = tmp / "trace.csv"
    runs = {
        "generate": (["generate", "--config", cfg, "--seed", 11], trace),
        "simulate": (["simulate", trace, "--sizes", "log:1:max:25"], tmp / "sim.csv"),
        "predict_box": (["predict", trace, "--method", "box",
                         "--sizes", "log:5:max:25"], tmp / "box.csv"),
        "predict_classic": (["predict", trace, "--method", "classic",
                             "--sizes", "log:1:max:25"], tmp / "classic.csv"),
        "shuffle_all": (["shuffle", trace, "--kind", "all", "--seed", 4,
                         "--sizes", "log:2:max:15"], tmp / "all.csv"),
        "shuffle_local": (["shuffle", trace, "--kind", "local", "--seed", 4],
                          tmp / "local.csv"),
        "validate": (["validate", "--config", cfg, "--t-grid", "lin:20000:400000:6",
                      "--reps", 20, "--seed", 9], tmp / "validate.csv"),
    }
    out = {}
    for name, (argv, path) in runs.items():
        assert main([str(a) for a in argv] + ["--out", str(path)]) == 0, name
        out[name] = sha256(path)
    out["predict_box_meta"] = sha256(tmp / "box.csv.meta.json")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name]


#: Ids that need CSV quoting (comma, double quote), non-ASCII ids and
#: plain ones, for the user-column input.
USER_DOCS = ["a,b", 'say "hi"', "café", "文档", "d1", "d2", "d3", "zz"]
USER_IDS = ["u1", "u2", "ü3", "u,4"]

GOLDEN_USERS = {
    "simulate_gap": (
        "671223a684389c13788ce53cfbdeeed7"
        "21c295081395f481b8bc49aaf53e5c69"
    ),
    "shuffle_local_gap": (
        "9eaced5f8ef4d73cf09a42fc0a810945"
        "c0d0c0744ee680b3dfe6a17e1a5027c0"
    ),
    "predict_box_gap": (
        "b5df83e9803140a3bbdc3e5c0ea0d507"
        "d6c09233efdced3da12a80f03cfae2b1"
    ),
    "predict_box_gap_meta": (
        "6bc4c50d097401c11d64e7654b0e293a"
        "d3f8f1d79aa1c2e266d80b5b879bf4fc"
    ),
}


@pytest.fixture(scope="module")
def user_digests(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden_users")
    rng = np.random.default_rng(5)
    n = 400
    trace = tmp / "users.csv"
    with open(trace, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["timestamp_ms", "doc_id", "user_id"])
        for t, d, u in zip(rng.integers(0, 50_000, n), rng.integers(0, len(USER_DOCS), n),
                           rng.integers(0, len(USER_IDS), n)):
            out.writerow([int(t), USER_DOCS[d], USER_IDS[u]])
    runs = {
        "simulate_gap": (["simulate", trace, "--gap-ms", 2000,
                          "--sizes", "log:1:max:8"], tmp / "sim.csv"),
        "shuffle_local_gap": (["shuffle", trace, "--kind", "local", "--seed", 3,
                               "--gap-ms", 2000], tmp / "local.csv"),
        "predict_box_gap": (["predict", trace, "--method", "box", "--gap-ms", 2000,
                             "--sizes", "log:1:max:8"], tmp / "box.csv"),
    }
    out = {}
    for name, (argv, path) in runs.items():
        assert main([str(a) for a in argv] + ["--out", str(path)]) == 0, name
        out[name] = sha256(path)
    out["predict_box_gap_meta"] = sha256(tmp / "box.csv.meta.json")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_USERS))
def test_user_column_output_bytes_unchanged(user_digests, name):
    assert user_digests[name] == GOLDEN_USERS[name]
