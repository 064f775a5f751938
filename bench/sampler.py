"""Frozen input sampler of the benchmark.

Every input trace the benchmark feeds to cachechurn is drawn here, from
the run seed, with numpy alone. The box-model draw order is a frozen copy
of the one `cachechurn generate` used when the benchmark was defined, so
the `churn-ref` input is byte-identical to ``cachechurn generate --config
<the same config> --seed <seed>`` at that commit. Later changes to the
package's `synth` module therefore never change a workload's input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

#: The criterion-2 (rate, lifespan) pair pool of the acceptance suite.
POOL_SEED = 12345
POOL_SIZE = 4000

#: Catalog publication rate of every workload, documents per ms: a tenth
#: of the acceptance trace's 1e-3, so a run fits its time budget. The
#: window and the pool stay the acceptance suite's.
GAMMA = 1e-4

#: Users of the `semi-sessions` trace, and its session repeats: this share
#: of requests is repeated by the same user 1 s to 5 min later.
SESSION_USERS = 100_000
REPEAT_SHARE = 0.25
REPEAT_DELAY_MS = (1_000, 300_000)


def pair_pool():
    """The acceptance suite's pool: rates over two decades, lifespans over one."""
    rng = np.random.default_rng(POOL_SEED)
    lambdas = 10 ** rng.uniform(np.log10(8e-6), np.log10(8e-4), POOL_SIZE)
    taus = 10 ** rng.uniform(np.log10(1.5e5), np.log10(1.5e6), POOL_SIZE)
    return lambdas, taus


@dataclass(frozen=True)
class BoxConfig:
    """Dynamic-catalog generator parameters, as `cachechurn` reads them."""

    gamma: float
    window: int
    lambdas: np.ndarray
    taus: np.ndarray

    @property
    def warmup(self) -> float:
        # 99.9th percentile of the lifespan pool, the package's default
        return float(np.percentile(self.taus, 99.9))

    def to_json(self) -> str:
        return json.dumps(
            {
                "gamma": self.gamma,
                "window_ms": self.window,
                "pairs": [[float(l), float(t)] for l, t in zip(self.lambdas, self.taus)],
            }
        )

    def expected_spread(self):
        """Standard deviations of the published-document and request counts.

        Publications are Poisson; each document's count is Poisson with a
        mean drawn from the pool, so the total is compound Poisson. Counting
        whole lifespans over-states the in-window variance, which makes the
        bounds built on it conservative.
        """
        span = self.warmup + self.window
        mu = self.lambdas * self.taus
        docs_sd = float(np.sqrt(self.gamma * span))
        requests_sd = float(np.sqrt(self.gamma * span * np.mean(mu * mu + mu)))
        return docs_sd, requests_sd


@dataclass(frozen=True)
class Requests:
    """A sampled trace: time-sorted integer columns."""

    times: np.ndarray
    docs: np.ndarray
    users: Optional[np.ndarray]

    @property
    def distinct_docs(self) -> int:
        return len(np.unique(self.docs))


def sample_box(config: BoxConfig, rng: np.random.Generator) -> Requests:
    """Draw a box-model trace in the draw order frozen at definition time."""
    warmup = config.warmup
    n_docs = rng.poisson(config.gamma * (warmup + config.window))
    arrivals = np.sort(rng.uniform(-warmup, config.window, n_docs))
    idx = rng.integers(0, len(config.lambdas), n_docs)
    lam = config.lambdas[idx]
    tau = config.taus[idx]
    counts = rng.poisson(lam * tau)
    req_doc = np.repeat(np.arange(n_docs), counts)
    req_times = arrivals[req_doc] + rng.random(len(req_doc)) * tau[req_doc]
    inside = (req_times >= 0) & (req_times <= config.window)
    times = np.floor(req_times[inside] + 0.5).astype(np.int64)
    docs = req_doc[inside]
    order = np.argsort(times, kind="stable")
    return Requests(times[order], docs[order], None)


def sample_sessions(config: BoxConfig, rng: np.random.Generator) -> Requests:
    """A box-model trace with a user column and same-user session repeats.

    The box trace is drawn first, so its requests are those of
    :func:`sample_box` for the same generator state. Each request then gets
    a uniform user; a :data:`REPEAT_SHARE` of them is repeated by the same
    user after a uniform delay, and repeats past the window are dropped.
    """
    base = sample_box(config, rng)
    users = rng.integers(0, SESSION_USERS, len(base.times))
    repeat = rng.random(len(base.times)) < REPEAT_SHARE
    lo, hi = REPEAT_DELAY_MS
    rep_times = base.times[repeat] + rng.integers(lo, hi + 1, int(repeat.sum()))
    keep = rep_times <= config.window
    times = np.concatenate((base.times, rep_times[keep]))
    docs = np.concatenate((base.docs, base.docs[repeat][keep]))
    users = np.concatenate((users, users[repeat][keep]))
    order = np.argsort(times, kind="stable")
    return Requests(times[order], docs[order], users[order])


def render_csv(req: Requests) -> bytes:
    """The trace in `cachechurn`'s CSV format, as `serialize_trace` writes it."""
    times = req.times.tolist()
    docs = req.docs.tolist()
    if req.users is None:
        rows = [f"{t},d{d:08d}" for t, d in zip(times, docs)]
        header = "timestamp_ms,doc_id"
    else:
        rows = [
            f"{t},d{d:08d},u{u:05d}" for t, d, u in zip(times, docs, req.users.tolist())
        ]
        header = "timestamp_ms,doc_id,user_id"
    return "\n".join([header, *rows, ""]).encode("utf-8")


def identity(path: Path, req: Optional[Requests]) -> dict:
    """Record of an input: sha256, byte size, and for a trace its request
    and document counts."""
    data = path.read_bytes()
    record = {"path": path.name, "sha256": hashlib.sha256(data).hexdigest(),
              "bytes": len(data)}
    if req is not None:
        record.update(requests=len(req.times), docs=req.distinct_docs)
    return record
