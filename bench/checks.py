"""Output checks of the benchmark's operations.

Each check reads what a `cachechurn` subcommand wrote and returns None
when it is correct, or a one-line reason when it is not. The references
the checks compare against (an OrderedDict LRU, session consolidation,
per-document invariants) are computed here with numpy and the standard
library, never with the package under test.
"""

from __future__ import annotations

import csv
import math
from collections import OrderedDict
from pathlib import Path
from typing import Optional

import numpy as np

#: Criterion 2 of the acceptance suite: box-model MARE against simulation.
MARE_GATE = 0.03
#: Criterion 4: below this share of the catalog the globally randomized
#: curve may exceed the original by at most IRM_SLACK.
IRM_SMALL_SHARE = 0.10
IRM_SLACK = 0.01
#: Allowed distance, in standard deviations of one draw, between the
#: request and document counts of `generate` and of the set-up input.
COUNT_SIGMAS = 6.0


def log_grid(lo: int, hi: int, n: int) -> np.ndarray:
    """Cache sizes of a ``log:LO:HI:N`` grid spec, rounded and de-duplicated."""
    return np.unique(np.rint(np.geomspace(lo, hi, n)).astype(np.int64))


def acceptance_grid(distinct: int) -> str:
    """The criterion-2 grid: 20 log-spaced sizes from 1 % to 40 % of the docs."""
    return f"log:{round(0.01 * distinct)}:{round(0.4 * distinct)}:20"


def read_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def read_trace(path: Path):
    """Header and integer-coded columns of a trace CSV.

    Returns ``(header, times, doc_codes, user_codes)``; codes index the
    sorted distinct identifiers, and user_codes is None without a user
    column.
    """
    rows = read_rows(path)
    header, body = rows[0], [r for r in rows[1:] if r]
    width = len(header)
    if any(len(r) != width for r in body):
        raise ValueError("ragged rows")
    times = np.array([int(r[0]) for r in body], dtype=np.int64)
    _, docs = np.unique(np.array([r[1] for r in body]), return_inverse=True)
    users = None
    if width == 3:
        _, users = np.unique(np.array([r[2] for r in body]), return_inverse=True)
    return header, times, docs, users


def read_curve(path: Path):
    """Cache sizes, hit-ratio strings and values of a curve CSV."""
    rows = read_rows(path)
    if rows[0] != ["cache_size", "relative_size", "hit_ratio"]:
        raise ValueError(f"unexpected curve header {rows[0]!r}")
    body = [r for r in rows[1:] if r]
    sizes = np.array([int(r[0]) for r in body], dtype=np.int64)
    return sizes, [r[2] for r in body], np.array([float(r[2]) for r in body])


def curve_mare(reference: np.ndarray, model: np.ndarray) -> float:
    return float(np.mean(np.abs(reference - model) / np.abs(reference)))


def lru_hits(docs, size: int) -> int:
    """Hits of an explicit LRU cache of `size` entries over a request sequence."""
    cache: OrderedDict = OrderedDict()
    hits = 0
    for doc in docs:
        if doc in cache:
            hits += 1
            cache.move_to_end(doc)
        else:
            if len(cache) >= size:
                cache.popitem(last=False)
            cache[doc] = None
    return hits


def consolidate(times, docs, users, gap_ms: int) -> np.ndarray:
    """Keep-mask of session consolidation over a time-sorted trace.

    A request is dropped when the same user asked for the same document
    less than `gap_ms` before it.
    """
    order = np.lexsort((docs, users))  # stable: time order within a pair
    t = times[order]
    same = (docs[order][1:] == docs[order][:-1]) & (users[order][1:] == users[order][:-1])
    drop = np.zeros(len(t), dtype=bool)
    drop[1:] = same & (t[1:] - t[:-1] < gap_ms)
    keep = np.ones(len(t), dtype=bool)
    keep[order[drop]] = False
    return keep


def doc_invariants(times, docs) -> np.ndarray:
    """Per-document (count, first, last), one row per document code."""
    n = int(docs.max()) + 1 if len(docs) else 0
    count = np.bincount(docs, minlength=n)
    first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    np.minimum.at(first, docs, times)
    np.maximum.at(last, docs, times)
    return np.stack([count, first, last], axis=1)


# --------------------------------------------------------------------------
# per-operation checks


def check_trace_counts(path: Path, window: int, expected: dict, spread) -> Optional[str]:
    """`generate`: well-formed, counts within statistical bounds of the input."""
    header, times, docs, users = read_trace(path)
    if header != ["timestamp_ms", "doc_id"] or users is not None:
        return f"unexpected header {header!r}"
    if len(times) and (times[0] < 0 or times[-1] > window or np.any(np.diff(times) < 0)):
        return "timestamps unsorted or outside the window"
    docs_sd, requests_sd = spread
    n_docs = int(docs.max()) + 1 if len(docs) else 0
    # two independent draws: the difference has sqrt(2) times the spread
    if abs(len(times) - expected["requests"]) > COUNT_SIGMAS * math.sqrt(2) * requests_sd:
        return f"{len(times)} requests, input has {expected['requests']}"
    if abs(n_docs - expected["docs"]) > COUNT_SIGMAS * math.sqrt(2) * docs_sd:
        return f"{n_docs} docs, input has {expected['docs']}"
    return None


def check_simulate(path: Path, sizes, reference: dict) -> Optional[str]:
    """Monotone, under the cold-miss ceiling, equal to the LRU oracle."""
    got_sizes, text, ratios = read_curve(path)
    if not np.array_equal(got_sizes, sizes):
        return "cache-size grid differs from the spec"
    if np.any(np.diff(ratios) < 0):
        return "curve not monotone"
    ceiling = 1 - reference["distinct"] / reference["requests"]
    if np.any(ratios > ceiling + 5e-7):  # values carry 6 significant digits
        return f"hit ratio above the cold-miss ceiling {ceiling:.6g}"
    for size, hits in reference["oracle"].items():
        k = int(np.searchsorted(sizes, size))
        want = f"{hits / reference['requests']:.6g}"
        if text[k] != want:
            return f"C={size}: hit ratio {text[k]}, LRU oracle gives {want}"
    return None


def check_predict_box(path: Path, sim_path: Path) -> tuple:
    """MARE against the simulated curve, gated at :data:`MARE_GATE`."""
    sizes, _, box = read_curve(path)
    sim_sizes, _, sim = read_curve(sim_path)
    if not np.array_equal(sizes, sim_sizes):
        return "grid differs from simulate", math.nan
    value = curve_mare(sim, box)
    if not value <= MARE_GATE:
        return f"MARE {value:.4f} > {MARE_GATE}", value
    return None, value


def check_predict_classic(path: Path, sizes) -> Optional[str]:
    got_sizes, _, ratios = read_curve(path)
    if not np.array_equal(got_sizes, sizes):
        return "cache-size grid differs from the spec"
    if np.any((ratios < 0) | (ratios > 1)):
        return "hit ratio outside [0, 1]"
    if np.any(np.diff(ratios) < 0):
        return "curve not monotone"
    return None


def check_shuffle_all(path: Path, sizes, distinct: int) -> Optional[str]:
    """Global MARE above local MARE; global under original + slack (criterion 4)."""
    rows = read_rows(path)
    if rows[0] != ["kind", "cache_size", "relative_size", "hit_ratio"]:
        return f"unexpected header {rows[0]!r}"
    curves = {}
    for kind, size, _, ratio in (r for r in rows[1:] if r):
        curves.setdefault(kind, ([], []))
        curves[kind][0].append(int(size))
        curves[kind][1].append(float(ratio))
    if sorted(curves) != ["global", "local", "original", "positional"]:
        return f"curves {sorted(curves)}"
    for kind, (got, _) in curves.items():
        if not np.array_equal(got, sizes):
            return f"{kind}: grid differs from the spec"
    original = np.array(curves["original"][1])
    shuffled = {k: np.array(v[1]) for k, v in curves.items()}
    mare_global = curve_mare(original, shuffled["global"])
    mare_local = curve_mare(original, shuffled["local"])
    if not mare_global > mare_local:
        return f"global MARE {mare_global:.4f} <= local MARE {mare_local:.4f}"
    small = np.asarray(sizes) < IRM_SMALL_SHARE * distinct
    if np.any(shuffled["global"][small] > original[small] + IRM_SLACK):
        return "global curve above the original below 10 % of the catalog"
    return None


def check_shuffle_local(path: Path, expected: dict) -> Optional[str]:
    """Every document keeps its (count, first, last) of the consolidated input."""
    header, times, docs, users = read_trace(path)
    if header != expected["header"]:
        return f"unexpected header {header!r}"
    got = doc_invariants(times, docs)
    if got.shape != expected["invariants"].shape:
        return f"{len(got)} documents, consolidated input has {len(expected['invariants'])}"
    if not np.array_equal(got, expected["invariants"]):
        return "a document's (count, first, last) changed"
    return None


def check_validate(path: Path, t_count: int) -> tuple:
    """A finite row for every grid point; also returns the largest |z|."""
    rows = read_rows(path)
    if rows[0] != ["t_ms", "psi_analytic", "mc_mean", "mc_stderr", "z_score"]:
        return f"unexpected header {rows[0]!r}", math.nan
    body = [r for r in rows[1:] if r]
    if len(body) != t_count:
        return f"{len(body)} rows for {t_count} grid points", math.nan
    values = np.array([[float(v) for v in r] for r in body])
    if not np.all(np.isfinite(values)):
        return "non-finite value", math.nan
    return None, float(np.max(np.abs(values[:, 4])))
