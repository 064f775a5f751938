import csv
import io
import itertools

import numpy as np
import pytest

from cachechurn import trace as trace_module
from cachechurn.boxmodel import SERIES_THRESHOLD, _gap_weight
from cachechurn.trace import _make_trace, build_trace


def random_trace(rng, n_requests, n_docs, window=None, with_users=False):
    """Uniform-random request trace for oracle comparisons."""
    docs = np.array(
        [f"d{int(i):05d}" for i in rng.integers(0, n_docs, n_requests)], dtype=object
    )
    window = window or max(int(n_requests) * 4, 10)
    ts = rng.integers(0, window + 1, n_requests)
    users = None
    if with_users:
        users = np.array(
            [f"u{int(i):03d}" for i in rng.integers(0, 20, n_requests)], dtype=object
        )
    return build_trace(ts, docs, users, window)


def read_with(reader, data, window=None):
    """The Trace that the trace reader `reader`, such as ``trace._scan``,
    gives of the CSV bytes `data`, built as ``parse_trace`` builds it."""
    rows = reader(data, window)
    return _make_trace(rows[0], *itertools.chain(*rows[1]), window_length=window)


def read_csv(data, window=None):
    """The Trace of the CSV bytes `data` as the stdlib csv reader reads
    them, one row at a time: the reference for the byte scan. Each row is
    checked by ``trace._row_error``, on a second reader kept in step, which
    gives the first fault; ``build_trace`` orders the names."""
    rows, checked = (csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape",
                                                 newline="")) for _ in range(2))
    try:
        expected = trace_module._check_header(next(rows))
    except csv.Error:
        raise trace_module._row_error(checked, 0, window, 0) from None
    next(checked)
    kept = []
    while True:
        try:
            fault = trace_module._row_error(checked, expected, window, 0)
        except StopIteration:
            break
        if fault is not None:
            raise fault
        row = next(rows)
        if row:
            kept.append(row)
    columns = list(zip(*kept)) or [()] * expected
    return build_trace([int(ts) for ts in columns[0]], columns[1],
                       columns[2] if expected == 3 else None, window)


def paper_branch_forms(lam, tau, t):
    """The box model's per-pair kernels as the paper writes them, each as
    its two branches: {kernel name: (form for tau >= t, form for tau < t)}.
    For the expected hits `t` is t_C."""
    x = lam * tau
    short_series = 0.5 * x * x * (1 - x / 3.0 + x * x / 12.0 - x**3 / 60.0 + x**4 / 360.0)
    return {
        "_ws_pair": (
            2.0 * t + -np.expm1(-lam * t) * (tau - t - 2.0 / lam),
            2.0 * tau + -np.expm1(-lam * tau) * (t - tau - 2.0 / lam),
        ),
        "repeat_doc_window_mean": (
            2.0 * t * -np.expm1(-lam * t) + _gap_weight(lam * t) * (tau - t - 4.0 / lam),
            2.0 * tau * -np.expm1(-lam * tau) + _gap_weight(lam * tau) * (t - tau - 4.0 / lam),
        ),
        "expected_hits_per_doc": (
            # (x-1)(1-e^-y) + y e^-y, y = lam*t_C, as x(1-e^-y) - G(y)
            x * -np.expm1(-lam * t) - _gap_weight(lam * t),
            # x - 1 + e^-x, by series where it cancels
            np.where(x < SERIES_THRESHOLD, short_series, x + np.expm1(-x)),
        ),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)
