import numpy as np
import pytest

from cachechurn.boxmodel import SERIES_THRESHOLD, _gap_weight
from cachechurn.trace import build_trace


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
