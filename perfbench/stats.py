"""Order statistics the benchmark reports.

Latencies are summarized per fixed window of consecutive requests, so
one pause of the shared host moves one window, not the run's figure.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

__all__ = ["quantile", "tail_point", "window_quantiles", "windowed_quantile"]

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


def quantile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Linear-interpolation quantile of ``values`` (``q`` in [0, 1])."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return float(np.quantile(arr, q))


def window_quantiles(
    values: Sequence[float] | np.ndarray, q: float, window: int
) -> list[float]:
    """The ``q`` quantile of each consecutive ``window``-sized chunk.

    A trailing chunk shorter than ``window`` is folded into the one
    before it, so every sample counts and no chunk is tiny.  Fewer than
    ``window`` samples form a single chunk.
    """
    if window < 1:
        raise ValueError("window must be positive")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("windowed quantile of an empty sample")
    n_windows = max(1, arr.size // window)
    cuts = [i * window for i in range(n_windows)] + [arr.size]
    return [quantile(arr[lo:hi], q) for lo, hi in zip(cuts[:-1], cuts[1:])]


def windowed_quantile(
    values: Sequence[float] | np.ndarray, q: float, window: int
) -> float:
    """Median over the windows of :func:`window_quantiles`."""
    return float(statistics.median(window_quantiles(values, q, window)))


def tail_point(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_SAMPLES` samples beyond it.

    For ``n`` samples that is the order statistic at rank
    ``n - 1 - TAIL_SAMPLES``; the percentile is the share of samples
    at or below it.  Smaller samples report their median.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= 2 * TAIL_SAMPLES:
        return 50.0, float(np.median(arr))
    rank = n - 1 - TAIL_SAMPLES
    return 100.0 * (rank + 1) / n, float(arr[rank])
