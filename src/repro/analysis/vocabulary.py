"""Vocabulary growth analysis (Heaps'-law behaviour of terms).

The authors' companion measurement work (paper refs [6], [16]) tracks
how the term population evolves: every crawl and every day of queries
keeps surfacing terms never seen before.  Heaps' law — distinct terms
``V(n) ≈ K·n^beta`` after ``n`` term occurrences, ``beta < 1`` — is
the standard model; sub-linear but *unbounded* growth is exactly why a
fixed global index keeps chasing the workload and why the paper
emphasizes temporal adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.stats import sorted_unique

__all__ = ["HeapsFit", "vocabulary_growth", "fit_heaps", "new_term_rate"]


def vocabulary_growth(
    term_stream: np.ndarray, *, n_points: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-term counts along a term-occurrence stream.

    Returns ``(n, V)``: at ``n[i]`` observed term occurrences,
    ``V[i]`` distinct terms had appeared.  ``n`` is log-spaced so the
    curve is equally informative at every decade.
    """
    term_stream = np.asarray(term_stream)
    if term_stream.size == 0:
        raise ValueError("empty term stream")
    if n_points < 2:
        raise ValueError("need at least two sample points")
    # First-occurrence mask via stable unique.
    _, first_idx = np.unique(term_stream, return_index=True)
    is_new = np.zeros(term_stream.size, dtype=np.int64)
    is_new[first_idx] = 1
    distinct = np.cumsum(is_new)
    n = sorted_unique(
        np.logspace(0, np.log10(term_stream.size), n_points).astype(np.int64)
    )
    return n, distinct[n - 1]


@dataclass(frozen=True)
class HeapsFit:
    """Least-squares fit of ``V(n) = K * n^beta`` in log space."""

    k: float
    beta: float
    r_squared: float

    def predict(self, n: np.ndarray | float) -> np.ndarray | float:
        """Predicted vocabulary size after ``n`` occurrences."""
        return self.k * np.asarray(n, dtype=np.float64) ** self.beta


def fit_heaps(n: np.ndarray, v: np.ndarray) -> HeapsFit:
    """Fit Heaps' law to a growth curve from :func:`vocabulary_growth`."""
    n = np.asarray(n, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if n.size < 3:
        raise ValueError("need at least three points to fit")
    if np.any(n <= 0) or np.any(v <= 0):
        raise ValueError("growth points must be positive")
    log_n, log_v = np.log(n), np.log(v)
    beta, log_k = np.polyfit(log_n, log_v, 1)
    resid = log_v - (log_k + beta * log_n)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((log_v - log_v.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return HeapsFit(k=float(np.exp(log_k)), beta=float(beta), r_squared=r2)


def new_term_rate(
    term_stream: np.ndarray, timestamps: np.ndarray, *, interval_s: float
) -> np.ndarray:
    """Never-seen-before terms per time interval.

    ``timestamps`` aligns with ``term_stream`` (one entry per term
    occurrence).  The returned series is what an index maintainer
    experiences: how many brand-new terms each interval brings.
    """
    term_stream = np.asarray(term_stream)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if term_stream.shape != timestamps.shape:
        raise ValueError("term stream and timestamps must be aligned")
    if interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if term_stream.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, first_idx = np.unique(term_stream, return_index=True)
    first_times = timestamps[first_idx]
    n_intervals = int(np.floor(timestamps.max() / interval_s)) + 1
    bins = np.minimum((first_times / interval_s).astype(np.int64), n_intervals - 1)
    return np.bincount(bins, minlength=n_intervals)
