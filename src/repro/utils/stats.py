"""Small statistical helpers shared by the analysis and core layers."""

from __future__ import annotations

import numpy as np

__all__ = [
    "ccdf",
    "encode_pairs",
    "fraction_at_most",
    "fraction_at_least",
    "gini",
    "bincount_counts",
    "lorenz_curve",
    "ragged_arange",
    "sorted_unique",
]


def encode_pairs(
    major: np.ndarray, minor: np.ndarray, n_minor: int, *, what: str = "pairs"
) -> np.ndarray:
    """Checked ``major * n_minor + minor`` pair encoding, always int64.

    The overlay and tracegen layers dedupe ``(a, b)`` pairs by packing
    them into one integer and calling :func:`sorted_unique`.  Done
    naively on narrowed int32 inputs the multiply wraps silently; done
    on int64 it still overflows once ``max(major) * n_minor`` crosses
    2**63 (a 10M-peer x 10M-term index gets there).  This helper casts
    to int64 first and verifies the largest encodable pair fits, raising
    ``OverflowError`` with the offending sizes instead of corrupting
    the dedup.
    """
    if n_minor <= 0:
        raise ValueError(f"n_minor must be positive, got {n_minor}")
    major = np.asarray(major)
    minor = np.asarray(minor)
    if major.size == 0:
        return np.empty(0, dtype=np.int64)
    top = int(major.max())
    limit = np.iinfo(np.int64).max
    if top > (limit - (n_minor - 1)) // n_minor:
        raise OverflowError(
            f"cannot encode {what}: major id {top} with minor range {n_minor} "
            f"exceeds int64 ({top} * {n_minor} + {n_minor - 1} > {limit}); "
            "dedupe in smaller blocks or use a structured sort"
        )
    return major.astype(np.int64) * np.int64(n_minor) + minor.astype(np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``values``, flattened: ``np.unique``.

    On numpy >= 2.3 a bare ``np.unique`` (no ``return_*`` flag) takes a
    hash path that is 25-70x slower on int64 than sorting and keeping
    each element that differs from its predecessor; this helper is that
    sort plus adjacent-difference mask.  For integer and bool input the
    result is bitwise-equal to ``np.unique(values)``, values and dtype.
    Other dtypes go to ``np.unique`` itself: its NaN folding is not a
    plain mask.
    """
    flat = np.asarray(values).ravel()
    if flat.dtype.kind not in "biu":
        return np.unique(flat)  # simlint: ignore[SIM022] float/str/object input keeps np.unique's NaN folding
    flat = np.sort(flat)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(l)`` for each ``l`` in ``lengths``.

    Zero-length segments are naturally skipped.  This is the workhorse
    for CSR gather operations throughout the analyses.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 0):
        raise ValueError("segment lengths must be non-negative")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def ccdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical complementary CDF of ``values``.

    Returns ``(x, p)`` where ``p[i] = P(V >= x[i])`` over the distinct
    sorted values — the standard presentation for heavy-tail plots.
    """
    values = np.asarray(values)
    if values.size == 0:
        return np.array([]), np.array([])
    x, counts = np.unique(values, return_counts=True)
    # P(V >= x) = 1 - P(V < x) = (total - cumulative strictly below) / total
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    p = (values.size - below) / values.size
    return x, p


def fraction_at_most(values: np.ndarray, threshold: float) -> float:
    """Fraction of entries with value <= ``threshold``."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("fraction of an empty sample is undefined")
    return float(np.count_nonzero(values <= threshold) / values.size)


def fraction_at_least(values: np.ndarray, threshold: float) -> float:
    """Fraction of entries with value >= ``threshold``."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("fraction of an empty sample is undefined")
    return float(np.count_nonzero(values >= threshold) / values.size)


def bincount_counts(ids: np.ndarray, minlength: int = 0) -> np.ndarray:
    """Occurrence count per id for a non-negative integer id array."""
    ids = np.asarray(ids)
    if ids.size and ids.min() < 0:
        raise ValueError("ids must be non-negative")
    return np.bincount(ids, minlength=minlength)


def lorenz_curve(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lorenz curve ``(population share, mass share)`` of ``values``."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        return np.array([0.0]), np.array([0.0])
    cum = np.cumsum(values)
    total = cum[-1]
    if total == 0:
        raise ValueError("Lorenz curve undefined for all-zero values")
    x = np.arange(1, values.size + 1) / values.size
    y = cum / total
    return np.concatenate(([0.0], x)), np.concatenate(([0.0], y))


def gini(values: np.ndarray) -> float:
    """Gini coefficient — a one-number skewness summary used in reports."""
    x, y = lorenz_curve(values)
    # Trapezoidal area under the Lorenz curve.
    area = np.trapezoid(y, x)
    return float(1.0 - 2.0 * area)
