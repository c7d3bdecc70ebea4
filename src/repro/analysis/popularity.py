"""Popularity counting for objects, annotations and terms.

Everything here reduces to one primitive: given per-instance value ids
and per-instance holder (peer/user) ids, count for each distinct value
how many *distinct holders* have it — the "number of clients with
object" quantity plotted in the paper's Figs. 1-4.
"""

from __future__ import annotations

import numpy as np

from repro.utils.stats import sorted_unique

__all__ = [
    "clients_per_value",
    "occurrences_per_value",
    "top_k_set",
    "popular_by_threshold",
]


def clients_per_value(
    values: np.ndarray, holders: np.ndarray, *, n_values: int | None = None
) -> np.ndarray:
    """Distinct-holder count per value id.

    ``values`` and ``holders`` are aligned per-instance arrays of
    non-negative ids (filter out sentinel values before calling).
    Returns ``counts`` with ``counts[v]`` = number of distinct holders
    with at least one instance of value ``v``.
    """
    values = np.asarray(values, dtype=np.int64)
    holders = np.asarray(holders, dtype=np.int64)
    if values.shape != holders.shape:
        raise ValueError("values and holders must be aligned")
    if values.size == 0:
        return np.zeros(n_values or 0, dtype=np.int64)
    if values.min() < 0 or holders.min() < 0:
        raise ValueError("ids must be non-negative")
    n_holders = int(holders.max()) + 1
    if n_values is None:
        n_values = int(values.max()) + 1
    pairs = sorted_unique(values * n_holders + holders)
    return np.bincount((pairs // n_holders).astype(np.int64), minlength=n_values)


def occurrences_per_value(
    values: np.ndarray, *, n_values: int | None = None
) -> np.ndarray:
    """Raw occurrence count per value id (with multiplicity)."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("ids must be non-negative")
    return np.bincount(values, minlength=n_values or 0)


def top_k_set(counts: np.ndarray, k: int) -> set[int]:
    """Ids of the ``k`` highest-count values (ties broken by id).

    Zero-count ids are never considered popular, so the result may be
    smaller than ``k``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counts = np.asarray(counts)
    if k == 0 or counts.size == 0:
        return set()
    k = min(k, counts.size)
    # argsort on (count desc, id asc) via lexsort for determinism.
    order = np.lexsort((np.arange(counts.size), -counts))
    top = order[:k]
    return {int(i) for i in top if counts[i] > 0}


def popular_by_threshold(counts: np.ndarray, threshold: float) -> set[int]:
    """Ids whose count is at least ``threshold``."""
    counts = np.asarray(counts)
    return {int(i) for i in np.flatnonzero(counts >= threshold)}
