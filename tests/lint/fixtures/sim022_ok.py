"""SIM022 negatives: the helper, flagged calls and look-alikes."""

import numpy as np

from repro.utils.stats import sorted_unique

__all__ = ["counts", "first_seen", "inverse", "rows", "values", "Table"]


def values(ids: np.ndarray) -> np.ndarray:
    return sorted_unique(ids)


def counts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(ids, return_counts=True)


def first_seen(ids: np.ndarray) -> np.ndarray:
    return np.unique(ids, True)[1]


def inverse(ids: np.ndarray) -> np.ndarray:
    return np.unique(ids, return_inverse=True)[1]


def rows(pairs: np.ndarray) -> np.ndarray:
    return np.unique(pairs, axis=0)


class Table:
    def unique(self, column: str) -> list[str]:  # a method, not numpy's
        return [column]

    def columns(self) -> list[str]:
        return self.unique("name")
