"""SIM022 true positives: bare np.unique inside the repro package.

The tests copy this file into a ``repro`` package: outside one the
rule stays silent.
"""

import numpy
import numpy as np
from numpy import unique

__all__ = ["dedup_pairs", "distinct_peers", "sorted_ids"]


def dedup_pairs(pairs: np.ndarray) -> np.ndarray:
    return np.unique(pairs)


def distinct_peers(peers: np.ndarray) -> int:
    return int(numpy.unique(peers).size)


def sorted_ids(ids: np.ndarray) -> np.ndarray:
    # An explicit False flag is still the hash path.
    return unique(ids, return_counts=False)
