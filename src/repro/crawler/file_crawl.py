"""File crawl: collect shared-file lists from discovered peers.

Phase two of the paper's Gnutella measurement: connect to every peer
the topology crawl discovered and request its shared-file list (the
Gnutella ``Browse Host`` style exchange).  Peers fail to answer with
some probability, so the collected trace is a peer-sampled view of the
true shares — the analyses then run on exactly what a real crawler
would have gotten.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tracegen.gnutella_trace import GnutellaShareTrace
from repro.utils.rng import make_rng
from repro.utils.stats import encode_pairs, sorted_unique

__all__ = ["FileCrawlResult", "crawl_files"]


@dataclass(frozen=True)
class FileCrawlResult:
    """The crawled (peer-sampled) share trace.

    ``name_ids``/``peer_of_instance`` use the same id spaces as the
    source trace, so every analysis in :mod:`repro.analysis` applies
    unchanged.
    """

    source: GnutellaShareTrace
    crawled_peers: np.ndarray
    name_ids: np.ndarray
    peer_of_instance: np.ndarray

    @property
    def n_instances(self) -> int:
        """Instances collected."""
        return self.name_ids.size

    @property
    def n_unique_names(self) -> int:
        """Distinct names observed in the crawl."""
        return int(sorted_unique(self.name_ids).size)

    def replica_counts(self) -> np.ndarray:
        """Clients-per-name counts over the crawled subset."""
        n_peers = self.source.n_peers
        pairs = sorted_unique(
            encode_pairs(
                self.name_ids, self.peer_of_instance, n_peers,
                what="name/peer pairs",
            )
        )
        return np.bincount(
            (pairs // n_peers).astype(np.int64), minlength=len(self.source.names)
        )


def crawl_files(
    trace: GnutellaShareTrace,
    peers: np.ndarray | list[int],
    *,
    p_response: float = 0.9,
    seed: int | np.random.Generator = 0,
) -> FileCrawlResult:
    """Request file lists from ``peers``; some won't answer."""
    if not 0.0 < p_response <= 1.0:
        raise ValueError("p_response must be in (0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    peers = sorted_unique(np.asarray(peers, dtype=np.int64))
    answered = peers[rng.random(peers.size) < p_response]
    mask = np.zeros(trace.n_peers, dtype=bool)
    mask[answered] = True
    take = mask[trace.peer_of_instance]
    return FileCrawlResult(
        source=trace,
        crawled_peers=answered,
        name_ids=trace.name_ids[take],
        peer_of_instance=trace.peer_of_instance[take],
    )
