"""Cruiser-style topology crawl (paper §II-A, ref [10]).

The paper's measurement pipeline starts by crawling the overlay: from
bootstrap peers, repeatedly ask discovered peers for their neighbor
lists.  Real crawls are lossy — peers are busy, firewalled, or gone —
so the crawl sees a *sampled* subgraph.  The simulation reproduces
that methodology over a synthetic topology, letting the test suite
quantify how crawl loss biases the downstream statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.topology import Topology
from repro.utils.rng import make_rng
from repro.utils.stats import sorted_unique

__all__ = ["TopologyCrawlResult", "crawl_topology"]


@dataclass(frozen=True)
class TopologyCrawlResult:
    """Outcome of a topology crawl."""

    discovered: np.ndarray  # peers whose existence the crawler learned
    responded: np.ndarray  # peers that answered the neighbor request
    n_requests: int

    @property
    def n_discovered(self) -> int:
        """Number of peers discovered."""
        return self.discovered.size

    @property
    def response_rate(self) -> float:
        """Fraction of contacted peers that answered."""
        return self.responded.size / max(1, self.n_requests)


def crawl_topology(
    topology: Topology,
    *,
    bootstrap: np.ndarray | list[int] | None = None,
    p_response: float = 0.85,
    seed: int | np.random.Generator = 0,
) -> TopologyCrawlResult:
    """BFS crawl with per-peer response failures.

    A peer that fails to respond is still *discovered* (its address
    appeared in someone's neighbor list) but contributes no edges —
    exactly Cruiser's behaviour with busy/firewalled peers.
    """
    if not 0.0 < p_response <= 1.0:
        raise ValueError("p_response must be in (0, 1]")
    rng = seed if isinstance(seed, np.random.Generator) else make_rng(seed)
    if bootstrap is None:
        bootstrap = [0]
    responds = rng.random(topology.n_nodes) < p_response

    discovered = np.zeros(topology.n_nodes, dtype=bool)
    contacted = np.zeros(topology.n_nodes, dtype=bool)
    frontier = sorted_unique(np.asarray(bootstrap, dtype=np.int64))
    discovered[frontier] = True
    n_requests = 0
    while frontier.size:
        to_contact = frontier[~contacted[frontier]]
        contacted[to_contact] = True
        n_requests += to_contact.size
        answering = to_contact[responds[to_contact]]
        new: list[np.ndarray] = []
        for v in answering:
            new.append(topology.neighbors_of(int(v)))
        if new:
            candidates = sorted_unique(np.concatenate(new))
            fresh = candidates[~discovered[candidates]]
            discovered[fresh] = True
            frontier = fresh
        else:
            frontier = np.empty(0, dtype=np.int64)
    return TopologyCrawlResult(
        discovered=np.flatnonzero(discovered),
        responded=np.flatnonzero(contacted & responds),
        n_requests=n_requests,
    )
