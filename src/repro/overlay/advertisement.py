"""ASAP-style advertisement-based search (paper §VI, ref [21]).

Cai, Gu & Wang's ASAP inverts the search direction: instead of
queries chasing content, content *advertises itself* — each provider
pushes a compact summary of (some of) its terms to a random set of
peers, and a query first consults the local advertisement store,
yielding one-hop resolution when an ad matches.

Like QRP and the synopsis system, an ad is capacity-limited, so the
*selection policy* decides its worth — and the paper's mismatch
applies with full force: advertising the terms that are popular among
files fills stores with summaries nobody queries.  The X-ASAP bench
measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.content import SharedContentIndex
from repro.tracegen.query_trace import QueryWorkload
from repro.utils.rng import derive
from repro.utils.stats import sorted_unique

__all__ = ["AdvertisementConfig", "AdStore", "AdReport", "simulate_advertisement"]


@dataclass(frozen=True)
class AdvertisementConfig:
    """Advertisement-system parameters."""

    #: terms each provider may include in its advertisement.
    ad_capacity: int = 16
    #: peers each provider pushes its ad to.
    fanout: int = 20
    #: ad-selection policy: "content" (file-popular terms) or "query"
    #: (historically query-popular terms).
    policy: str = "query"
    #: fraction of the trace (by time) used for the historical scores.
    train_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.ad_capacity < 1:
            raise ValueError("ad_capacity must be positive")
        if self.fanout < 1:
            raise ValueError("fanout must be positive")
        if self.policy not in ("content", "query"):
            raise ValueError(f"unknown policy: {self.policy!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


class AdStore:
    """The network's advertisement state.

    ``store[v]`` maps advertised term ids to the providers that pushed
    an ad containing the term to peer ``v``.
    """

    def __init__(self, n_peers: int) -> None:
        self.n_peers = n_peers
        self.store: list[dict[int, set[int]]] = [dict() for _ in range(n_peers)]
        self.ads_pushed = 0

    def push(self, provider: int, terms: np.ndarray, targets: np.ndarray) -> None:
        """Deliver one provider's ad to its target peers."""
        for t in targets:
            entry = self.store[int(t)]
            for term in terms:
                entry.setdefault(int(term), set()).add(provider)
        self.ads_pushed += int(targets.size)

    def local_providers(self, peer: int, term_ids: np.ndarray) -> set[int]:
        """Providers whose ads at ``peer`` cover *all* query terms."""
        entry = self.store[peer]
        out: set[int] | None = None
        for term in term_ids:
            providers = entry.get(int(term))
            if not providers:
                return set()
            out = providers.copy() if out is None else (out & providers)
            if not out:
                return set()
        return out or set()


@dataclass(frozen=True)
class AdReport:
    """Outcome of an advertisement-search replay."""

    policy: str
    #: fraction of resolvable queries answered from the local ad store.
    local_hit_rate: float
    #: fraction of local hits that were true (provider really matches).
    precision: float
    ads_pushed: int
    n_queries: int


def simulate_advertisement(
    workload: QueryWorkload,
    content: SharedContentIndex,
    config: AdvertisementConfig | None = None,
    *,
    max_queries: int = 3_000,
    seed: int = 0,
) -> AdReport:
    """Build the ad stores, then replay queries against them.

    A query is a *local hit* when the requester's own ad store names a
    provider for all its terms; precision checks the provider actually
    holds a matching file (ads summarize term sets, so cross-file term
    combinations can produce false providers — the same false-positive
    mode QRP has).
    """
    cfg = config or AdvertisementConfig()
    rng = derive(seed, "asap")
    n_peers = content.n_peers
    n_terms = content.term_index.n_terms

    # Selection scores.
    if cfg.policy == "content":
        scores = content.term_peer_counts().astype(np.float64)
    else:
        cutoff = cfg.train_fraction * workload.config.duration_s
        n_train = int(np.searchsorted(workload.timestamps, cutoff))
        vocab_content = np.asarray(
            [
                content.term_id(w) if content.term_id(w) is not None else -1
                for w in workload.vocab_words
            ],
            dtype=np.int64,
        )
        train = vocab_content[workload.term_ids[: workload.term_offsets[n_train]]]
        scores = np.bincount(train[train >= 0], minlength=n_terms).astype(np.float64)

    # Providers advertise their top-capacity terms by score.
    store = AdStore(n_peers)
    terms_flat = content._posting_terms
    peers_flat = content.instance_peer[content._posting_instances]
    pairs = sorted_unique(peers_flat.astype(np.int64) * n_terms + terms_flat)
    peer_of = pairs // n_terms
    term_of = pairs % n_terms
    boundaries = np.searchsorted(peer_of, np.arange(n_peers + 1))
    for p in range(n_peers):
        terms = term_of[boundaries[p] : boundaries[p + 1]]
        if terms.size == 0:
            continue
        if terms.size > cfg.ad_capacity:
            order = np.argsort(scores[terms], kind="stable")[::-1]
            terms = terms[order[: cfg.ad_capacity]]
        targets = rng.choice(n_peers, size=min(cfg.fanout, n_peers), replace=False)
        store.push(p, terms, targets)

    # Replay evaluation queries from the post-training stream.
    cutoff = cfg.train_fraction * workload.config.duration_s
    n_train = int(np.searchsorted(workload.timestamps, cutoff))
    pool = np.arange(n_train, workload.n_queries)
    picks = pool[np.linspace(0, pool.size - 1, min(max_queries, pool.size)).astype(int)]
    requesters = rng.integers(0, n_peers, size=picks.size)

    hits = 0
    true_hits = 0
    evaluated = 0
    for qi, requester in zip(picks, requesters):
        words = workload.query_words(int(qi))
        matching = content.matching_peers(words)
        if matching.size == 0:
            continue  # unresolvable anywhere: ads can't be blamed
        evaluated += 1
        ids = [content.term_id(w) for w in words]
        if any(i is None for i in ids):
            continue
        providers = store.local_providers(int(requester), np.asarray(ids))
        if providers:
            hits += 1
            if providers & set(int(p) for p in matching):
                true_hits += 1
    return AdReport(
        policy=cfg.policy,
        local_hit_rate=hits / max(1, evaluated),
        precision=true_hits / max(1, hits),
        ads_pushed=store.ads_pushed,
        n_queries=evaluated,
    )
