"""Synthetic temporal query workload.

Stands in for the paper's one-week Phex capture (~2.5M Gnutella
queries).  Three published properties drive the model (paper §IV):

1. **Persistent popularity** — the set of popular query terms is
   stable over time (consecutive-interval Jaccard > 90%).  We realize
   this with a *static* Zipf over a query vocabulary: per-interval
   popular sets then differ only by sampling noise.
2. **Transient popularity** — a low-mean, high-variance number of
   terms per interval deviate sharply from their historical rate.  We
   inject Poisson-arriving bursts: a normally-unpopular term receives a
   surge of queries for a short lifetime.
3. **Query/file mismatch** — popular query terms overlap popular file
   terms by well under 20%.  The query vocabulary is constructed so
   that only ``match_fraction`` of it comes from the popular file-term
   pool; the rest comes from the deep tail of the file vocabulary
   (terms that exist on few or no peers).

The trace exposes term *strings* (lexicon words), so downstream
analyses compare query terms and file-annotation terms in the same
space — exactly what the paper's Jaccard computations do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tracegen.catalog import MusicCatalog
from repro.tracegen.gnutella_trace import GnutellaShareTrace
from repro.utils.rng import derive
from repro.utils.stats import encode_pairs, ragged_arange, sorted_unique
from repro.utils.zipf import ZipfDistribution

__all__ = [
    "QueryWorkloadConfig",
    "QueryWorkload",
    "BurstEvent",
    "file_term_peer_counts",
]


def file_term_peer_counts(trace: GnutellaShareTrace) -> np.ndarray:
    """Distinct-peer count per lexicon term id, from ground-truth songs.

    For every lexicon word, the number of peers holding at least one
    song whose canonical name contains the word.  This is the
    ground-truth ranking the query-vocabulary construction mixes
    against (the *observed*-name tokenization in
    :mod:`repro.analysis.tokenize` is the noisy measurement of it).
    """
    catalog = trace.catalog
    uniq_songs, inverse = np.unique(trace.song_ids, return_inverse=True)
    song_terms = [catalog.song_term_ids(int(s)) for s in uniq_songs]
    lengths = np.fromiter((t.size for t in song_terms), dtype=np.int64, count=len(song_terms))
    flat_terms = np.concatenate(song_terms) if song_terms else np.empty(0, dtype=np.int64)
    # Expand to per-instance (term, peer) pairs.
    inst_lengths = lengths[inverse]
    offsets = np.zeros(len(song_terms) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # Gather indices: for each instance, the slice of its song's terms.
    starts = offsets[inverse]
    gather = np.repeat(starts, inst_lengths) + ragged_arange(inst_lengths)
    terms = flat_terms[gather]
    del gather
    peers = np.repeat(trace.peer_of_instance, inst_lengths)
    codes = encode_pairs(terms, peers, trace.n_peers, what="term/peer pairs")
    del terms, peers  # keep the peak to one pair array plus its sort
    pairs = sorted_unique(codes)
    del codes
    n_terms = catalog.config.lexicon_size
    return np.bincount((pairs // trace.n_peers).astype(np.int64), minlength=n_terms)


@dataclass(frozen=True)
class BurstEvent:
    """Ground truth for one injected transient-popularity burst."""

    vocab_rank: int
    start_s: float
    end_s: float
    n_queries: int


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Scale and temporal-structure knobs for the query trace."""

    duration_s: float = 7 * 86_400.0
    n_queries: int = 200_000
    vocab_size: int = 4_000
    query_exponent: float = 1.1
    #: fraction of the query vocabulary drawn from the popular file-term
    #: pool; calibrated so the per-interval query/file Jaccard stays
    #: below 0.20 with an overall level around 0.12-0.15 (paper Fig. 7).
    match_fraction: float = 0.25
    #: size of the "popular file term" pool the matching slice draws from.
    popular_file_pool: int = 2_000
    min_terms: int = 1
    max_terms: int = 4
    #: diurnal modulation depth in [0, 1); 0 disables it.
    diurnal_depth: float = 0.3
    burst_rate_per_day: float = 6.0
    burst_lifetime_s: float = 3 * 3600.0
    burst_volume_mean: float = 0.002  # fraction of n_queries per burst
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.n_queries < 0:
            raise ValueError("n_queries must be non-negative")
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")
        if not 0.0 <= self.match_fraction <= 1.0:
            raise ValueError("match_fraction must be a probability")
        if not 1 <= self.min_terms <= self.max_terms:
            raise ValueError("invalid terms-per-query range")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must be in [0, 1)")


class QueryWorkload:
    """A timestamped stream of term-set queries.

    Attributes
    ----------
    timestamps:
        ``float64 (n,)`` seconds from trace start, sorted ascending.
    term_offsets / term_ids:
        CSR layout of per-query *vocabulary ranks* (0 = most popular
        query term).
    vocab_words:
        string per vocabulary rank — the shared-lexicon word.
    vocab_lexicon_ids:
        lexicon word id per vocabulary rank (MISSING-free).
    is_burst:
        bool per query: injected by a transient burst.
    bursts:
        the ground-truth :class:`BurstEvent` list.
    """

    def __init__(
        self,
        catalog: MusicCatalog,
        file_term_counts: np.ndarray,
        config: QueryWorkloadConfig | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or QueryWorkloadConfig()
        cfg = self.config
        if file_term_counts.shape[0] != catalog.config.lexicon_size:
            raise ValueError("file_term_counts must cover the whole lexicon")

        rng_vocab = derive(cfg.seed, "queries", "vocab")
        rng_base = derive(cfg.seed, "queries", "base")
        rng_burst = derive(cfg.seed, "queries", "bursts")

        self.vocab_lexicon_ids = self._build_vocab(file_term_counts, rng_vocab)
        self.vocab_words = [
            catalog.lexicon.word(int(i)) for i in self.vocab_lexicon_ids
        ]

        base_ts, base_terms_off, base_terms = self._base_queries(rng_base)
        burst_ts, burst_off, burst_terms, bursts, = self._burst_queries(rng_burst)
        self.bursts = bursts

        # Merge the two streams, sorted by time.
        ts = np.concatenate([base_ts, burst_ts])
        is_burst = np.concatenate(
            [np.zeros(base_ts.size, dtype=bool), np.ones(burst_ts.size, dtype=bool)]
        )
        lengths = np.concatenate([np.diff(base_terms_off), np.diff(burst_off)])
        flat = np.concatenate([base_terms, burst_terms])
        order = np.argsort(ts, kind="stable")
        self.timestamps = ts[order]
        self.is_burst = is_burst[order]
        new_lengths = lengths[order]
        self.term_offsets = np.zeros(ts.size + 1, dtype=np.int64)
        np.cumsum(new_lengths, out=self.term_offsets[1:])
        # Reorder the ragged payload.
        old_offsets = np.zeros(ts.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=old_offsets[1:])
        gather = np.repeat(old_offsets[order], new_lengths) + ragged_arange(new_lengths)
        self.term_ids = flat[gather]

    # -- construction helpers ---------------------------------------------

    def _build_vocab(
        self, file_term_counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Assign a lexicon word to every query-vocabulary rank.

        Rank ``r`` draws from the popular-file pool with probability
        ``match_fraction``, otherwise from the file-term deep tail.
        Matching slots are *rank-aligned*: the most popular matching
        query terms map to the most popular file terms, so a top-k
        slice of the query vocabulary overlaps the top-k file terms by
        roughly ``match_fraction`` of its members — reproducing the
        paper's Fig. 7 similarity level rather than a degenerate zero.
        """
        cfg = self.config
        order = np.argsort(file_term_counts)[::-1].astype(np.int64)
        pool_size = min(cfg.popular_file_pool, order.size)
        popular_pool = order[:pool_size]
        tail_pool = order[pool_size:]
        if tail_pool.size < cfg.vocab_size:
            raise ValueError(
                "lexicon too small: need a file-term tail of at least "
                f"{cfg.vocab_size} words, have {tail_pool.size}"
            )
        take_popular = rng.random(cfg.vocab_size) < cfg.match_fraction
        pop_slots = np.flatnonzero(take_popular)
        n_pop = min(pop_slots.size, pool_size)
        pop_slots = pop_slots[:n_pop]
        # Rank-aligned pairing: the i-th matching slot (by query rank)
        # receives the i-th smallest of a uniform without-replacement
        # draw of file ranks, preserving head-to-head alignment.
        file_ranks = np.sort(rng.choice(pool_size, size=n_pop, replace=False))
        vocab = np.empty(cfg.vocab_size, dtype=np.int64)
        mask = np.zeros(cfg.vocab_size, dtype=bool)
        mask[pop_slots] = True
        vocab[pop_slots] = popular_pool[file_ranks]
        n_tail = cfg.vocab_size - n_pop
        vocab[~mask] = rng.choice(tail_pool, size=n_tail, replace=False)
        return vocab

    def _sample_timestamps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Arrival times with optional diurnal rate modulation."""
        cfg = self.config
        if n == 0 or not cfg.diurnal_depth:
            return rng.random(n) * cfg.duration_s
        # Inverse-CDF over minute bins of rate 1 + depth*sin(2*pi*t/day).
        minutes = np.arange(0, cfg.duration_s, 60.0)
        rate = 1.0 + cfg.diurnal_depth * np.sin(2 * np.pi * minutes / 86_400.0)
        cdf = np.cumsum(rate)
        cdf /= cdf[-1]
        u = rng.random(n)
        bins = np.searchsorted(cdf, u)
        jitter = rng.random(n) * 60.0
        return np.minimum(minutes[bins] + jitter, cfg.duration_s * (1 - 1e-12))

    def _base_queries(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        ts = self._sample_timestamps(cfg.n_queries, rng)
        n_terms = rng.integers(cfg.min_terms, cfg.max_terms + 1, size=cfg.n_queries)
        offsets = np.zeros(cfg.n_queries + 1, dtype=np.int64)
        np.cumsum(n_terms, out=offsets[1:])
        dist = ZipfDistribution(cfg.vocab_size, cfg.query_exponent)
        terms = dist.sample(int(offsets[-1]), rng)
        return ts, offsets, terms

    def _burst_queries(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[BurstEvent]]:
        cfg = self.config
        days = cfg.duration_s / 86_400.0
        n_bursts = int(rng.poisson(cfg.burst_rate_per_day * days))
        ts_parts: list[np.ndarray] = []
        term_parts: list[np.ndarray] = []
        events: list[BurstEvent] = []
        for _ in range(n_bursts):
            start = float(rng.random() * cfg.duration_s)
            lifetime = float(rng.exponential(cfg.burst_lifetime_s))
            end = min(start + lifetime, cfg.duration_s)
            if end <= start:
                continue
            # Burst terms come from the vocabulary mid/tail: normally
            # unpopular, hence a strong deviation from history.
            rank = int(rng.integers(cfg.vocab_size // 4, cfg.vocab_size))
            volume = max(1, int(rng.poisson(cfg.burst_volume_mean * cfg.n_queries)))
            ts_parts.append(start + rng.random(volume) * (end - start))
            term_parts.append(np.full(volume, rank, dtype=np.int64))
            events.append(BurstEvent(rank, start, end, volume))
        if ts_parts:
            ts = np.concatenate(ts_parts)
            terms = np.concatenate(term_parts)
        else:
            ts = np.empty(0, dtype=np.float64)
            terms = np.empty(0, dtype=np.int64)
        offsets = np.arange(ts.size + 1, dtype=np.int64)  # one term per burst query
        return ts, offsets, terms, events

    # -- accessors --------------------------------------------------------

    @property
    def n_queries(self) -> int:
        """Total number of queries (base + burst)."""
        return self.timestamps.size

    def query_terms(self, i: int) -> np.ndarray:
        """Vocabulary ranks of query ``i``."""
        return self.term_ids[self.term_offsets[i] : self.term_offsets[i + 1]]

    def query_words(self, i: int) -> list[str]:
        """Term strings of query ``i``."""
        return [self.vocab_words[int(r)] for r in self.query_terms(i)]

    def term_string(self, rank: int) -> str:
        """Word for a vocabulary rank."""
        return self.vocab_words[rank]

    def query_string(self, i: int) -> str:
        """The wire-format query string ("term1 term2 ..."), as a
        Gnutella Query descriptor would carry it.  Round-trips through
        :func:`repro.analysis.tokenize.tokenize_name`."""
        return " ".join(self.query_words(i))
