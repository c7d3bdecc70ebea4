"""Synthetic Gnutella file-crawl trace.

Stands in for the paper's April-2007 crawl (37,572 peers, ~12M shared
objects, 8.1M unique names).  The generative model:

1. every peer draws a library size from a heavy-tailed (lognormal)
   distribution — a few peers share thousands of files, many share few;
2. each library slot draws a *song* from the catalog's Zipf popularity;
3. each instance renders an *observed file name* via a per-song
   Chinese-restaurant process over name variants: the canonical
   ``"Artist - Title.mp3"`` spelling is the first (weighted) table,
   new tables are perturbed variants from the name-noise channel
   (:func:`repro.utils.text.mangle_name`), and existing variants are
   reused proportionally to their counts — modeling how a misspelled
   name *propagates* when peers download the file from each other;
4. a small fraction of instances carry generic rip names
   ("04 Track.wma"), which collide across *different* songs — the
   paper's "0 Track.wma appeared in 2,168 peers" observation.

The paper's replica analysis (Figs. 1–3) counts, for each distinct
name string, how many *clients* hold it; the variant process is what
drives observed uniqueness above the underlying song uniqueness,
reproducing the ~70% singleton mass and the weak effect of
sanitization (most variants differ at the term level, not in case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tracegen.catalog import MusicCatalog
from repro.utils.dtypes import INDEX_DTYPE
from repro.utils.rng import derive
from repro.utils.stats import encode_pairs, sorted_unique
from repro.utils.text import NameNoiseModel, StringInterner, mangle_name

__all__ = ["GnutellaTraceConfig", "GnutellaShareTrace"]

#: Variant slots per song in the streamed (block-draw) name channel;
#: slot 0 is the canonical spelling, slots 1+ are mangled variants.
_VARIANT_SLOTS = 64


def _generic_pool() -> list[str]:
    """The deterministic generic rip-name pool ("04 Track.wma", ...)."""
    return [
        f"{i:02d} Track.{ext}"
        for i in range(1, 17)
        for ext in ("wma", "mp3")
    ] + ["Intro.mp3", "Untitled.mp3", "New Song.mp3", "AudioTrack 01.mp3"]


@dataclass(frozen=True)
class GnutellaTraceConfig:
    """Scale and noise knobs for the synthetic crawl.

    ``variant_alpha`` and ``canonical_weight`` parameterize the
    per-song variant CRP: a song instance starts a brand-new spelling
    with probability ``alpha / (canonical_weight + n + alpha)`` (where
    ``n`` is how many instances of the song were already rendered) and
    otherwise reuses an existing spelling proportionally to its
    propagation count, with the canonical spelling carrying
    ``canonical_weight`` pseudo-counts.
    """

    n_peers: int = 1_000
    mean_library_size: float = 120.0
    library_sigma: float = 1.2
    #: fraction of peers sharing nothing (free riders).  The deployed
    #: network had ~25%; the calibrated defaults fold free riding into
    #: the lognormal's low tail, so this stays 0 unless explicitly
    #: modeling the free-rider population.
    p_freerider: float = 0.0
    noise: NameNoiseModel = field(default_factory=NameNoiseModel)
    variant_alpha: float = 4.0
    canonical_weight: float = 2.0
    #: within the reuse branch, probability of picking a uniformly
    #: random existing spelling instead of count-weighted — models a
    #: downloader grabbing whichever single copy a search returned,
    #: which is what turns one-off misspellings into 2-peer names.
    p_flat_reuse: float = 0.7
    #: probability an instance carries a generic rip name instead.
    p_generic: float = 0.01
    #: peers per streamed RNG block.  ``None`` (default) draws the
    #: whole trace from two sequential streams; an integer switches to
    #: per-block derived streams (``derive(seed, "gnutella-stream/...",
    #: b)``) plus a per-(song, variant) name channel, so million-peer
    #: traces generate block-by-block without a full-size draw.  Like
    #: ``edge_block`` for topologies, block mode yields a *different*
    #: deterministic trace, so the knob is part of the config digest.
    peer_block: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_peers <= 0:
            raise ValueError(f"n_peers must be positive, got {self.n_peers}")
        if self.mean_library_size <= 0:
            raise ValueError("mean_library_size must be positive")
        if self.variant_alpha < 0:
            raise ValueError("variant_alpha must be non-negative")
        if self.canonical_weight <= 0:
            raise ValueError("canonical_weight must be positive")
        if not 0.0 <= self.p_flat_reuse <= 1.0:
            raise ValueError("p_flat_reuse must be a probability")
        if not 0.0 <= self.p_freerider <= 1.0:
            raise ValueError("p_freerider must be a probability")
        if not 0.0 <= self.p_generic <= 1.0:
            raise ValueError("p_generic must be a probability")
        if self.peer_block is not None and self.peer_block <= 0:
            raise ValueError(f"peer_block must be positive, got {self.peer_block}")


class GnutellaShareTrace:
    """Peer -> shared-file-name assignment, flat CSR layout.

    Attributes
    ----------
    peer_offsets:
        ``int64 (n_peers+1,)`` — instance slice of peer ``p`` is
        ``[peer_offsets[p], peer_offsets[p+1])``.
    song_ids:
        ground-truth song id per instance (hidden from the analyses,
        used by tests and the oracle success metrics).
    name_ids:
        interned observed-name id per instance.
    names:
        the :class:`StringInterner` mapping name ids to strings.
    """

    def __init__(
        self, catalog: MusicCatalog, config: GnutellaTraceConfig | None = None
    ) -> None:
        self.catalog = catalog
        self.config = config or GnutellaTraceConfig()
        cfg = self.config
        limit = int(np.iinfo(INDEX_DTYPE).max)
        if cfg.n_peers - 1 > limit:
            raise OverflowError(
                f"{cfg.n_peers} peers exceeds the index dtype "
                f"{INDEX_DTYPE.name} (max id {limit}); widen INDEX_DTYPE"
            )

        self.names = StringInterner()
        if cfg.peer_block is None:
            rng_lib = derive(cfg.seed, "gnutella", "libraries")
            rng_names = derive(cfg.seed, "gnutella", "names")

            # --- library sizes -------------------------------------------
            sigma = cfg.library_sigma
            mu = np.log(cfg.mean_library_size) - 0.5 * sigma * sigma
            sizes = np.floor(
                rng_lib.lognormal(mu, sigma, size=cfg.n_peers)
            ).astype(np.int64)
            if cfg.p_freerider > 0.0:
                sizes[rng_lib.random(cfg.n_peers) < cfg.p_freerider] = 0
            self.peer_offsets = np.zeros(cfg.n_peers + 1, dtype=np.int64)
            np.cumsum(sizes, out=self.peer_offsets[1:])
            n_instances = int(self.peer_offsets[-1])
            self._check_instance_width()

            # --- song draws ----------------------------------------------
            song_ids = catalog.sample_songs(n_instances, rng_lib)

            # --- observed names ------------------------------------------
            self.song_ids = song_ids.astype(INDEX_DTYPE, copy=False)
            name_ids = self._render_names(rng_names)
        else:
            self.peer_offsets = self._streamed_offsets(cfg.peer_block)
            self._check_instance_width()
            song_ids, name_ids = self._render_streamed(cfg.peer_block)
            self.song_ids = song_ids.astype(INDEX_DTYPE, copy=False)
        self.name_ids = name_ids
        self.peer_of_instance = np.repeat(
            np.arange(cfg.n_peers, dtype=INDEX_DTYPE), np.diff(self.peer_offsets)
        )

    def _check_instance_width(self) -> None:
        """Raise before any id array can silently wrap in INDEX_DTYPE.

        Runs right after the library-size draw — song sampling and
        name rendering index with ``INDEX_DTYPE`` values, so the
        instance count must fit before either starts.
        """
        n_instances = int(self.peer_offsets[-1])
        limit = int(np.iinfo(INDEX_DTYPE).max)
        if n_instances - 1 > limit:
            raise OverflowError(
                f"{n_instances} shared instances exceed the index dtype "
                f"{INDEX_DTYPE.name} (max id {limit}); widen INDEX_DTYPE"
            )

    def _streamed_offsets(self, block: int) -> np.ndarray:
        """Library-size CSR offsets drawn in per-block derived streams."""
        cfg = self.config
        sigma = cfg.library_sigma
        mu = np.log(cfg.mean_library_size) - 0.5 * sigma * sigma
        offsets = np.zeros(cfg.n_peers + 1, dtype=np.int64)
        for b, lo in enumerate(range(0, cfg.n_peers, block)):
            hi = min(lo + block, cfg.n_peers)
            rng = derive(cfg.seed, "gnutella-stream/libraries", b)
            sizes = np.floor(
                rng.lognormal(mu, sigma, size=hi - lo)
            ).astype(np.int64)
            if cfg.p_freerider > 0.0:
                sizes[rng.random(hi - lo) < cfg.p_freerider] = 0
            offsets[lo + 1 : hi + 1] = sizes
        np.cumsum(offsets[1:], out=offsets[1:])
        return offsets

    def _variant_name_id(
        self,
        song: int,
        slot: int,
        featuring_pool: list[str],
        subtitle_pool: list[str],
    ) -> int:
        """Interned name id of one ``(song, variant-slot)`` channel cell.

        Slot 0 is the canonical spelling; every other slot renders a
        mangled variant from its own ``derive``-keyed stream, so the
        name attached to a cell is a pure function of ``(seed, song,
        slot)`` no matter which block first draws it.
        """
        canonical = self.catalog.canonical_name(song)
        if slot == 0:
            return self.names.intern(canonical)
        rng = derive(self.config.seed, "gnutella-stream/variant", song, slot)
        return self.names.intern(
            mangle_name(
                canonical,
                rng,
                noise=self.config.noise,
                featuring_pool=featuring_pool,
                subtitle_pool=subtitle_pool,
            )
        )

    def _render_streamed(self, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Song and name draws in per-block derived streams.

        The sequential path's per-song CRP needs global seating state;
        the streamed channel replaces it with an exchangeable
        approximation: each instance picks a brand-new-spelling branch
        with the CRP's stationary probability ``alpha / (alpha +
        canonical_weight + 1)`` and lands in a geometric variant slot,
        so popular slots still dominate while every block draws
        independently.  Fixed draw order per block: songs, generic
        mask, branch uniforms, geometric slots, generic name picks.
        """
        cfg = self.config
        catalog = self.catalog
        rng_pools = derive(cfg.seed, "gnutella-stream/pools")
        featuring_pool = [
            catalog.artist_name(int(a))
            for a in rng_pools.integers(0, catalog.config.n_artists, size=64)
        ]
        subtitle_pool = [
            catalog.lexicon.join(
                rng_pools.integers(
                    0, catalog.config.lexicon_size, size=rng_pools.integers(1, 3)
                )
            )
            for _ in range(64)
        ]
        generic_pool = _generic_pool()
        n_instances = int(self.peer_offsets[-1])
        name_ids = np.empty(n_instances, dtype=INDEX_DTYPE)
        song_parts: list[np.ndarray] = []
        variant_of: dict[int, int] = {}
        p_new = cfg.variant_alpha / (cfg.variant_alpha + cfg.canonical_weight + 1.0)
        p_geom = 1.0 / (1.0 + cfg.variant_alpha)
        pos = 0
        for b, lo in enumerate(range(0, cfg.n_peers, block)):
            hi = min(lo + block, cfg.n_peers)
            count = int(self.peer_offsets[hi] - self.peer_offsets[lo])
            rng = derive(cfg.seed, "gnutella-stream/draws", b)
            songs = catalog.sample_songs(count, rng)
            generic = rng.random(count) < cfg.p_generic
            u = rng.random(count)
            tail = rng.geometric(p_geom, size=count)
            generic_pick = rng.integers(0, len(generic_pool), size=count)
            slots = np.where(
                u < p_new, 1 + np.minimum(tail - 1, _VARIANT_SLOTS - 2), 0
            )
            cells = encode_pairs(
                songs, slots, _VARIANT_SLOTS, what="song/variant cells"
            )
            block_names = np.empty(count, dtype=INDEX_DTYPE)
            for i in range(count):
                if generic[i]:
                    block_names[i] = self.names.intern(
                        generic_pool[int(generic_pick[i])]
                    )
                    continue
                cell = int(cells[i])
                vid = variant_of.get(cell)
                if vid is None:
                    vid = self._variant_name_id(
                        cell // _VARIANT_SLOTS,
                        cell % _VARIANT_SLOTS,
                        featuring_pool,
                        subtitle_pool,
                    )
                    variant_of[cell] = vid
                block_names[i] = vid
            song_parts.append(songs.astype(INDEX_DTYPE, copy=False))
            name_ids[pos : pos + count] = block_names
            pos += count
        songs_all = (
            np.concatenate(song_parts)
            if song_parts
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        return songs_all, name_ids

    def _render_names(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        catalog = self.catalog
        featuring_pool = [
            catalog.artist_name(int(a))
            for a in rng.integers(0, catalog.config.n_artists, size=64)
        ]
        subtitle_pool = [
            catalog.lexicon.join(
                rng.integers(0, catalog.config.lexicon_size, size=rng.integers(1, 3))
            )
            for _ in range(64)
        ]
        generic_pool = _generic_pool()

        n = self.song_ids.size
        name_ids = np.full(n, -1, dtype=INDEX_DTYPE)
        intern = self.names.intern

        generic = rng.random(n) < cfg.p_generic
        for i in np.flatnonzero(generic):
            name_ids[i] = intern(generic_pool[rng.integers(0, len(generic_pool))])

        # Per-song CRP over name variants.  Instances are processed
        # grouped by song; within a song the seating order is the
        # (random) instance order, which is exchangeable anyway.
        order = np.argsort(self.song_ids[~generic], kind="stable")
        idx = np.flatnonzero(~generic)[order]
        songs_sorted = self.song_ids[idx]
        boundaries = np.flatnonzero(np.diff(songs_sorted)) + 1
        groups = np.split(np.arange(idx.size), boundaries)
        alpha = cfg.variant_alpha
        w0 = cfg.canonical_weight
        for group in groups:
            if group.size == 0:
                continue
            song = int(songs_sorted[group[0]])
            canonical = catalog.canonical_name(song)
            variant_ids = [intern(canonical)]
            weights = [w0]
            total = w0
            u = rng.random(group.size)
            for j, g in enumerate(group):
                if u[j] * (total + alpha) >= total:
                    # New spelling.
                    variant = mangle_name(
                        canonical,
                        rng,
                        noise=cfg.noise,
                        featuring_pool=featuring_pool,
                        subtitle_pool=subtitle_pool,
                    )
                    vid = intern(variant)
                    variant_ids.append(vid)
                    weights.append(1.0)
                    total += 1.0
                    name_ids[idx[g]] = vid
                elif rng.random() < cfg.p_flat_reuse:
                    # Flat reuse: any existing spelling, equally likely.
                    k = int(rng.integers(0, len(variant_ids)))
                    weights[k] += 1.0
                    total += 1.0
                    name_ids[idx[g]] = variant_ids[k]
                else:
                    # Reuse an existing spelling ∝ propagation count.
                    r = u[j] * (total + alpha)  # uniform in [0, total)
                    acc = 0.0
                    for k, w in enumerate(weights):
                        acc += w
                        if r < acc:
                            weights[k] += 1.0
                            total += 1.0
                            name_ids[idx[g]] = variant_ids[k]
                            break
        return name_ids

    # -- accessors --------------------------------------------------------

    @property
    def n_peers(self) -> int:
        """Number of peers in the trace."""
        return self.config.n_peers

    @property
    def n_instances(self) -> int:
        """Total shared-object instances across all peers."""
        return int(self.peer_offsets[-1])

    @property
    def n_unique_names(self) -> int:
        """Number of distinct *observed* name strings.

        May be smaller than ``len(self.names)``: a song's canonical
        spelling is interned when its variant process is seeded even if
        no instance ends up using it.
        """
        return int(sorted_unique(self.name_ids).size)

    def peer_instance_slice(self, peer: int) -> slice:
        """Instance index slice for one peer."""
        return slice(int(self.peer_offsets[peer]), int(self.peer_offsets[peer + 1]))

    def peer_name_ids(self, peer: int) -> np.ndarray:
        """Observed name ids shared by ``peer``."""
        return self.name_ids[self.peer_instance_slice(peer)]

    def peer_song_ids(self, peer: int) -> np.ndarray:
        """Ground-truth song ids shared by ``peer``."""
        return self.song_ids[self.peer_instance_slice(peer)]

    def replica_counts(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Clients-per-object counts — the paper's Fig. 1 quantity.

        For each distinct id (default: observed name ids), the number
        of *distinct peers* holding at least one instance.  Pass
        ``ids=self.song_ids`` for ground-truth song replication.
        """
        if ids is None:
            ids = self.name_ids
        if ids.shape != self.peer_of_instance.shape:
            raise ValueError("ids must be a per-instance array")
        n_ids = int(ids.max()) + 1 if ids.size else 0
        uniq = sorted_unique(
            encode_pairs(
                ids, self.peer_of_instance, self.config.n_peers,
                what="object/peer pairs",
            )
        )
        return np.bincount(uniq // self.config.n_peers, minlength=n_ids)

    def unique_names(self) -> list[str]:
        """All distinct observed names in id order."""
        return self.names.strings()
