"""Synthetic iTunes (DAAP) share trace.

Stands in for the paper's campus trace (239 reachable users, 533,768
objects, 171,068 unique).  iTunes annotations are *structured* — song
name, artist, album, genre come from Gracenote or the iTunes store —
so unlike Gnutella there is no free-text noise channel; instead the
paper's per-field statistics are driven by:

* which songs each user holds (Zipf popularity, bigger libraries than
  Gnutella peers);
* missing values (8.7% of songs genre-less, 8.1% album-less);
* user-edited genres (users "were allowed to create their own genres
  easily"), which fattens the genre tail to ~1,452 labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tracegen.catalog import MusicCatalog
from repro.utils.rng import derive
from repro.utils.stats import sorted_unique

__all__ = ["ITunesTraceConfig", "ITunesShareTrace", "MISSING"]

#: Sentinel id for a missing annotation value.
MISSING = -1


@dataclass(frozen=True)
class ITunesTraceConfig:
    """Scale and annotation-noise knobs for the synthetic DAAP trace."""

    n_users: int = 239
    mean_library_size: float = 800.0
    library_sigma: float = 0.9
    p_missing_genre: float = 0.087
    p_missing_album: float = 0.081
    #: probability a user re-labels a song's genre with a personal label.
    p_custom_genre: float = 0.04
    #: how many personal genre labels each editing user coins.
    custom_genres_per_user: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        if self.mean_library_size <= 0:
            raise ValueError("mean_library_size must be positive")
        for name in ("p_missing_genre", "p_missing_album", "p_custom_genre"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


class ITunesShareTrace:
    """User -> annotated-song assignment, flat CSR layout.

    Per-instance annotation arrays mirror what AppleRecords logged:
    ``song_ids`` (track identity), ``genre_ids``, ``album_ids``,
    ``artist_ids``; a value of :data:`MISSING` means the field was
    empty.  ``genre_labels`` maps genre ids (canonical + user-coined)
    to strings.
    """

    def __init__(
        self, catalog: MusicCatalog, config: ITunesTraceConfig | None = None
    ) -> None:
        self.catalog = catalog
        self.config = config or ITunesTraceConfig()
        cfg = self.config

        rng_lib = derive(cfg.seed, "itunes", "libraries")
        rng_annot = derive(cfg.seed, "itunes", "annotations")

        sigma = cfg.library_sigma
        mu = np.log(cfg.mean_library_size) - 0.5 * sigma * sigma
        sizes = np.maximum(
            1, np.floor(rng_lib.lognormal(mu, sigma, size=cfg.n_users)).astype(np.int64)
        )
        self.user_offsets = np.zeros(cfg.n_users + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.user_offsets[1:])
        n_instances = int(self.user_offsets[-1])

        self.song_ids = catalog.sample_songs(n_instances, rng_lib)
        self.user_of_instance = np.repeat(
            np.arange(cfg.n_users, dtype=np.int64), np.diff(self.user_offsets)
        )

        # Artist and album derive from the catalog (Gracenote-style).
        self.artist_ids = catalog.song_artist[self.song_ids].astype(np.int64)
        self.album_ids = catalog.song_album[self.song_ids].astype(np.int64)
        self.genre_ids = catalog.song_genre[self.song_ids].astype(np.int64)

        # Missing annotations.
        self.album_ids[rng_annot.random(n_instances) < cfg.p_missing_album] = MISSING
        missing_genre = rng_annot.random(n_instances) < cfg.p_missing_genre

        # User-coined genre labels: each editing user owns a small pool
        # of personal labels applied to a random slice of their songs.
        n_base = len(catalog.genre_names)
        self.genre_labels = list(catalog.genre_names)
        custom = rng_annot.random(n_instances) < cfg.p_custom_genre
        custom &= ~missing_genre
        if custom.any():
            users = self.user_of_instance[custom]
            local = rng_annot.integers(0, cfg.custom_genres_per_user, size=users.size)
            # Dense id per (user, local-label); labels created lazily below.
            coined = n_base + users * cfg.custom_genres_per_user + local
            self.genre_ids[custom] = coined
            n_custom = cfg.n_users * cfg.custom_genres_per_user
            words = catalog.lexicon
            label_words = rng_annot.integers(0, len(words), size=n_custom)
            self.genre_labels += [
                words.word(int(w)).title() + " Mix" for w in label_words
            ]
        self.genre_ids[missing_genre] = MISSING

    # -- accessors --------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users whose shares were collected."""
        return self.config.n_users

    @property
    def n_instances(self) -> int:
        """Total shared objects across all users."""
        return int(self.user_offsets[-1])

    def user_instance_slice(self, user: int) -> slice:
        """Instance index slice for one user."""
        return slice(int(self.user_offsets[user]), int(self.user_offsets[user + 1]))

    def clients_per_value(self, values: np.ndarray) -> np.ndarray:
        """Distinct-user count per annotation value (Fig. 4 quantity).

        ``values`` is any per-instance annotation array; entries equal
        to :data:`MISSING` are excluded.  Returns counts indexed by
        value id.
        """
        if values.shape != self.user_of_instance.shape:
            raise ValueError("values must be a per-instance array")
        mask = values != MISSING
        vals = values[mask].astype(np.int64)
        users = self.user_of_instance[mask]
        n_vals = int(vals.max()) + 1 if vals.size else 0
        pairs = vals * self.config.n_users + users
        uniq = sorted_unique(pairs)
        return np.bincount((uniq // self.config.n_users).astype(np.int64), minlength=n_vals)

    def missing_fraction(self, values: np.ndarray) -> float:
        """Fraction of instances with a missing annotation value."""
        if values.size == 0:
            raise ValueError("empty annotation array")
        return float(np.count_nonzero(values == MISSING) / values.size)
