"""Semantic (interest) clustering of the overlay.

The related-work thread attached to the paper (Handurukande, Kermarrec,
Le Fessant & Massoulié — "Exploiting Semantic Clustering in the
eDonkey P2P Network") observed that peers with overlapping libraries
can serve each other's requests, and proposed linking semantically
similar peers.  This module reproduces the mechanism so the harness
can test it against the paper's findings:

* :func:`library_similarity` — pairwise peer similarity over shared
  *songs* (ground truth) or observed names;
* :func:`semantic_rewire` — replace part of each peer's random
  neighbors with its most similar peers;
* the X-CLUSTER bench then measures what clustering buys a
  neighborhood-limited search — and how the query/file mismatch caps
  that benefit: clustering helps you find what *similar peers* hold,
  which is only useful when queries target held content.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.topology import Topology, _edges_to_csr
from repro.tracegen.gnutella_trace import GnutellaShareTrace
from repro.utils.rng import make_rng
from repro.utils.stats import sorted_unique

__all__ = ["library_similarity_topk", "semantic_rewire", "neighborhood_hit_rate"]


def library_similarity_topk(
    trace: GnutellaShareTrace, k: int, *, max_library: int = 400
) -> np.ndarray:
    """For each peer, the ids of its ``k`` most library-similar peers.

    Similarity is the overlap count of ground-truth song sets (the
    quantity the eDonkey study measured from download traces).  Peers'
    libraries are truncated to ``max_library`` songs to bound the
    sparse similarity computation.

    Returns an ``(n_peers, k)`` int array (-1 padding where fewer than
    ``k`` peers share anything).
    """
    if k < 1:
        raise ValueError("k must be positive")
    n_peers = trace.n_peers
    # Sparse song->peers postings over (possibly truncated) libraries.
    peer_songs: list[np.ndarray] = []
    for p in range(n_peers):
        songs = sorted_unique(trace.peer_song_ids(p))
        if songs.size > max_library:
            songs = songs[:max_library]
        peer_songs.append(songs)
    song_ids = np.concatenate(peer_songs) if peer_songs else np.empty(0, np.int64)
    peer_ids = np.repeat(np.arange(n_peers), [s.size for s in peer_songs])
    order = np.argsort(song_ids, kind="stable")
    song_sorted = song_ids[order]
    peer_sorted = peer_ids[order]
    boundaries = np.flatnonzero(np.diff(song_sorted)) + 1
    groups = np.split(peer_sorted, boundaries)

    # Accumulate pairwise overlap counts sparsely.
    overlap: dict[tuple[int, int], int] = {}
    for group in groups:
        if group.size < 2 or group.size > 64:
            # Extremely popular songs say little about pairwise
            # similarity and would blow up quadratically; skip them,
            # as the eDonkey study's sampling effectively did.
            continue
        for i in range(group.size):
            for j in range(i + 1, group.size):
                a, b = int(group[i]), int(group[j])
                key = (a, b) if a < b else (b, a)
                overlap[key] = overlap.get(key, 0) + 1

    best: list[list[tuple[int, int]]] = [[] for _ in range(n_peers)]
    for (a, b), c in overlap.items():
        best[a].append((c, b))
        best[b].append((c, a))
    out = np.full((n_peers, k), -1, dtype=np.int64)
    for p in range(n_peers):
        ranked = sorted(best[p], key=lambda t: (-t[0], t[1]))[:k]
        for col, (_, q) in enumerate(ranked):
            out[p, col] = q
    return out


def semantic_rewire(
    topology: Topology,
    similar: np.ndarray,
    *,
    n_links: int = 3,
    seed: int | np.random.Generator = 0,
) -> Topology:
    """Add up to ``n_links`` semantic edges per peer to a topology.

    Keeps the random edges (connectivity insurance) and adds semantic
    shortcuts — the deployment mode the clustering literature
    recommends.
    """
    if n_links < 0:
        raise ValueError("n_links must be non-negative")
    if similar.shape[0] != topology.n_nodes:
        raise ValueError("similarity table must cover every node")
    edges = []
    for v in range(topology.n_nodes):
        for w in topology.neighbors_of(v):
            if v < int(w):
                edges.append((v, int(w)))
        for q in similar[v, :n_links]:
            if q >= 0 and q != v:
                edges.append((min(v, int(q)), max(v, int(q))))
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    offsets, neighbors = _edges_to_csr(topology.n_nodes, arr)
    return Topology(offsets, neighbors, topology.forwards.copy())


def neighborhood_hit_rate(
    topology: Topology,
    trace: GnutellaShareTrace,
    *,
    n_samples: int = 500,
    radius: int = 1,
    seed: int = 0,
) -> float:
    """P(a peer's next wanted song is held within its neighborhood).

    Samples (peer, song) demands — a peer "wants" a song drawn from
    catalog popularity that it does not already hold — and checks
    whether any neighbor within ``radius`` holds it.  This is the
    quantity semantic clustering improves, and the mechanism by which
    it would speed searches up.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if radius < 1:
        raise ValueError("radius must be positive")
    rng = make_rng(seed)
    catalog = trace.catalog
    hits = 0
    for _ in range(n_samples):
        peer = int(rng.integers(0, trace.n_peers))
        own = set(trace.peer_song_ids(peer).tolist())
        song = int(catalog.sample_songs(1, rng)[0])
        if song in own:
            hits += 1  # already local: trivially resolved
            continue
        frontier = {peer}
        seen = {peer}
        found = False
        for _ in range(radius):
            nxt: set[int] = set()
            for v in frontier:
                for w in topology.neighbors_of(v):
                    w = int(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
            for w in nxt:
                if song in set(trace.peer_song_ids(w).tolist()):
                    found = True
                    break
            if found:
                break
            frontier = nxt
        hits += found
    return hits / n_samples
