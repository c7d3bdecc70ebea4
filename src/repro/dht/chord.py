"""Chord-style structured overlay (Stoica et al.), simulation-grade.

Implements the pieces the hybrid-vs-DHT comparison needs: a stable
ring of node ids, per-node finger tables, and greedy finger routing
with exact hop accounting.  Lookups are O(log N) hops; the test suite
checks routing correctness against the linear-scan successor and the
hop bound.

The ring is static (no churn/stabilization protocol): the paper's
argument is about *search cost*, not maintenance, and a static ring is
the comparator that maximally favors the hybrid — if the hybrid loses
here, churn only makes it worse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.hashing import RING_BITS, RING_SIZE, hash_key
from repro.utils.rng import make_rng
from repro.utils.stats import sorted_unique

__all__ = ["LookupResult", "ChordRing"]


@dataclass(frozen=True)
class LookupResult:
    """One routed lookup."""

    key: int
    owner: int  # node *index* responsible for the key
    hops: int
    path: tuple[int, ...]


class ChordRing:
    """A Chord ring of ``n_nodes`` with full finger tables.

    Node *indexes* are ``0..n-1`` in increasing ring-id order; external
    callers address nodes by index and the ring handles id mapping.
    """

    def __init__(self, n_nodes: int, seed: int = 0) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        rng = make_rng(seed)
        ids = sorted_unique(rng.integers(0, RING_SIZE, size=n_nodes, dtype=np.uint64))
        while ids.size < n_nodes:  # pragma: no cover - collisions are ~2^-45
            extra = rng.integers(0, RING_SIZE, size=n_nodes - ids.size, dtype=np.uint64)
            ids = sorted_unique(np.concatenate([ids, extra]))
        self.node_ids = np.sort(ids)
        self.n_nodes = n_nodes
        self._fingers = self._build_fingers()

    def _build_fingers(self) -> np.ndarray:
        """Finger table: fingers[i, j] = successor(node_i + 2^j), as index."""
        n = self.n_nodes
        ids = self.node_ids
        fingers = np.empty((n, RING_BITS), dtype=np.int64)
        for j in range(RING_BITS):
            # Vectorized over nodes for each finger level.
            targets = (ids + np.uint64(1 << j))  # wraps mod 2^64 natively
            idx = np.searchsorted(ids, targets, side="left")
            fingers[:, j] = np.where(idx == n, 0, idx)
        return fingers

    # -- ownership ---------------------------------------------------------

    def successor_index(self, key: int) -> int:
        """Index of the node responsible for ``key`` (its successor)."""
        idx = int(np.searchsorted(self.node_ids, np.uint64(key % RING_SIZE), side="left"))
        return 0 if idx == self.n_nodes else idx

    def owner_of(self, key: str | int) -> int:
        """Node index owning a string or integer key."""
        k = hash_key(key) if isinstance(key, str) else int(key)
        return self.successor_index(k)

    # -- routing -----------------------------------------------------------

    def _in_interval(self, x: int, a: int, b: int) -> bool:
        """Is ``x`` in the clockwise-open interval (a, b]?"""
        if a < b:
            return a < x <= b
        return x > a or x <= b

    def lookup(self, key: str | int, start: int) -> LookupResult:
        """Route ``key`` from node index ``start``; count hops.

        Greedy Chord routing: forward to the closest-preceding finger
        of the key until the current node's successor owns it.
        """
        if not 0 <= start < self.n_nodes:
            raise ValueError(f"start index out of range: {start}")
        k = (hash_key(key) if isinstance(key, str) else int(key)) % RING_SIZE
        owner = self.successor_index(k)
        path = [start]
        cur = start
        hops = 0
        ids = self.node_ids
        max_hops = 2 * RING_BITS + self.n_nodes  # safety net
        while cur != owner:
            succ = (cur + 1) % self.n_nodes
            if self._in_interval(k, int(ids[cur]), int(ids[succ])):
                cur = succ
            else:
                cur = self._closest_preceding(cur, k)
            hops += 1
            path.append(cur)
            if hops > max_hops:  # pragma: no cover - routing invariant
                raise RuntimeError("Chord routing failed to converge")
        return LookupResult(key=k, owner=owner, hops=hops, path=tuple(path))

    def _closest_preceding(self, cur: int, key: int) -> int:
        """Highest finger of ``cur`` strictly inside (cur, key)."""
        cur_id = int(self.node_ids[cur])
        for j in range(RING_BITS - 1, -1, -1):
            f = int(self._fingers[cur, j])
            if f == cur:
                continue
            f_id = int(self.node_ids[f])
            if self._in_interval(f_id, cur_id, key) and f_id != key:
                return f
        return (cur + 1) % self.n_nodes

    def mean_lookup_hops(
        self, n_samples: int = 200, seed: int = 0
    ) -> float:
        """Monte-Carlo mean hop count for uniform keys and sources."""
        rng = make_rng(seed)
        keys = rng.integers(0, RING_SIZE, size=n_samples, dtype=np.uint64)
        starts = rng.integers(0, self.n_nodes, size=n_samples)
        total = 0
        for k, s in zip(keys, starts):
            total += self.lookup(int(k), int(s)).hops
        return total / n_samples
