"""Kademlia-style XOR-metric structured overlay (third DHT comparator).

Kademlia routes by XOR distance: each node keeps one contact per
shared-prefix length ("k-buckets" with k = 1 at simulation grade), and
a lookup repeatedly queries the closest known node, halving the XOR
distance each step — O(log2 N) hops, like Chord, but with symmetric
distance and iterative (querier-driven) routing, which is what modern
deployments (Kad, BitTorrent DHT) actually run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.hashing import RING_BITS, RING_SIZE, hash_key
from repro.utils.rng import make_rng
from repro.utils.stats import sorted_unique

__all__ = ["KademliaLookup", "KademliaNetwork"]


@dataclass(frozen=True)
class KademliaLookup:
    """One iterative Kademlia lookup."""

    key: int
    owner: int
    hops: int
    path: tuple[int, ...]


class KademliaNetwork:
    """A static Kademlia network with one contact per bucket.

    Node indexes are ``0..n-1`` in increasing id order.  Bucket ``b``
    of a node holds a contact whose id differs from the node's first at
    bit ``b`` (counting from the most significant bit); the contact is
    the bucket's numerically smallest member, a deterministic stand-in
    for "some node in that subtree".
    """

    def __init__(self, n_nodes: int, seed: int = 0) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        rng = make_rng(seed)
        ids = sorted_unique(rng.integers(0, RING_SIZE, size=n_nodes, dtype=np.uint64))
        while ids.size < n_nodes:  # pragma: no cover - ~2^-45
            extra = rng.integers(0, RING_SIZE, size=n_nodes - ids.size, dtype=np.uint64)
            ids = sorted_unique(np.concatenate([ids, extra]))
        self.node_ids = np.sort(ids)
        self.n_nodes = n_nodes
        # Bucket representatives shared across nodes: for every prefix
        # (length b) value, the first node carrying it.  A node's bucket
        # b contact is the representative of (its own b-bit prefix with
        # the last bit flipped).
        self._prefix_rep: list[dict[int, int]] = []
        for b in range(1, RING_BITS + 1):
            shift = np.uint64(RING_BITS - b)
            prefixes = (self.node_ids >> shift).astype(np.int64)
            uniq, first = np.unique(prefixes, return_index=True)
            self._prefix_rep.append(dict(zip(uniq.tolist(), first.tolist())))

    def owner_of(self, key: str | int) -> int:
        """Index of the XOR-closest node to ``key``."""
        k = hash_key(key) if isinstance(key, str) else int(key)
        k %= RING_SIZE
        # XOR distance is minimized within the longest-shared-prefix
        # subtree; scan candidate subtrees from the deepest up.
        best = None
        best_dist = None
        for b in range(RING_BITS, 0, -1):
            prefix = k >> (RING_BITS - b)
            idx = self._prefix_rep[b - 1].get(prefix)
            if idx is None:
                continue
            # All nodes sharing this b-bit prefix are candidates; they
            # are contiguous in sorted order.
            lo = int(np.searchsorted(self.node_ids, np.uint64(prefix << (RING_BITS - b))))
            hi = int(
                np.searchsorted(
                    self.node_ids,
                    np.uint64(((prefix + 1) << (RING_BITS - b)) - 1),
                    side="right",
                )
            )
            for i in range(lo, hi):
                d = int(self.node_ids[i]) ^ k
                if best_dist is None or d < best_dist:
                    best_dist = d
                    best = i
            if best is not None:
                return best
        return 0  # pragma: no cover - some prefix always matches at b=1

    def _closest_contact(self, cur: int, key: int) -> int | None:
        """The contact of ``cur`` that is XOR-closer to ``key``."""
        cur_id = int(self.node_ids[cur])
        x = cur_id ^ key
        if x == 0:
            return None
        # The differing bit position determines the bucket to consult.
        b = RING_BITS - x.bit_length() + 1  # 1-based prefix length of disagreement
        target_prefix = key >> (RING_BITS - b)
        contact = self._prefix_rep[b - 1].get(target_prefix)
        return contact

    def lookup(self, key: str | int, start: int) -> KademliaLookup:
        """Iterative lookup; each hop enters the key's next subtree."""
        if not 0 <= start < self.n_nodes:
            raise ValueError(f"start index out of range: {start}")
        k = (hash_key(key) if isinstance(key, str) else int(key)) % RING_SIZE
        owner = self.owner_of(k)
        cur = start
        path = [cur]
        hops = 0
        max_hops = RING_BITS + 2
        while cur != owner:
            nxt = self._closest_contact(cur, k)
            if nxt is None or nxt == cur:
                nxt = owner  # subtree exhausted: final direct contact
            cur = nxt
            hops += 1
            path.append(cur)
            if hops > max_hops:  # pragma: no cover - routing invariant
                raise RuntimeError("Kademlia routing failed to converge")
        return KademliaLookup(key=k, owner=owner, hops=hops, path=tuple(path))

    def mean_lookup_hops(self, n_samples: int = 200, seed: int = 0) -> float:
        """Monte-Carlo mean hop count for uniform keys and sources."""
        rng = make_rng(seed)
        keys = rng.integers(0, RING_SIZE, size=n_samples, dtype=np.uint64)
        starts = rng.integers(0, self.n_nodes, size=n_samples)
        return (
            sum(self.lookup(int(k), int(s)).hops for k, s in zip(keys, starts))
            / n_samples
        )
