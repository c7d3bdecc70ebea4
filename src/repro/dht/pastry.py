"""Pastry-style prefix-routing structured overlay (paper ref [1]).

A second structured comparator next to Chord: Pastry routes by
matching successively longer digit prefixes (base ``2^b``, here b = 4,
so hex digits over 64-bit ids), reaching the numerically closest node
in O(log_16 N) hops.  Simulation-grade like :mod:`repro.dht.chord`:
static ring, full routing state, exact hop accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.hashing import RING_BITS, RING_SIZE, hash_key
from repro.utils.rng import make_rng
from repro.utils.stats import sorted_unique

__all__ = ["PastryLookup", "PastryNetwork", "DIGIT_BITS", "N_DIGITS"]

DIGIT_BITS = 4
N_DIGITS = RING_BITS // DIGIT_BITS  # 16 hex digits


def _digit(value: np.ndarray | int, position: int) -> np.ndarray | int:
    """Hex digit of a 64-bit id at ``position`` (0 = most significant)."""
    shift = RING_BITS - DIGIT_BITS * (position + 1)
    return (value >> np.uint64(shift)) & np.uint64(0xF) if isinstance(
        value, np.ndarray
    ) else (int(value) >> shift) & 0xF


def _prefix(value: int, length: int) -> int:
    """The first ``length`` digits of a 64-bit id, as an integer."""
    if length == 0:
        return 0
    return int(value) >> (RING_BITS - DIGIT_BITS * length)


@dataclass(frozen=True)
class PastryLookup:
    """One routed Pastry lookup."""

    key: int
    owner: int
    hops: int
    path: tuple[int, ...]


class PastryNetwork:
    """A static Pastry network with per-node routing tables.

    Node indexes are ``0..n-1`` in increasing id order.  The routing
    table entry for (node, row r, column c) is a node whose id shares
    the first ``r`` digits with the node and has digit ``c`` at
    position ``r`` — one representative per populated prefix bucket.
    The "leaf set" is approximated by numerically-adjacent neighbors,
    which is what the final routing step needs.
    """

    def __init__(self, n_nodes: int, seed: int = 0) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        rng = make_rng(seed)
        ids = sorted_unique(rng.integers(0, RING_SIZE, size=n_nodes, dtype=np.uint64))
        while ids.size < n_nodes:  # pragma: no cover - ~2^-45 collisions
            extra = rng.integers(0, RING_SIZE, size=n_nodes - ids.size, dtype=np.uint64)
            ids = sorted_unique(np.concatenate([ids, extra]))
        self.node_ids = np.sort(ids)
        self.n_nodes = n_nodes
        # Bucket representatives: for each row r, map (r+1)-digit prefix
        # value -> a node index having that prefix.  Routing then only
        # needs dictionary lookups.
        self._buckets: list[dict[int, int]] = []
        for r in range(N_DIGITS):
            shift = np.uint64(RING_BITS - DIGIT_BITS * (r + 1))
            prefixes = (self.node_ids >> shift).astype(np.int64)
            bucket: dict[int, int] = {}
            uniq, first = np.unique(prefixes, return_index=True)
            for value, idx in zip(uniq.tolist(), first.tolist()):
                bucket[value] = idx
            self._buckets.append(bucket)

    # -- ownership ---------------------------------------------------------

    def owner_of(self, key: str | int) -> int:
        """Index of the numerically closest node (Pastry semantics)."""
        k = hash_key(key) if isinstance(key, str) else int(key)
        k %= RING_SIZE
        idx = int(np.searchsorted(self.node_ids, np.uint64(k)))
        candidates = []
        if idx < self.n_nodes:
            candidates.append(idx)
        if idx > 0:
            candidates.append(idx - 1)
        # Wrap-around neighbors for keys beyond either end.
        candidates.extend([0, self.n_nodes - 1])
        best = min(
            set(candidates),
            key=lambda i: min(
                (k - int(self.node_ids[i])) % RING_SIZE,
                (int(self.node_ids[i]) - k) % RING_SIZE,
            ),
        )
        return best

    def _shared_digits(self, a: int, b: int) -> int:
        """Number of leading digits ids ``a`` and ``b`` share."""
        x = a ^ b
        if x == 0:
            return N_DIGITS
        return (RING_BITS - x.bit_length()) // DIGIT_BITS

    def _distance(self, a: int, b: int) -> int:
        return min((a - b) % RING_SIZE, (b - a) % RING_SIZE)

    def lookup(self, key: str | int, start: int) -> PastryLookup:
        """Route ``key`` from node index ``start``.

        Prefix routing with numeric-closeness fallback: at each step,
        jump to a node sharing a strictly longer prefix with the key if
        the routing table has one; otherwise move to the numerically
        closest known node (leaf-set step).  Terminates at the owner.
        """
        if not 0 <= start < self.n_nodes:
            raise ValueError(f"start index out of range: {start}")
        k = (hash_key(key) if isinstance(key, str) else int(key)) % RING_SIZE
        owner = self.owner_of(k)
        owner_id = int(self.node_ids[owner])
        cur = start
        path = [cur]
        hops = 0
        max_hops = N_DIGITS + self.n_nodes  # safety net
        while cur != owner:
            cur_id = int(self.node_ids[cur])
            shared = self._shared_digits(cur_id, k)
            nxt = None
            if shared < N_DIGITS:
                want = _prefix(k, shared + 1)
                candidate = self._buckets[shared].get(want)
                if candidate is not None and candidate != cur:
                    nxt = candidate
            if nxt is None:
                # Leaf-set step: move strictly closer numerically.
                idx = int(np.searchsorted(self.node_ids, np.uint64(k)))
                neighbors = {owner, idx % self.n_nodes, (idx - 1) % self.n_nodes}
                neighbors.discard(cur)
                nxt = min(
                    neighbors, key=lambda i: self._distance(int(self.node_ids[i]), k)
                )
                if self._distance(int(self.node_ids[nxt]), k) >= self._distance(
                    cur_id, k
                ) and nxt != owner:
                    nxt = owner
            cur = nxt
            hops += 1
            path.append(cur)
            if hops > max_hops:  # pragma: no cover - routing invariant
                raise RuntimeError("Pastry routing failed to converge")
        return PastryLookup(key=k, owner=owner, hops=hops, path=tuple(path))

    def mean_lookup_hops(self, n_samples: int = 200, seed: int = 0) -> float:
        """Monte-Carlo mean hops for uniform keys and sources."""
        rng = make_rng(seed)
        keys = rng.integers(0, RING_SIZE, size=n_samples, dtype=np.uint64)
        starts = rng.integers(0, self.n_nodes, size=n_samples)
        return (
            sum(self.lookup(int(k), int(s)).hops for k, s in zip(keys, starts))
            / n_samples
        )
