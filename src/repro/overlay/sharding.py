"""Sharded CSR topology: node-range partitions of the flood graph.

A million-node CSR no longer fits one comfortable shared-memory
segment, and a single process's BFS gather becomes the wall-clock
floor.  This module partitions a :class:`~repro.overlay.topology.Topology`
into contiguous node ranges — each shard owns the CSR rows of its
range (local offsets, global neighbor ids) — and expands the flood BFS
*per shard*: every level, the sorted sender frontier is cut at the
shard bounds (:func:`split_senders`) and each shard gathers the
targets of the senders it owns (:func:`expand_shard`).

The decomposition is exact, not approximate.  Every flood runs the
one level loop :func:`~repro.overlay.flooding._bfs_levels`, which
takes a level's gathered targets, drops visited nodes, dedups them
through a scratch mask and reads the new frontier off with
``flatnonzero`` — sorted, whatever order the targets came in.  The
in-process exchange (:func:`expand_step`) concatenates the shards'
gathers in shard order, which *is* the single-segment gather because
shards are contiguous ranges of a sorted frontier; the pool exchange
hands back per-shard deduplicated targets, which mark the same mask.
Message accounting sums each shard's gathered-target count, which
partitions the single-segment count exactly.  Depth maps and message
counts are therefore bitwise identical at every shard count,
including ``n_shards=1``.

Only lossless floods run sharded (the deterministic fast path every
cache and batch consumer uses); ``p_loss`` floods stay on
:func:`~repro.overlay.flooding.flood_depths`.

The flood driver (in-process, or a persistent pool expanding shards
concurrently with the shards published to shared memory) lives in
:mod:`repro.runtime.shards`; this module is pure numpy so the overlay
layer never imports the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.overlay.flooding import Expand, _csr_gather
from repro.overlay.topology import INDEX_DTYPE, Topology, shard_bounds

__all__ = [
    "ShardSet",
    "TopologyShard",
    "expand_shard",
    "expand_step",
    "partition_topology",
    "split_senders",
]


@dataclass(frozen=True)
class TopologyShard:
    """CSR rows of one contiguous node range ``[lo, hi)``.

    ``offsets`` is re-based so ``offsets[0] == 0`` (entry counts stay
    within :data:`~repro.overlay.topology.INDEX_DTYPE` per shard even
    when the *global* entry count would not); ``neighbors`` keeps
    global node ids, so expansion needs no id translation.
    """

    lo: int
    hi: int
    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def n_local(self) -> int:
        """Number of nodes this shard owns."""
        return self.hi - self.lo

    @property
    def n_entries(self) -> int:
        """Directed CSR entries stored in this shard."""
        return self.neighbors.size


@dataclass(frozen=True)
class ShardSet:
    """A topology partitioned into contiguous node-range shards.

    ``bounds[s]:bounds[s+1]`` is shard ``s``'s node range.  ``forwards``
    stays global (1 B/node) because the coordinator filters senders
    before the exchange — workers never consult it.
    ``boundary_counts[s, t]`` counts the directed CSR entries whose
    source lies in shard ``s`` and target in shard ``t``: the
    boundary-edge index bounding how much frontier a shard can ever
    push into another, used to size/validate exchanges and to report
    the cut structure.
    """

    bounds: np.ndarray
    forwards: np.ndarray
    shards: tuple[TopologyShard, ...]
    boundary_counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Total node count across shards."""
        return int(self.bounds[-1])

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n_boundary_entries(self) -> int:
        """Directed CSR entries crossing a shard boundary."""
        total = int(self.boundary_counts.sum())
        local = int(np.trace(self.boundary_counts))
        return total - local

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        """Owning shard index of each node id."""
        return np.searchsorted(self.bounds, nodes, side="right") - 1


def partition_topology(topology: Topology, n_shards: int) -> ShardSet:
    """Split a topology into ``n_shards`` contiguous node-range shards.

    Each shard's arrays are plain slices of the CSR (re-based offsets),
    so reassembling the shards in order reproduces the input arrays
    exactly.  Per-shard entry counts are guarded against
    :data:`~repro.overlay.topology.INDEX_DTYPE` overflow — the shard
    layout is precisely what lets a future global entry count exceed
    the 32-bit ceiling, so the invariant moves to the shard level.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    n = topology.n_nodes
    bounds = shard_bounds(n, n_shards)
    limit = int(np.iinfo(INDEX_DTYPE).max)
    shards: list[TopologyShard] = []
    n_effective = bounds.size - 1
    boundary = np.zeros((n_effective, n_effective), dtype=np.int64)
    for s in range(n_effective):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        start, stop = int(topology.offsets[lo]), int(topology.offsets[hi])
        if stop - start > limit:
            raise OverflowError(
                f"shard {s} (nodes [{lo}, {hi})) holds {stop - start} CSR "
                f"entries, exceeding the index dtype {INDEX_DTYPE.name} "
                f"(max {limit}); use more shards or widen INDEX_DTYPE"
            )
        offsets = (topology.offsets[lo : hi + 1] - start).astype(INDEX_DTYPE)
        neighbors = topology.neighbors[start:stop]
        shards.append(
            TopologyShard(lo=lo, hi=hi, offsets=offsets, neighbors=neighbors)
        )
        boundary[s] = np.bincount(
            np.searchsorted(bounds, neighbors, side="right") - 1,
            minlength=n_effective,
        )
    return ShardSet(
        bounds=bounds,
        forwards=topology.forwards,
        shards=tuple(shards),
        boundary_counts=boundary,
    )


def expand_shard(shard: TopologyShard, senders: np.ndarray) -> np.ndarray:
    """One shard's level expansion: the CSR gather of its senders.

    ``senders`` are global node ids within ``[lo, hi)`` (sorted — they
    come from a flatnonzero frontier).  Returns the gathered targets
    (global ids) in sender order, duplicates included: their count is
    the shard's share of the level's message cost.
    """
    return _csr_gather(shard.offsets, shard.neighbors, senders - shard.lo)


def split_senders(shard_set: ShardSet, senders: np.ndarray) -> list[np.ndarray]:
    """Cut a sorted sender frontier into per-shard runs, in shard order."""
    cuts = np.searchsorted(senders, shard_set.bounds)
    return [senders[cuts[s] : cuts[s + 1]] for s in range(shard_set.n_shards)]


def _serial_expand(
    shards: tuple[TopologyShard, ...], parts: Sequence[np.ndarray]
) -> tuple[np.ndarray, int]:
    """In-process exchange: every non-empty shard's gather, in shard order.

    Shards are contiguous node ranges and ``parts`` are sorted runs, so
    the concatenation is exactly the single-segment gather of the
    whole frontier — the lossless BFS core sees the same targets.
    """
    targets = np.concatenate(
        [
            expand_shard(shard, senders)
            for shard, senders in zip(shards, parts)
            if senders.size
        ]
    )
    return targets, targets.size


def expand_step(shard_set: ShardSet) -> Expand:
    """The in-process expand step of a sharded flood.

    ``_serial_expand`` is looked up at call time, so a wrapper
    installed on this module's global sees every level's exchange.
    """

    def expand(senders: np.ndarray) -> tuple[np.ndarray, int]:
        return _serial_expand(shard_set.shards, split_senders(shard_set, senders))

    return expand
