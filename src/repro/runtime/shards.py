"""Sharded shared-memory transport + process-parallel flood driver.

:class:`ShardedTopology` publishes a
:class:`~repro.overlay.sharding.ShardSet` with one shared-memory
segment *per shard array* (local offsets + neighbors per node range,
one global forwards mask), instead of the single-segment
:class:`~repro.runtime.shm.SharedTopology` layout.  Per-shard segments
keep every mapping under the int32 entry ceiling, let a worker map
only the shards it expands, and are the unit the boundary-edge index
(``boundary_counts``) describes.

:class:`ShardedFloodRunner` runs the flood BFS core of
:mod:`repro.overlay.flooding` with a sharded expand step.  In-process
it concatenates the shards' gathers (:func:`~repro.overlay.sharding.expand_step`);
over a *persistent* worker pool, each BFS level submits each shard's
frontier slice as one task (local CSR gather + dedup in the worker),
and the level barrier — the frontier exchange — merges the returned
sorted-unique target sets on the coordinator in shard order.  Either
way the output is bitwise identical to the single-segment kernel (see
:mod:`repro.overlay.sharding`).  The pool persists across floods
because a Fig. 8 run issues hundreds of them — one pool per flood
would pay process start-up per BFS.

The runner also implements the ``bfs_entry`` provider hook of
:class:`~repro.overlay.flooding.FloodDepthCache`, so the depth cache
and :class:`~repro.overlay.batch.BatchQueryEngine` can run their BFS
sharded without knowing about this module.

:class:`ShardedPostings` is the content-path twin of
:class:`ShardedTopology`: it publishes a
:class:`~repro.overlay.content.PostingShardSet` (contiguous term-range
posting segments with re-based offsets) one segment per shard array,
and :func:`attach_sharded_postings` hands workers a view-backed
provider implementing the overlay's ``PostingsProvider`` protocol.
It is the only posting transport: unsharded content travels as a
one-shard set, which is bitwise equal to the dense postings.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics, span
from repro.overlay.content import (
    DensePostings,
    PostingShard,
    PostingShardSet,
    SharedContentIndex,
    partition_postings,
)
from repro.overlay.flooding import DepthEntry, _bfs_levels
from repro.overlay.sharding import (
    ShardSet,
    TopologyShard,
    expand_shard,
    expand_step,
    partition_topology,
    split_senders,
)
from repro.overlay.topology import Topology
from repro.runtime.parallel import _mp_context, resolve_workers
from repro.runtime.sanitize import freeze
from repro.runtime.shm import (
    SharedArraySpec,
    _CACHE,
    _SharedArrayOwner,
    _attach_arrays,
    _export,
)
from repro.utils.stats import sorted_unique

__all__ = [
    "PostingShardSpec",
    "ShardSpec",
    "ShardedFloodRunner",
    "ShardedPostings",
    "ShardedPostingsSpec",
    "ShardedTopology",
    "ShardedTopologySpec",
    "attach_shard_set",
    "attach_sharded_postings",
]


@dataclass(frozen=True)
class ShardSpec:
    """Addresses of one shard's CSR arrays plus its node range."""

    lo: int
    hi: int
    offsets: SharedArraySpec
    neighbors: SharedArraySpec


@dataclass(frozen=True)
class ShardedTopologySpec:
    """Picklable address of a published :class:`ShardSet`.

    ``bounds`` and ``boundary_counts`` are value-carried (they are
    O(shards) and O(shards^2) metadata, not per-node arrays), so
    attaching never touches a segment for them.
    """

    bounds: tuple[int, ...]
    forwards: SharedArraySpec
    shards: tuple[ShardSpec, ...]
    boundary_counts: tuple[tuple[int, ...], ...]


class ShardedTopology(_SharedArrayOwner):
    """Owner handle for a shard set published to shared memory.

    Accepts either a pre-partitioned :class:`ShardSet` or a
    :class:`Topology` plus ``n_shards``.  As with
    :class:`~repro.runtime.shm.SharedTopology`, the owner pre-seeds
    the attachment cache with views over the published segments, so
    the owning process (and fork-started workers) read the exact bytes
    the spec addresses.
    """

    spec: ShardedTopologySpec

    def __init__(
        self, source: Topology | ShardSet, *, n_shards: int | None = None
    ) -> None:
        if isinstance(source, ShardSet):
            if n_shards is not None and n_shards != source.n_shards:
                raise ValueError(
                    f"source is already partitioned into {source.n_shards} "
                    f"shards; n_shards={n_shards} conflicts"
                )
            shard_set = source
        else:
            shard_set = partition_topology(source, n_shards or 1)
        with span("shard.publish", shards=shard_set.n_shards):
            segments = []
            fwd_spec, fwd_seg, fwd_view = _export(
                np.ascontiguousarray(shard_set.forwards)
            )
            segments.append(fwd_seg)
            shard_specs: list[ShardSpec] = []
            shard_views: list[TopologyShard] = []
            for shard in shard_set.shards:
                off_spec, off_seg, off_view = _export(
                    np.ascontiguousarray(shard.offsets)
                )
                nbr_spec, nbr_seg, nbr_view = _export(
                    np.ascontiguousarray(shard.neighbors)
                )
                segments.extend((off_seg, nbr_seg))
                shard_specs.append(
                    ShardSpec(shard.lo, shard.hi, off_spec, nbr_spec)
                )
                shard_views.append(
                    TopologyShard(shard.lo, shard.hi, off_view, nbr_view)
                )
        spec = ShardedTopologySpec(
            bounds=tuple(int(b) for b in shard_set.bounds),
            forwards=fwd_spec,
            shards=tuple(shard_specs),
            boundary_counts=tuple(
                tuple(int(c) for c in row) for row in shard_set.boundary_counts
            ),
        )
        self._adopt(
            spec,
            segments,
            ShardSet(
                bounds=freeze(np.asarray(spec.bounds, dtype=np.int64)),
                forwards=fwd_view,
                shards=tuple(shard_views),
                boundary_counts=freeze(
                    np.asarray(spec.boundary_counts, dtype=np.int64)
                ),
            ),
        )

    def __enter__(self) -> "ShardedTopology":
        return self

    @property
    def shard_set(self) -> ShardSet:
        """The view-backed shard set over the published segments."""
        return attach_shard_set(self.spec)


def attach_shard_set(spec: ShardedTopologySpec) -> ShardSet:
    """Map a published shard set into this process (cached, read-only)."""
    cached = _CACHE.get(spec)
    if cached is not None:
        assert isinstance(cached, ShardSet)
        return cached
    flat_specs = [spec.forwards]
    for shard in spec.shards:
        flat_specs.extend((shard.offsets, shard.neighbors))
    arrays, segments = _attach_arrays(tuple(flat_specs))
    shards = tuple(
        TopologyShard(s.lo, s.hi, arrays[1 + 2 * i], arrays[2 + 2 * i])
        for i, s in enumerate(spec.shards)
    )
    shard_set = ShardSet(
        bounds=freeze(np.asarray(spec.bounds, dtype=np.int64)),
        forwards=arrays[0],
        shards=shards,
        boundary_counts=freeze(np.asarray(spec.boundary_counts, dtype=np.int64)),
    )
    _CACHE.put(spec, shard_set, segments)
    return shard_set


@dataclass(frozen=True)
class PostingShardSpec:
    """Addresses of one posting shard's arrays plus its term range."""

    lo: int
    hi: int
    offsets: SharedArraySpec
    instances: SharedArraySpec


@dataclass(frozen=True)
class ShardedPostingsSpec:
    """Picklable address of a published posting shard set.

    ``bounds`` is value-carried (O(shards) metadata); the per-shard
    offset/instance arrays and the instance-to-peer map live in their
    own segments.
    """

    bounds: tuple[int, ...]
    instance_peer: SharedArraySpec
    shards: tuple[PostingShardSpec, ...]


class ShardedPostings(_SharedArrayOwner):
    """Owner handle for posting shards published to shared memory.

    Accepts a content index (or dense provider) plus ``n_shards``, or a
    pre-partitioned :class:`~repro.overlay.content.PostingShardSet`.
    The pre-seeded attachment is a view-backed shard set carrying
    ``spec``, so consumers holding the provider can recover the worker
    address without re-publishing.
    """

    spec: ShardedPostingsSpec

    def __init__(
        self,
        source: SharedContentIndex | DensePostings | PostingShardSet,
        *,
        n_shards: int | None = None,
    ) -> None:
        if isinstance(source, PostingShardSet):
            if n_shards is not None and n_shards != source.n_shards:
                raise ValueError(
                    f"source is already partitioned into {source.n_shards} "
                    f"shards; n_shards={n_shards} conflicts"
                )
            shard_set = source
        else:
            shard_set = partition_postings(source, n_shards or 1)
        with span("postings.publish", shards=shard_set.n_shards):
            segments = []
            pee_spec, pee_seg, pee_view = _export(
                np.ascontiguousarray(shard_set.instance_peer)
            )
            segments.append(pee_seg)
            shard_specs: list[PostingShardSpec] = []
            shard_views: list[PostingShard] = []
            for shard in shard_set.shards:
                off_spec, off_seg, off_view = _export(
                    np.ascontiguousarray(shard.offsets)
                )
                ins_spec, ins_seg, ins_view = _export(
                    np.ascontiguousarray(shard.instances)
                )
                segments.extend((off_seg, ins_seg))
                shard_specs.append(
                    PostingShardSpec(shard.lo, shard.hi, off_spec, ins_spec)
                )
                shard_views.append(
                    PostingShard(shard.lo, shard.hi, off_view, ins_view)
                )
        spec = ShardedPostingsSpec(
            bounds=tuple(int(b) for b in shard_set.bounds),
            instance_peer=pee_spec,
            shards=tuple(shard_specs),
        )
        self._adopt(
            spec,
            segments,
            PostingShardSet(
                bounds=freeze(np.asarray(spec.bounds, dtype=np.int64)),
                shards=tuple(shard_views),
                instance_peer=pee_view,
                spec=spec,
            ),
        )

    def __enter__(self) -> "ShardedPostings":
        return self

    @property
    def provider(self) -> PostingShardSet:
        """The view-backed shard set over the published segments."""
        return attach_sharded_postings(self.spec)


def attach_sharded_postings(spec: ShardedPostingsSpec) -> PostingShardSet:
    """Map published posting shards into this process (cached, read-only)."""
    cached = _CACHE.get(spec)
    if cached is not None:
        assert isinstance(cached, PostingShardSet)
        return cached
    flat_specs = [spec.instance_peer]
    for shard in spec.shards:
        flat_specs.extend((shard.offsets, shard.instances))
    arrays, segments = _attach_arrays(tuple(flat_specs))
    shards = tuple(
        PostingShard(s.lo, s.hi, arrays[1 + 2 * i], arrays[2 + 2 * i])
        for i, s in enumerate(spec.shards)
    )
    shard_set = PostingShardSet(
        bounds=freeze(np.asarray(spec.bounds, dtype=np.int64)),
        shards=shards,
        instance_peer=arrays[0],
        spec=spec,
    )
    _CACHE.put(spec, shard_set, segments)
    return shard_set


def _expand_task(
    spec: ShardedTopologySpec, shard_index: int, senders: np.ndarray
) -> tuple[np.ndarray, int]:
    """Worker task: one shard's level expansion against shared memory.

    Returns the shard's sorted distinct targets and its gathered-target
    count.  Deduplicating here shrinks what crosses the process
    boundary.
    """
    shard_set = attach_shard_set(spec)
    targets = expand_shard(shard_set.shards[shard_index], senders)
    return sorted_unique(targets), targets.size


class ShardedFloodRunner:
    """Shard-parallel flood driver with a persistent worker pool.

    ``n_workers <= 1`` (or a single shard) expands in-process —
    identical arrays, identical arithmetic, no pool, no shm publish.
    Otherwise the shard set is published once and a pool of
    ``min(n_workers, n_shards)`` processes expands shard frontiers
    concurrently; the per-level merge order is fixed (shard 0, 1, ...),
    so every worker count is bitwise identical.

    Use as a context manager, or call :meth:`close`; the runner owns
    its pool and (when parallel) its published segments.
    """

    def __init__(
        self,
        source: Topology | ShardSet,
        *,
        n_shards: int | None = None,
        n_workers: int = 1,
    ) -> None:
        if isinstance(source, ShardSet):
            shard_set = source
        else:
            shard_set = partition_topology(source, n_shards or 1)
        self.n_workers = min(resolve_workers(n_workers), shard_set.n_shards)
        self._share: ShardedTopology | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        if self.n_workers > 1:
            self._share = ShardedTopology(shard_set)
            shard_set = self._share.shard_set
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_mp_context()
            )
        self.shard_set = shard_set

    @property
    def n_nodes(self) -> int:
        """Node count of the underlying topology."""
        return self.shard_set.n_nodes

    @property
    def n_shards(self) -> int:
        """Shard count."""
        return self.shard_set.n_shards

    def _pool_expand(self, senders: np.ndarray) -> tuple[np.ndarray, int]:
        """One level's frontier exchange over the pool.

        Each non-empty shard's senders go to one task; the returned
        target sets are merged in shard order, so the arithmetic never
        depends on which worker finished first.
        """
        assert self._pool is not None and self._share is not None
        futures = [
            self._pool.submit(_expand_task, self._share.spec, s, part)
            for s, part in enumerate(split_senders(self.shard_set, senders))
            if part.size
        ]
        results = [future.result() for future in futures]
        metrics().inc("shard.exchange.rounds")
        targets = np.concatenate([targets for targets, _ in results])
        return targets, sum(sent for _, sent in results)

    def _bfs(
        self, sources: np.ndarray | int, max_depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """The shared BFS core over this runner's shards."""
        self._check_open()
        expand = (
            expand_step(self.shard_set) if self._pool is None else self._pool_expand
        )
        n = self.n_nodes
        result = _bfs_levels(
            expand,
            self.shard_set.forwards,
            sources,
            max_depth,
            visited=np.zeros(n, dtype=bool),
            level_mask=np.zeros(n, dtype=bool),
        )
        registry = metrics()
        registry.inc("shard.flood.calls")
        registry.inc("shard.exchange.messages", int(result[1][-1]))
        return result

    def flood_depths(
        self, sources: np.ndarray | int, max_depth: int
    ) -> tuple[np.ndarray, int]:
        """Sharded :func:`~repro.overlay.flooding.flood_depths`."""
        with span(
            "shard.flood", shards=self.n_shards, workers=self.n_workers
        ):
            depth, cum_messages, _, _ = self._bfs(sources, max_depth)
        return depth, int(cum_messages[-1])

    def bfs_entry(self, source: int, max_depth: int) -> DepthEntry:
        """Provider hook for :class:`~repro.overlay.flooding.FloodDepthCache`."""
        with span(
            "shard.bfs_entry", shards=self.n_shards, workers=self.n_workers
        ):
            depth, cum_messages, cum_reached, exhausted = self._bfs(
                source, max_depth
            )
        return DepthEntry(
            source=int(source),
            depth=depth,
            cum_messages=cum_messages,
            cum_reached=cum_reached,
            exhausted=exhausted,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedFloodRunner is closed")

    def close(self) -> None:
        """Shut the pool down and unlink the published segments."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._share is not None:
            self._share.close()
            self._share = None

    def __enter__(self) -> "ShardedFloodRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
