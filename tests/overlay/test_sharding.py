"""Tests for repro.overlay.sharding (sharded flood kernels)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay import sharding as sharding_module
from repro.overlay.flooding import FloodDepthCache, flood_depths
from repro.overlay.sharding import expand_shard, partition_topology
from repro.overlay.topology import shard_bounds, two_tier_gnutella
from repro.runtime.shards import ShardedFloodRunner

SHARD_COUNTS = (1, 2, 3, 7, 16)


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(2_000, seed=9)


class TestShardBounds:
    def test_partitions_every_node_once(self):
        bounds = shard_bounds(1_000, 7)
        assert bounds[0] == 0 and bounds[-1] == 1_000
        assert (np.diff(bounds) > 0).all()

    def test_more_shards_than_nodes_collapses(self):
        bounds = shard_bounds(3, 10)
        assert bounds.size == 4  # 3 effective shards of one node each

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0)


class TestPartitionTopology:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_reassembly_is_exact(self, topo, n_shards):
        shard_set = partition_topology(topo, n_shards)
        offsets = [np.asarray([0], dtype=np.int64)]
        neighbors = []
        base = 0
        for shard in shard_set.shards:
            offsets.append(np.asarray(shard.offsets[1:], dtype=np.int64) + base)
            base += shard.n_entries
            neighbors.append(shard.neighbors)
        assert np.array_equal(np.concatenate(offsets), topo.offsets)
        assert np.array_equal(np.concatenate(neighbors), topo.neighbors)
        assert shard_set.n_nodes == topo.n_nodes

    def test_offsets_are_rebased(self, topo):
        for shard in partition_topology(topo, 5).shards:
            assert shard.offsets[0] == 0
            assert shard.offsets[-1] == shard.n_entries

    def test_boundary_counts_partition_the_entries(self, topo):
        shard_set = partition_topology(topo, 4)
        assert int(shard_set.boundary_counts.sum()) == topo.neighbors.size
        # Row s counts exactly shard s's own stored entries.
        for s, shard in enumerate(shard_set.shards):
            assert int(shard_set.boundary_counts[s].sum()) == shard.n_entries
        assert 0 < shard_set.n_boundary_entries < topo.neighbors.size

    def test_shard_of(self, topo):
        shard_set = partition_topology(topo, 3)
        nodes = np.arange(topo.n_nodes)
        owners = shard_set.shard_of(nodes)
        for s in range(shard_set.n_shards):
            lo, hi = shard_set.bounds[s], shard_set.bounds[s + 1]
            assert (owners[lo:hi] == s).all()

    def test_rejects_nonpositive_shards(self, topo):
        with pytest.raises(ValueError):
            partition_topology(topo, 0)


class TestExpandShard:
    def test_matches_manual_gather(self, topo):
        shard_set = partition_topology(topo, 4)
        shard = shard_set.shards[1]
        senders = np.arange(shard.lo, min(shard.lo + 40, shard.hi), dtype=np.int64)
        targets = expand_shard(shard, senders)
        manual = np.concatenate([topo.neighbors_of(int(v)) for v in senders])
        assert np.array_equal(targets, manual)


class TestBitwiseIdentity:
    """The acceptance criterion: sharded == single-segment, bitwise."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("max_depth", (0, 1, 3, 10))
    def test_flood_depths_sharded(self, topo, n_shards, max_depth):
        shard_set = partition_topology(topo, n_shards)
        sources = np.array([0, 17, 1_999])
        ref_depth, ref_messages = flood_depths(topo, sources, max_depth)
        depth, messages = ShardedFloodRunner(shard_set).flood_depths(
            sources, max_depth
        )
        assert np.array_equal(depth, ref_depth)
        assert messages == ref_messages

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_bfs_entry_fields(self, topo, n_shards):
        shard_set = partition_topology(topo, n_shards)
        cache = FloodDepthCache(topo)
        runner = ShardedFloodRunner(shard_set)
        for source in (0, 321, 1_998):
            ref = cache._bfs(source, 12)
            got = runner.bfs_entry(source, 12)
            assert got.source == ref.source
            assert np.array_equal(got.depth, ref.depth)
            assert np.array_equal(got.cum_messages, ref.cum_messages)
            assert np.array_equal(got.cum_reached, ref.cum_reached)
            assert got.exhausted == ref.exhausted

    def test_scalar_source(self, topo):
        shard_set = partition_topology(topo, 3)
        ref = flood_depths(topo, 7, 4)
        got = ShardedFloodRunner(shard_set).flood_depths(7, 4)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_rejects_negative_depth(self, topo):
        runner = ShardedFloodRunner(partition_topology(topo, 2))
        with pytest.raises(ValueError):
            runner.flood_depths(0, -1)
        with pytest.raises(ValueError):
            runner.bfs_entry(0, -1)


class TestShardOverflowGuard:
    """Per-shard entry counts must fail loudly at the INDEX_DTYPE ceiling.

    As in TestIndexDtypeBounds, the real 2**31 - 1 ceiling is
    unreachable in a test, so the dtype is monkeypatched down to int8
    (127 entries) and driven over the boundary per shard.
    """

    def test_one_shard_over_the_ceiling_raises(self, topo, monkeypatch):
        monkeypatch.setattr(sharding_module, "INDEX_DTYPE", np.dtype(np.int8))
        # 2000 nodes x ~6.6 entries/node: a single shard holds far more
        # than 127 entries.
        with pytest.raises(OverflowError) as exc:
            partition_topology(topo, 2)
        message = str(exc.value)
        assert "shard 0" in message
        assert "int8" in message
        assert "max 127" in message
        assert "more shards" in message

    def test_enough_shards_fit_again(self, monkeypatch):
        monkeypatch.setattr(sharding_module, "INDEX_DTYPE", np.dtype(np.int8))
        small = two_tier_gnutella(200, seed=3)
        # ~660 directed entries over 40 shards is ~17 per shard.
        shard_set = partition_topology(small, 40)
        for shard in shard_set.shards:
            assert shard.n_entries <= 127
            assert shard.offsets.dtype == np.dtype(np.int8)
        ref_depth, ref_messages = flood_depths(small, 0, 5)
        depth, messages = ShardedFloodRunner(shard_set).flood_depths(0, 5)
        assert np.array_equal(depth, ref_depth) and messages == ref_messages
