"""Tests for repro.runtime.shards (sharded shm transport + runner)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.overlay.batch import BatchQueryEngine
from repro.overlay.flooding import FloodDepthCache, flood_depths
from repro.overlay.sharding import partition_topology
from repro.overlay.topology import two_tier_gnutella
from repro.runtime.shards import (
    ShardedFloodRunner,
    ShardedTopology,
    attach_shard_set,
)


@pytest.fixture(scope="module")
def topo():
    return two_tier_gnutella(1_200, seed=21)


class TestShardedTopology:
    def test_publish_attach_roundtrip(self, topo):
        shard_set = partition_topology(topo, 3)
        with ShardedTopology(shard_set) as share:
            attached = attach_shard_set(share.spec)
            np.testing.assert_array_equal(attached.bounds, shard_set.bounds)
            np.testing.assert_array_equal(attached.forwards, shard_set.forwards)
            np.testing.assert_array_equal(
                attached.boundary_counts, shard_set.boundary_counts
            )
            assert attached.n_shards == shard_set.n_shards
            for got, want in zip(attached.shards, shard_set.shards):
                assert (got.lo, got.hi) == (want.lo, want.hi)
                np.testing.assert_array_equal(got.offsets, want.offsets)
                np.testing.assert_array_equal(got.neighbors, want.neighbors)

    def test_attach_is_cached(self, topo):
        with ShardedTopology(topo, n_shards=2) as share:
            assert attach_shard_set(share.spec) is attach_shard_set(share.spec)

    def test_spec_is_hashable_and_picklable(self, topo):
        with ShardedTopology(topo, n_shards=2) as share:
            restored = pickle.loads(pickle.dumps(share.spec))
            assert restored == share.spec
            assert hash(restored) == hash(share.spec)

    def test_conflicting_n_shards_rejected(self, topo):
        shard_set = partition_topology(topo, 3)
        with pytest.raises(ValueError, match="already partitioned"):
            ShardedTopology(shard_set, n_shards=4)

    def test_close_is_idempotent(self, topo):
        share = ShardedTopology(topo, n_shards=2)
        share.close()
        share.close()


class TestShardedFloodRunner:
    @pytest.mark.parametrize("n_shards", (1, 2, 5))
    @pytest.mark.parametrize("n_workers", (1, 2, 3))
    def test_bitwise_identity_across_pool_shapes(self, topo, n_shards, n_workers):
        sources = np.array([0, 451, 1_199])
        ref_depth, ref_messages = flood_depths(topo, sources, 6)
        with ShardedFloodRunner(
            topo, n_shards=n_shards, n_workers=n_workers
        ) as runner:
            depth, messages = runner.flood_depths(sources, 6)
            assert np.array_equal(depth, ref_depth)
            assert messages == ref_messages

    def test_worker_count_capped_by_shards(self, topo):
        with ShardedFloodRunner(topo, n_shards=2, n_workers=16) as runner:
            assert runner.n_workers <= 2

    def test_provider_through_flood_depth_cache(self, topo):
        sources = np.array([3, 3, 77, 900])
        with ShardedFloodRunner(topo, n_shards=3, n_workers=2) as runner:
            cache = FloodDepthCache(provider=runner)
            for s in sources:
                ref_depth, ref_messages = flood_depths(topo, int(s), 5)
                entry = cache.entry(int(s), 5)
                assert np.array_equal(entry.depth_at(5), ref_depth)
                assert entry.messages(5) == ref_messages
            assert len(cache) == 3

    def test_provider_through_batch_engine(self, small_content):
        content_topo = two_tier_gnutella(small_content.n_peers, seed=4)
        queries = [["love"], ["the"], ["you"]]
        sources = np.array([0, 7, 100])
        plain = BatchQueryEngine(content_topo, small_content)
        ref = plain.evaluate(sources, queries, ttl_schedule=(3,))
        with ShardedFloodRunner(content_topo, n_shards=2) as runner:
            sharded = BatchQueryEngine(
                content_topo, small_content, depth_provider=runner
            )
            got = sharded.evaluate(sources, queries, ttl_schedule=(3,))
            np.testing.assert_array_equal(got.success, ref.success)
            np.testing.assert_array_equal(got.n_results, ref.n_results)
            np.testing.assert_array_equal(got.messages, ref.messages)
            np.testing.assert_array_equal(got.peers_probed, ref.peers_probed)

    def test_closed_runner_raises(self, topo):
        runner = ShardedFloodRunner(topo, n_shards=2)
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.flood_depths(0, 3)
        runner.close()  # idempotent

    def test_accepts_prebuilt_shard_set(self, topo):
        shard_set = partition_topology(topo, 4)
        with ShardedFloodRunner(shard_set) as runner:
            assert runner.n_shards == 4
            ref = flood_depths(topo, 9, 4)
            got = runner.flood_depths(9, 4)
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


class TestShardedPostings:
    @pytest.fixture(scope="class")
    def content(self, small_trace):
        from repro.overlay.content import SharedContentIndex

        return SharedContentIndex(small_trace)

    def test_publish_attach_roundtrip(self, content):
        from repro.overlay.content import partition_postings
        from repro.runtime.shards import ShardedPostings, attach_sharded_postings

        local = partition_postings(content, 3)
        with ShardedPostings(content, n_shards=3) as share:
            attached = attach_sharded_postings(share.spec)
            assert attached.n_shards == 3
            assert attached.spec is share.spec
            np.testing.assert_array_equal(attached.bounds, local.bounds)
            np.testing.assert_array_equal(
                attached.instance_peer, local.instance_peer
            )
            for got, want in zip(attached.shards, local.shards):
                assert (got.lo, got.hi) == (want.lo, want.hi)
                np.testing.assert_array_equal(got.offsets, want.offsets)
                np.testing.assert_array_equal(got.instances, want.instances)
                assert got.offsets.dtype == want.offsets.dtype

    def test_spec_is_picklable_and_dispatchable(self, content):
        """Sharded and unsharded content share one spec type and attach."""
        from repro.overlay.content import PostingShardSet
        from repro.runtime.shards import ShardedPostings, attach_sharded_postings

        with ShardedPostings(content, n_shards=2) as sharded, ShardedPostings(
            content
        ) as dense:
            for spec in (sharded.spec, dense.spec):
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert isinstance(attach_sharded_postings(clone), PostingShardSet)
            assert attach_sharded_postings(dense.spec).n_shards == 1

    def test_prepartitioned_source_keeps_layout(self, content):
        from repro.overlay.content import partition_postings
        from repro.runtime.shards import ShardedPostings

        shard_set = partition_postings(content, 4)
        with ShardedPostings(shard_set) as share:
            assert share.provider.n_shards == 4
        with pytest.raises(ValueError, match="n_shards"):
            ShardedPostings(shard_set, n_shards=5)  # simlint: ignore[SIM012] the constructor raises before publishing a segment

    def test_attached_provider_matches_queries(self, content):
        from repro.overlay.content import intersect_postings_batch
        from repro.runtime.shards import ShardedPostings

        keys = [(t,) for t in range(0, 50, 7)]
        dense_rows = intersect_postings_batch(content.dense_postings(), keys)
        with ShardedPostings(content, n_shards=3) as share:
            shard_rows = intersect_postings_batch(share.provider, keys)
        for a, b in zip(dense_rows, shard_rows):
            np.testing.assert_array_equal(a, b)
