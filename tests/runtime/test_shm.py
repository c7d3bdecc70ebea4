"""Tests for repro.runtime.shm (shared-memory topology transport)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.topology import two_tier_gnutella
from repro.runtime.parallel import pmap
from repro.runtime.shards import (
    ShardedPostings,
    ShardedPostingsSpec,
    attach_sharded_postings,
)
from repro.runtime.shm import SharedTopology, SharedTopologySpec, attach_topology


def _remote_degree_sum(item: int, rng: np.random.Generator, *, spec=None) -> int:
    """Worker that maps the shared topology and sums its degrees."""
    topo = attach_topology(spec)
    return int(np.asarray(topo.degree()).sum()) + item


def _remote_posting_sum(item: int, rng: np.random.Generator, *, spec=None) -> int:
    """Worker that maps the shared postings and sums the instances."""
    post = attach_sharded_postings(spec)
    return sum(int(shard.instances.sum()) for shard in post.shards) + item


class TestRoundtrip:
    def test_arrays_survive_publication(self):
        topo = two_tier_gnutella(400, seed=9)
        with SharedTopology(topo) as share:
            attached = attach_topology(share.spec)
            np.testing.assert_array_equal(attached.offsets, topo.offsets)
            np.testing.assert_array_equal(attached.neighbors, topo.neighbors)
            np.testing.assert_array_equal(attached.forwards, topo.forwards)

    def test_attach_is_cached(self):
        topo = two_tier_gnutella(200, seed=9)
        with SharedTopology(topo) as share:
            assert attach_topology(share.spec) is attach_topology(share.spec)

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        topo = two_tier_gnutella(200, seed=9)
        with SharedTopology(topo) as share:
            spec = share.spec
            assert isinstance(spec, SharedTopologySpec)
            assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_views_are_read_only(self):
        topo = two_tier_gnutella(200, seed=9)
        with SharedTopology(topo) as share:
            attached = attach_topology(share.spec)
            with pytest.raises((ValueError, RuntimeError)):
                attached.neighbors[0] = -1  # simlint: ignore[SIM019] deliberate write proving attached views reject mutation


class TestLifecycle:
    def test_close_unlinks_and_evicts_cache(self):
        topo = two_tier_gnutella(200, seed=9)
        share = SharedTopology(topo)  # simlint: ignore[SIM012] the test exercises manual close() semantics
        spec = share.spec
        attach_topology(spec)
        share.close()
        # The cached attachment is gone and the segments are unlinked,
        # so a fresh attach has nothing to map.
        with pytest.raises((FileNotFoundError, OSError)):
            attach_topology(spec)

    def test_close_is_idempotent(self):
        share = SharedTopology(two_tier_gnutella(200, seed=9))  # simlint: ignore[SIM012] the test exercises manual close() semantics
        share.close()
        share.close()


class TestCrossProcess:
    def test_workers_read_shared_topology(self):
        from functools import partial

        topo = two_tier_gnutella(600, seed=9)
        expected = int(np.asarray(topo.degree()).sum())
        with SharedTopology(topo) as share:
            task = partial(_remote_degree_sum, spec=share.spec)
            results = pmap(task, [0, 1, 2, 3], seed=0, key="shm", n_workers=2)
        assert results == [expected, expected + 1, expected + 2, expected + 3]


class TestSharedPostings:
    """Unsharded content travels as a one-shard posting set."""

    def test_arrays_survive_publication(self, small_content):
        with ShardedPostings(small_content) as share:
            post = attach_sharded_postings(share.spec)
            (shard,) = post.shards
            np.testing.assert_array_equal(
                shard.offsets, small_content._posting_offsets
            )
            np.testing.assert_array_equal(
                shard.instances, small_content._posting_instances
            )
            np.testing.assert_array_equal(
                post.instance_peer, small_content.instance_peer
            )

    def test_attach_is_cached(self, small_content):
        with ShardedPostings(small_content) as share:
            assert attach_sharded_postings(share.spec) is attach_sharded_postings(
                share.spec
            )

    def test_spec_is_hashable_and_picklable(self, small_content):
        import pickle

        with ShardedPostings(small_content) as share:
            spec = share.spec
            assert isinstance(spec, ShardedPostingsSpec)
            assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_views_are_read_only(self, small_content):
        with ShardedPostings(small_content) as share:
            post = attach_sharded_postings(share.spec)
            with pytest.raises((ValueError, RuntimeError)):
                post.shards[0].instances[0] = -1  # simlint: ignore[SIM019] deliberate write proving attached views reject mutation

    def test_close_unlinks_and_evicts_cache(self, small_content):
        share = ShardedPostings(small_content)  # simlint: ignore[SIM012] the test exercises manual close() semantics
        spec = share.spec
        attach_sharded_postings(spec)
        share.close()
        with pytest.raises((FileNotFoundError, OSError)):
            attach_sharded_postings(spec)

    def test_intersections_match_local_index(self, small_content):
        from repro.overlay.content import intersect_postings

        key = (0, 1)
        with ShardedPostings(small_content) as share:
            (shard,) = attach_sharded_postings(share.spec).shards
            np.testing.assert_array_equal(
                intersect_postings(shard.offsets, shard.instances, key),
                small_content.match_key(key),
            )

    def test_workers_read_shared_postings(self, small_content):
        from functools import partial

        expected = int(small_content._posting_instances.sum())
        with ShardedPostings(small_content) as share:
            task = partial(_remote_posting_sum, spec=share.spec)
            results = pmap(task, [0, 1], seed=0, key="shm-post", n_workers=2)
        assert results == [expected, expected + 1]
