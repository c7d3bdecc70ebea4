"""Property-based flooding tests on hypothesis-generated graphs."""

from __future__ import annotations

from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.flooding import FloodDepthCache, flood, flood_depths
from repro.overlay.topology import from_networkx
from repro.runtime.shards import ShardedFloodRunner


@st.composite
def random_graphs(draw):
    """Small connected-ish random graphs with optional non-forwarders."""
    n = draw(st.integers(4, 40))
    p = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 10_000))
    g = nx.gnp_random_graph(n, p, seed=seed)
    non_forwarding = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    for v in non_forwarding:
        g.nodes[v]["forwards"] = False
    return from_networkx(g)


class TestFloodingProperties:
    @given(topo=random_graphs(), ttl=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_depths_are_valid_bfs_levels(self, topo, ttl):
        depth, _ = flood_depths(topo, 0, ttl)
        assert depth[0] == 0
        reached = np.flatnonzero(depth > 0)
        for v in reached:
            # Some neighbor sits exactly one level shallower — and if
            # v is deeper than 1, that predecessor must be a forwarder.
            parents = topo.neighbors_of(int(v))
            levels = depth[parents]
            ok = (levels == depth[v] - 1) & (
                (depth[v] == 1) | topo.forwards[parents]
            )
            assert ok.any()

    @given(topo=random_graphs(), ttl=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_reach_monotone_in_ttl(self, topo, ttl):
        a = flood(topo, 0, ttl).n_reached
        b = flood(topo, 0, ttl + 1).n_reached
        assert b >= a

    @given(topo=random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_all_forwarding_matches_networkx(self, topo):
        # Force every node to forward, then depths are plain BFS levels.
        topo.forwards[:] = True
        depth, _ = flood_depths(topo, 0, topo.n_nodes)
        sp = nx.single_source_shortest_path_length(topo.to_networkx(), 0)
        for v in range(topo.n_nodes):
            assert depth[v] == sp.get(v, -1)

    @given(topo=random_graphs(), ttl=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_multisource_is_min_of_singles(self, topo, ttl):
        if topo.n_nodes < 2:
            return
        sources = np.array([0, topo.n_nodes - 1])
        multi, _ = flood_depths(topo, sources, ttl)
        singles = [flood_depths(topo, int(s), ttl)[0] for s in sources]
        for v in range(topo.n_nodes):
            candidates = [d[v] for d in singles if d[v] >= 0]
            expected = min(candidates) if candidates else -1
            assert multi[v] == expected

    @given(topo=random_graphs(), ttl=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_messages_zero_iff_ttl_zero_or_isolated(self, topo, ttl):
        _, messages = flood_depths(topo, 0, ttl)
        if ttl == 0 or topo.degree(0) == 0:
            assert messages == 0
        else:
            assert messages > 0


def oracle_flood(topo, sources, ttl):
    """Reference flood: a plain queue BFS over networkx adjacency.

    Shares nothing with the vectorized kernels.  Sources always emit;
    a node reached later emits only if it forwards; nothing at depth
    ``ttl`` emits.  Every emission sends one message per neighbor, so
    the message count is the summed degree of each level's senders.
    """
    graph = topo.to_networkx()
    forwards = nx.get_node_attributes(graph, "forwards")
    depth = [-1] * topo.n_nodes
    queue = deque()
    for s in sorted({int(s) for s in np.atleast_1d(sources)}):
        depth[s] = 0
        queue.append(s)
    messages = 0
    while queue:
        v = queue.popleft()
        if depth[v] == ttl or (depth[v] > 0 and not forwards[v]):
            continue
        for w in graph.neighbors(v):
            messages += 1
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                queue.append(w)
    return np.asarray(depth), messages


@st.composite
def flood_cases(draw):
    """A random graph, one to three sources on it, and a TTL."""
    topo = draw(random_graphs())
    sources = draw(
        st.lists(st.integers(0, topo.n_nodes - 1), min_size=1, max_size=3)
    )
    return topo, np.asarray(sources), draw(st.integers(0, 7))


class TestAgainstOracle:
    """Every BFS entry point equals the queue-BFS oracle exactly."""

    @given(case=flood_cases())
    @settings(max_examples=60, deadline=None)
    def test_flood_depths(self, case):
        topo, sources, ttl = case
        depth, messages = flood_depths(topo, sources, ttl)
        ref_depth, ref_messages = oracle_flood(topo, sources, ttl)
        np.testing.assert_array_equal(depth, ref_depth)
        assert messages == ref_messages

    @given(case=flood_cases())
    @settings(max_examples=60, deadline=None)
    def test_depth_cache_entry_every_ttl(self, case):
        topo, sources, horizon = case
        source = int(sources[0])
        entry = FloodDepthCache(topo).entry(source, horizon)
        for t in range(horizon + 1):
            ref_depth, ref_messages = oracle_flood(topo, source, t)
            np.testing.assert_array_equal(entry.depth_at(t), ref_depth)
            assert entry.messages(t) == ref_messages
            assert entry.reached(t) == int((ref_depth >= 0).sum())

    @pytest.mark.parametrize("n_shards", (1, 2, 7))
    @given(case=flood_cases())
    @settings(max_examples=40, deadline=None)
    def test_sharded_runner(self, n_shards, case):
        topo, sources, ttl = case
        runner = ShardedFloodRunner(topo, n_shards=n_shards, n_workers=1)
        depth, messages = runner.flood_depths(sources, ttl)
        ref_depth, ref_messages = oracle_flood(topo, sources, ttl)
        np.testing.assert_array_equal(depth, ref_depth)
        assert messages == ref_messages
        entry = runner.bfs_entry(int(sources[0]), ttl)
        for t in range(ttl + 1):
            ref_depth, ref_messages = oracle_flood(topo, sources[0], t)
            np.testing.assert_array_equal(entry.depth_at(t), ref_depth)
            assert entry.messages(t) == ref_messages
            assert entry.reached(t) == int((ref_depth >= 0).sum())
