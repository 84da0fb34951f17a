"""Failure-injection and hardening tests.

Exercises the error paths a long-running generation service would hit:
capacity exhaustion, malformed inputs, degenerate sizes.
"""

import numpy as np
import pytest

from repro import DegreeDistribution, EdgeList, ParallelConfig, swap_edges
from repro.parallel.hashtable import ConcurrentEdgeHashTable


class TestHashTableExhaustion:
    def test_vectorized_overflow_raises(self):
        table = ConcurrentEdgeHashTable(0)  # 16 slots minimum
        keys = np.arange(17, dtype=np.int64) * 7919
        with pytest.raises(RuntimeError, match="full"):
            table.test_and_set(keys)

    def test_serial_overflow_raises(self):
        table = ConcurrentEdgeHashTable(0)
        with pytest.raises(RuntimeError, match="full"):
            table.test_and_set_serial(np.arange(17, dtype=np.int64) * 7919)

    def test_exactly_full_is_fine(self):
        table = ConcurrentEdgeHashTable(0)
        keys = np.arange(16, dtype=np.int64) * 104729
        assert not table.test_and_set(keys).any()
        assert table.size == 16

    def test_table_usable_after_clear_following_overflow(self):
        table = ConcurrentEdgeHashTable(0)
        with pytest.raises(RuntimeError):
            table.test_and_set(np.arange(20, dtype=np.int64) * 31)
        table.clear()
        assert not table.test_and_set(np.asarray([5], dtype=np.int64))[0]


class TestDegenerateGraphs:
    def test_swap_odd_edge_count_leaves_unpaired_edge(self):
        # 3 edges -> one pair + one unpaired; degrees must still hold
        g = EdgeList([0, 2, 4], [1, 3, 5], n=6)
        out = swap_edges(g, 5, ParallelConfig(seed=1))
        np.testing.assert_array_equal(
            np.sort(out.degree_sequence()), np.sort(g.degree_sequence())
        )
        assert out.m == 3

    def test_all_self_loops_input(self):
        g = EdgeList([0, 1, 2, 3], [0, 1, 2, 3], n=4)
        out = swap_edges(g, 10, ParallelConfig(seed=2))
        # loops pair with loops: {u,u},{x,x} -> {u,x},{u,x}: duplicate ->
        # rejected; loops are only destroyed via mixed pairs, which do
        # not exist here. Degrees must be preserved regardless.
        np.testing.assert_array_equal(out.degree_sequence(), g.degree_sequence())

    def test_complete_graph_is_frozen(self):
        """K_n admits no swap: every proposal duplicates an edge."""
        iu, iv = np.triu_indices(5, k=1)
        g = EdgeList(iu, iv)
        from repro.core.swap import SwapStats

        stats = SwapStats()
        out = swap_edges(g, 5, ParallelConfig(seed=3), stats=stats)
        assert out.same_graph(g)
        assert stats.accepted == 0

    def test_two_parallel_stars_minimal_motion(self):
        # extreme skew: two hubs sharing all leaves
        hub_edges_u = np.concatenate([np.zeros(8, np.int64), np.ones(8, np.int64)])
        hub_edges_v = np.concatenate([np.arange(2, 10), np.arange(2, 10)])
        g = EdgeList(hub_edges_u, hub_edges_v)
        out = swap_edges(g, 10, ParallelConfig(seed=4))
        assert out.is_simple()
        np.testing.assert_array_equal(
            np.sort(out.degree_sequence()), np.sort(g.degree_sequence())
        )


class TestMalformedInputs:
    def test_nan_probabilities_rejected(self, small_dist):
        from repro.core.edge_skip import generate_edges

        P = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            generate_edges(P, small_dist, ParallelConfig(seed=0))

    def test_vertex_id_over_32_bits(self):
        g = EdgeList([2**32], [0])
        with pytest.raises(ValueError, match="32 bits"):
            g.keys()

    def test_distribution_count_overflow_guard(self):
        # absurd counts must not silently wrap
        d = DegreeDistribution([2], [2**40])
        assert d.n == 2**40  # int64 arithmetic holds

    def test_empty_distribution_through_pipeline(self):
        from repro import generate_graph

        d = DegreeDistribution([], [])
        g, report = generate_graph(d, swap_iterations=2, config=ParallelConfig(seed=5))
        assert g.m == 0 and g.n == 0
