"""Tests for swap-chain mixing diagnostics."""

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.graph.edgelist import EdgeList
from repro.obs import MixingProbe, clustering_proxy, edge_overlap
from repro.parallel.hashtable import pack_edges
from repro.parallel.runtime import ParallelConfig


def _ring(m=400, n=400):
    u = np.arange(m, dtype=np.int64)
    v = (u + 1) % n
    return EdgeList(u, v, n)


class TestClusteringProxy:
    def test_triangle_fully_closed(self):
        g = EdgeList([0, 1, 2], [1, 2, 0], 3)
        assert clustering_proxy(g) == 1.0

    def test_path_open(self):
        g = EdgeList([0, 1], [1, 2], 3)
        assert clustering_proxy(g) == 0.0

    def test_star_open(self):
        g = EdgeList([0, 0, 0], [1, 2, 3], 4)
        assert clustering_proxy(g) == 0.0

    def test_empty_graph(self):
        g = EdgeList(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
        assert clustering_proxy(g) == 0.0

    def test_self_loops_ignored(self):
        g = EdgeList([0, 1, 2, 0], [1, 2, 0, 0], 3)
        assert clustering_proxy(g) == 1.0

    def test_multi_edges_deduplicated(self):
        # duplicate (0,1) must not displace vertex 0's second neighbour
        g = EdgeList([0, 0, 1, 2], [1, 1, 2, 0], 3)
        assert clustering_proxy(g) == 1.0


class TestEdgeOverlap:
    def test_identical(self):
        g = _ring(10, 10)
        keys = np.unique(pack_edges(g.u, g.v))
        assert edge_overlap(keys, g) == 1.0

    def test_disjoint(self):
        a = EdgeList([0, 1], [1, 2], 6)
        b = EdgeList([3, 4], [4, 5], 6)
        keys = np.unique(pack_edges(a.u, a.v))
        assert edge_overlap(keys, b) == 0.0

    def test_empty_start(self):
        empty = np.array([], dtype=np.int64)
        assert edge_overlap(empty, _ring(4, 4)) == 1.0


class TestMixingProbe:
    def test_records_start(self):
        probe = MixingProbe(_ring(), every=2)
        traj = probe.trajectory
        assert len(traj) == 1
        assert traj.samples[0].iteration == 0
        assert traj.samples[0].edge_overlap == 1.0

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            MixingProbe(_ring(), every=0)

    def test_callback_samples_at_stride(self):
        g = _ring()
        probe = MixingProbe(g, every=2)
        cb = probe.callback()
        for it in range(6):
            cb(it, g)
        assert list(probe.trajectory.iterations()) == [0, 2, 4, 6]

    def test_callback_chains_user_callback(self):
        g = _ring()
        probe = MixingProbe(g, every=3)
        seen = []
        cb = probe.callback(lambda it, graph: seen.append(it))
        for it in range(3):
            cb(it, g)
        assert seen == [0, 1, 2]  # user hook fires every round
        assert list(probe.trajectory.iterations()) == [0, 3]

    def test_replay_truncates(self):
        """A degraded retry / resume replays rounds; samples must not
        duplicate."""
        g = _ring()
        probe = MixingProbe(g, every=1)
        probe.observe(1, g)
        probe.observe(2, g)
        probe.observe(1, g)  # chain restarted after round 0
        assert list(probe.trajectory.iterations()) == [0, 1]

    def test_to_dict_roundtrip(self):
        import json

        probe = MixingProbe(_ring(), every=1)
        d = probe.trajectory.to_dict()
        json.dumps(d)
        assert d["every"] == 1
        assert d["edge_overlap"] == [1.0]


class TestBackendInvariance:
    """The acceptance bar: identical trajectories across both backends."""

    @pytest.mark.parametrize("seed", [7, 19])
    def test_swap_trajectory_bitwise_identical(self, seed):
        graph = _ring()
        trajectories = []
        for backend in ("serial", "vectorized"):
            stats = SwapStats()
            swap_edges(
                graph, 4,
                ParallelConfig(threads=4, backend=backend, seed=seed),
                stats=stats, mixing_every=2,
            )
            assert stats.mixing is not None
            trajectories.append(stats.mixing)
        ref = trajectories[0]
        for traj in trajectories[1:]:
            np.testing.assert_array_equal(ref.iterations(), traj.iterations())
            np.testing.assert_array_equal(ref.assortativity(), traj.assortativity())
            np.testing.assert_array_equal(ref.clustering(), traj.clustering())
            np.testing.assert_array_equal(ref.edge_overlap(), traj.edge_overlap())

    def test_mixing_does_not_perturb_output(self, small_dist, cfg):
        g_plain, _ = generate_graph(small_dist, swap_iterations=3, config=cfg)
        g_mixed, report = generate_graph(small_dist, swap_iterations=3, config=cfg,
                                         mixing_every=1)
        assert g_plain.same_graph(g_mixed)
        traj = report.swap_stats.mixing
        assert traj is not None
        assert list(traj.iterations()) == [0, 1, 2, 3]

    def test_overlap_decays_from_start(self):
        graph = _ring(2000, 2000)
        stats = SwapStats()
        swap_edges(graph, 4, ParallelConfig(threads=4, seed=3),
                   stats=stats, mixing_every=1)
        overlap = stats.mixing.edge_overlap()
        assert overlap[0] == 1.0
        assert overlap[-1] < overlap[0]

    def test_mixing_requires_stats(self):
        with pytest.raises(ValueError, match="stats"):
            swap_edges(_ring(), 2, ParallelConfig(seed=1), mixing_every=1)
