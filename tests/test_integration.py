"""Cross-subsystem integration tests.

Each test exercises a realistic multi-module workflow end to end —
generation → persistence → randomization → measurement — the paths a
downstream user actually strings together.
"""

import numpy as np
import pytest

from repro import (
    DegreeDistribution,
    EdgeList,
    ParallelConfig,
    generate_graph,
    swap_edges,
)
from repro.datasets import load
from repro.graph.io import (
    load_edge_list,
    load_metis,
    save_edge_list,
    save_metis,
)


class TestGenerateSaveLoadSwap:
    def test_full_cycle_text(self, tmp_path):
        """Generate → save → load → randomize → degrees preserved."""
        dist = load("Meso")
        cfg = ParallelConfig(threads=4, seed=1)
        g, _ = generate_graph(dist, swap_iterations=2, config=cfg)
        path = tmp_path / "graph.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.same_graph(g)
        null = swap_edges(loaded, 5, cfg)
        assert null.is_simple()
        np.testing.assert_array_equal(
            np.sort(null.degree_sequence()), np.sort(g.degree_sequence())
        )

    def test_full_cycle_metis(self, tmp_path):
        dist = load("Meso")
        g, _ = generate_graph(dist, swap_iterations=1, config=ParallelConfig(seed=2))
        path = tmp_path / "graph.metis"
        save_metis(g, path)
        assert load_metis(path).same_graph(g)

    def test_distribution_roundtrip_through_graph(self):
        """dist → graph → measured dist ≈ input (after swaps, exact-m HH)."""
        from repro.bench.harness import uniform_reference

        dist = load("Meso")
        g = uniform_reference(dist, ParallelConfig(seed=3), swap_iterations=4)
        measured = DegreeDistribution.from_graph(g)
        assert measured == dist


class TestSolverPipelineInterop:
    def test_lsq_probabilities_through_full_pipeline(self):
        from repro.core.solvers import solve_probabilities_lsq

        dist = DegreeDistribution([1, 2, 3, 8], [20, 10, 6, 2])
        prob = solve_probabilities_lsq(dist)
        g, report = generate_graph(
            dist, swap_iterations=3, config=ParallelConfig(seed=4), probabilities=prob
        )
        assert g.is_simple()
        assert report.swap_stats.iterations == 3

    def test_corrected_weights_through_edge_skip_and_swaps(self):
        from repro.generators.corrected_chung_lu import corrected_bernoulli_chung_lu

        dist = load("Meso")
        g, res = corrected_bernoulli_chung_lu(dist, ParallelConfig(seed=5))
        assert res.converged
        null = swap_edges(g, 3, ParallelConfig(seed=5))
        assert null.is_simple()


class TestHierarchyInterop:
    def test_lfr_graph_feeds_motif_kernels(self):
        from repro.graph.csr import transitivity, triangle_count
        from repro.hierarchy import LFRParams, lfr_like

        out = lfr_like(LFRParams(n=300, mu=0.2, d_max=20), ParallelConfig(seed=6))
        t = triangle_count(out.graph)
        assert t >= 0
        assert 0.0 <= transitivity(out.graph) <= 1.0

    def test_lfr_communities_survive_null_model_comparison(self):
        """Modularity of planted communities collapses under rewiring —
        the hypothesis-testing workflow LFR benchmarks exist for."""
        from repro.hierarchy import LFRParams, lfr_like, modularity

        out = lfr_like(LFRParams(n=400, mu=0.15, d_max=20), ParallelConfig(seed=7))
        q_real = modularity(out.graph, out.communities)
        null = swap_edges(out.graph, 8, ParallelConfig(seed=7))
        q_null = modularity(null, out.communities)
        assert q_real > q_null + 0.2


class TestDirectedInterop:
    def test_undirected_projection_of_directed_null_model(self):
        from repro.directed import (
            DirectedDegreeDistribution,
            directed_generate_graph,
        )

        rng = np.random.default_rng(8)
        u = rng.integers(0, 100, 400)
        v = rng.integers(0, 100, 400)
        from repro.directed.edgelist import DirectedEdgeList

        base = DirectedEdgeList(u[u != v], v[u != v], 100).simplify()
        dist = DirectedDegreeDistribution.from_graph(base)
        dg, _ = directed_generate_graph(
            dist, swap_iterations=2, config=ParallelConfig(seed=8)
        )
        # project to undirected and keep analyzing with undirected tools
        und = EdgeList(dg.u, dg.v, dg.n).simplify()
        assert und.is_simple()
        assert und.m <= dg.m
