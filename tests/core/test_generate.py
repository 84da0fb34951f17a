"""Tests for the end-to-end pipeline (Algorithm IV.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generate import generate_graph
from repro.core.probabilities import generate_probabilities
from repro.datasets.synthetic import sampled_powerlaw
from repro.graph.degree import DegreeDistribution
from repro.graph.stats import percent_error
from repro.parallel.runtime import ParallelConfig


class TestEndToEnd:
    def test_output_simple(self, skewed_dist, cfg):
        g, _ = generate_graph(skewed_dist, swap_iterations=3, config=cfg)
        assert g.is_simple()
        assert g.n == skewed_dist.n

    def test_matches_edge_count_in_expectation(self, skewed_dist):
        sizes = [
            generate_graph(skewed_dist, swap_iterations=0, config=ParallelConfig(seed=s))[0].m
            for s in range(30)
        ]
        assert abs(percent_error(np.mean(sizes), skewed_dist.m)) < 8.0

    def test_zero_iterations_skips_swap(self, small_dist, cfg):
        _, report = generate_graph(small_dist, swap_iterations=0, config=cfg)
        assert report.swap_stats.iterations == 0

    def test_report_phases(self, small_dist, cfg):
        _, report = generate_graph(small_dist, swap_iterations=2, config=cfg)
        assert set(report.phase_seconds) == {"probabilities", "edge_generation", "swap"}
        # the true wall measurement covers the phases plus the (small)
        # inter-phase bookkeeping
        assert report.wall_seconds is not None
        assert report.total_seconds == report.wall_seconds
        assert report.total_seconds >= sum(report.phase_seconds.values()) - 1e-9
        # fresh run: nothing banked, cumulative == this call
        assert report.prior_phase_seconds == {}
        assert report.cumulative_seconds == pytest.approx(report.total_seconds)
        assert report.cumulative_phase_seconds == pytest.approx(report.phase_seconds)
        assert report.edges_generated > 0
        assert report.swap_stats.iterations == 2

    def test_cost_model_has_all_phases(self, small_dist, cfg):
        _, report = generate_graph(small_dist, swap_iterations=1, config=cfg)
        names = set(report.cost.phase_names())
        assert {"probabilities", "edge_generation", "permutation", "swap"} <= names

    def test_precomputed_probabilities_reused(self, small_dist, cfg):
        prob = generate_probabilities(small_dist)
        _, report = generate_graph(
            small_dist, swap_iterations=0, config=cfg, probabilities=prob
        )
        assert report.probabilities is prob

    def test_probability_kwargs_forwarded(self, small_dist, cfg):
        _, report = generate_graph(
            small_dist,
            swap_iterations=0,
            config=cfg,
            probability_kwargs={"passes": 2},
        )
        assert report.probabilities is not None

    def test_callback_forwarded(self, small_dist, cfg):
        seen = []
        generate_graph(
            small_dist, swap_iterations=3, config=cfg,
            callback=lambda it, g: seen.append(it),
        )
        assert seen == [0, 1, 2]

    def test_reproducible(self, skewed_dist):
        a, _ = generate_graph(skewed_dist, swap_iterations=2, config=ParallelConfig(seed=5))
        b, _ = generate_graph(skewed_dist, swap_iterations=2, config=ParallelConfig(seed=5))
        assert a.same_graph(b)

    def test_different_seeds_differ(self, skewed_dist):
        a, _ = generate_graph(skewed_dist, swap_iterations=1, config=ParallelConfig(seed=1))
        b, _ = generate_graph(skewed_dist, swap_iterations=1, config=ParallelConfig(seed=2))
        assert not a.same_graph(b)

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_property_random_distributions(self, seed):
        dist = sampled_powerlaw(80, 2.3, 1, 20, seed=seed)
        g, _ = generate_graph(dist, swap_iterations=2, config=ParallelConfig(seed=seed))
        assert g.is_simple()
        assert g.n == dist.n

    def test_degree_distribution_shape_preserved(self, skewed_dist):
        """Mean realized degree per class tracks the target."""
        from repro.graph.stats import vertex_classes

        cls = vertex_classes(skewed_dist)
        acc = np.zeros(skewed_dist.n_classes)
        runs = 15
        for s in range(runs):
            g, _ = generate_graph(
                skewed_dist, swap_iterations=0, config=ParallelConfig(seed=100 + s)
            )
            deg = g.degree_sequence()
            acc += np.bincount(cls, weights=deg, minlength=skewed_dist.n_classes)
        mean_deg = acc / (runs * skewed_dist.counts)
        rel = np.abs(mean_deg - skewed_dist.degrees) / skewed_dist.degrees
        assert rel.mean() < 0.12

    def test_serial_backend_end_to_end(self, small_dist):
        cfg = ParallelConfig(threads=1, backend="serial", seed=11)
        g, _ = generate_graph(small_dist, swap_iterations=2, config=cfg)
        assert g.is_simple()
