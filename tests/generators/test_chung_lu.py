"""Tests for the O(m) Chung-Lu model and the erased variant."""

import numpy as np
import pytest

from repro.generators.chung_lu import chung_lu_om, erased_chung_lu
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig


class TestChungLuOm:
    def test_edge_count_exact(self, skewed_dist, cfg):
        g = chung_lu_om(skewed_dist, cfg)
        assert g.m == skewed_dist.m
        assert g.n == skewed_dist.n

    def test_degrees_match_in_expectation(self, skewed_dist):
        from repro.graph.stats import vertex_classes

        cls = vertex_classes(skewed_dist)
        acc = np.zeros(skewed_dist.n_classes)
        runs = 20
        for s in range(runs):
            g = chung_lu_om(skewed_dist, ParallelConfig(seed=s))
            acc += np.bincount(cls, weights=g.degree_sequence(),
                               minlength=skewed_dist.n_classes)
        mean_deg = acc / (runs * skewed_dist.counts)
        rel = np.abs(mean_deg - skewed_dist.degrees) / skewed_dist.degrees
        assert rel.mean() < 0.08

    def test_produces_defects_on_skew(self, skewed_dist, cfg):
        """The whole point of the paper: O(m) is not simple on skew."""
        g = chung_lu_om(skewed_dist, cfg)
        assert g.count_multi_edges() + g.count_self_loops() > 0

    def test_reproducible(self, skewed_dist):
        a = chung_lu_om(skewed_dist, ParallelConfig(seed=4))
        b = chung_lu_om(skewed_dist, ParallelConfig(seed=4))
        np.testing.assert_array_equal(a.u, b.u)

    def test_alias_sampler_variant(self, skewed_dist, cfg):
        g = chung_lu_om(skewed_dist, cfg, sampler="alias")
        assert g.m == skewed_dist.m

    def test_cost_accounting(self, small_dist, cfg):
        from repro.parallel.cost_model import CostModel

        cost = CostModel()
        chung_lu_om(small_dist, cfg, cost=cost)
        # binary-search sampling costs O(m log n)
        assert cost.phase("draws").work == pytest.approx(
            small_dist.stub_count() * np.log2(small_dist.n)
        )


class TestErasedChungLu:
    def test_always_simple(self, skewed_dist, cfg):
        assert erased_chung_lu(skewed_dist, cfg).is_simple()

    def test_fewer_edges_than_target_on_skew(self, skewed_dist, cfg):
        """Erasure systematically deletes edges (Figure 2's deficit)."""
        g = erased_chung_lu(skewed_dist, cfg)
        assert g.m < skewed_dist.m

    def test_max_degree_underproduced(self, skewed_dist):
        """The hub loses the most mass to multi-edge erasure."""
        maxes = [
            erased_chung_lu(skewed_dist, ParallelConfig(seed=s)).degree_sequence().max()
            for s in range(10)
        ]
        assert np.mean(maxes) < skewed_dist.d_max
