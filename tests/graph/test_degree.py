"""Tests for DegreeDistribution and Erdős–Gallai graphicality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.degree import (
    DegreeDistribution,
    NonGraphicalError,
    graphicality_violation,
    is_graphical,
)
from repro.graph.edgelist import EdgeList


class TestConstruction:
    def test_basic(self, small_dist):
        assert small_dist.n_classes == 4
        assert small_dist.n == 13
        assert small_dist.stub_count() == 6 + 8 + 6 + 6
        assert small_dist.m == 13

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DegreeDistribution([2, 1], [2, 2])

    def test_rejects_duplicate_degrees(self):
        with pytest.raises(ValueError):
            DegreeDistribution([2, 2], [1, 1])

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            DegreeDistribution([0, 1], [2, 2])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            DegreeDistribution([1, 2], [0, 2])

    def test_rejects_odd_stub_sum(self):
        with pytest.raises(ValueError, match="even"):
            DegreeDistribution([1, 2], [1, 2])

    def test_empty(self):
        d = DegreeDistribution([], [])
        assert d.n == 0 and d.m == 0 and d.d_max == 0 and d.d_avg == 0.0

    def test_from_degree_sequence(self):
        d = DegreeDistribution.from_degree_sequence([3, 1, 1, 3, 0, 0])
        np.testing.assert_array_equal(d.degrees, [1, 3])
        np.testing.assert_array_equal(d.counts, [2, 2])

    def test_from_graph(self, ring_graph):
        d = DegreeDistribution.from_graph(ring_graph)
        np.testing.assert_array_equal(d.degrees, [2])
        np.testing.assert_array_equal(d.counts, [10])

    def test_equality_and_hash(self, small_dist):
        other = DegreeDistribution([1, 2, 3, 6], [6, 4, 2, 1])
        assert small_dist == other
        assert hash(small_dist) == hash(other)
        assert small_dist != DegreeDistribution([1], [2])

    def test_repr(self, small_dist):
        assert "classes=4" in repr(small_dist)


class TestDerived:
    def test_d_max_d_avg(self, small_dist):
        assert small_dist.d_max == 6
        assert small_dist.d_avg == pytest.approx(26 / 13)

    def test_expand_sorted_ascending(self, small_dist):
        seq = small_dist.expand()
        assert len(seq) == 13
        assert (np.diff(seq) >= 0).all()
        np.testing.assert_array_equal(np.unique(seq), small_dist.degrees)

    def test_class_offsets(self, small_dist):
        np.testing.assert_array_equal(small_dist.class_offsets(), [0, 6, 10, 12, 13])

    def test_class_of_degree(self, small_dist):
        np.testing.assert_array_equal(
            small_dist.class_of_degree(np.asarray([1, 6, 4, 2])), [0, 3, -1, 1]
        )

    def test_roundtrip_through_expand(self, skewed_dist):
        d2 = DegreeDistribution.from_degree_sequence(skewed_dist.expand())
        assert d2 == skewed_dist


class TestErdosGallai:
    def test_empty_graphical(self):
        assert is_graphical([])

    def test_regular(self):
        assert is_graphical([2, 2, 2])

    def test_complete_graph(self):
        assert is_graphical([4] * 5)

    def test_odd_sum_not_graphical(self):
        assert not is_graphical([1, 1, 1])

    def test_degree_exceeds_n(self):
        assert not is_graphical([3, 1, 1, 1][0:3])  # [3,1,1]: d=3 >= n=3

    def test_star(self):
        assert is_graphical([3, 1, 1, 1])

    def test_classic_non_graphical(self):
        # even sum but fails EG: three vertices want degree 3, only 1 partner-slot
        assert not is_graphical([3, 3, 1, 1])

    def test_negative(self):
        assert not is_graphical([-2, 2])

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_networkx(self, seq):
        import networkx as nx

        assert is_graphical(seq) == nx.is_graphical(seq, method="eg")

    @given(st.integers(2, 40), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_property_real_graphs_are_graphical(self, n, seed):
        """Degree sequences harvested from actual graphs must pass."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, n * 2))
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        keep = u != v
        g = EdgeList(u[keep], v[keep], n).simplify()
        assert is_graphical(g.degree_sequence())

    def test_dist_is_graphical_method(self, small_dist):
        assert small_dist.is_graphical()

    def test_dist_not_graphical(self):
        d = DegreeDistribution([1, 3], [1, 3])  # [3,3,3,1]
        assert not d.is_graphical()


class TestGraphicalityViolation:
    """graphicality_violation names the *first* violated condition."""

    def test_graphical_returns_none(self):
        assert graphicality_violation([2, 2, 2]) is None
        assert graphicality_violation([]) is None

    def test_negative_degree_named(self):
        msg = graphicality_violation([2, -2])
        assert msg is not None and "negative degree" in msg

    def test_odd_sum_named(self):
        msg = graphicality_violation([1, 1, 1])
        assert msg is not None and "odd" in msg

    def test_degree_exceeds_vertex_count_named(self):
        msg = graphicality_violation([3, 3])
        assert msg is not None and "vertex count" in msg

    def test_erdos_gallai_prefix_named(self):
        msg = graphicality_violation([3, 3, 1, 1])
        assert msg is not None and "k=" in msg and "bound" in msg

    def test_first_violated_prefix_is_reported(self):
        msg = graphicality_violation([3, 3, 1, 1])
        assert msg is not None
        k = int(msg.split("k=")[1].split()[0])
        seq = np.sort(np.asarray([3, 3, 1, 1]))[::-1]
        for i in range(1, k):
            lhs = int(seq[:i].sum())
            rhs = i * (i - 1) + int(np.minimum(seq[i:], i).sum())
            assert lhs <= rhs  # every earlier prefix holds

    def test_is_graphical_agrees_with_violation(self):
        for seq in ([2, 2, 2], [3, 3, 1, 1], [1, 1, 1], [5, 1], [-1, 1]):
            assert is_graphical(seq) == (graphicality_violation(seq) is None)

    def test_generate_rejects_non_graphical(self):
        from repro.core.generate import generate_graph
        from repro.parallel.runtime import ParallelConfig

        with pytest.raises(NonGraphicalError) as exc:
            generate_graph(
                DegreeDistribution([3], [2]), config=ParallelConfig(seed=1)
            )
        assert "not graphical" in str(exc.value)
