"""Cross-cutting randomized property tests.

Composite hypothesis strategies generate arbitrary graphical
distributions (by sampling a random simple graph and harvesting its
degrees — graphicality for free), then assert the invariants that must
hold across the *whole* library surface: every generator, every swap
space, every persistence format.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DegreeDistribution, EdgeList, ParallelConfig, generate_graph, swap_edges


@st.composite
def graphical_distributions(draw, max_n=60, max_m=150):
    """A graphical DegreeDistribution harvested from a random graph."""
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(4, max_n))
    m = draw(st.integers(2, max_m))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * m)
    v = rng.integers(0, n, 3 * m)
    keep = u != v
    g = EdgeList(u[keep], v[keep], n).simplify()
    if g.m < 2:
        g = EdgeList([0, 1, 2], [1, 2, 3], 4)
    return DegreeDistribution.from_graph(g)


@st.composite
def simple_graphs(draw, max_n=40, max_m=120):
    """An arbitrary simple graph."""
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * m + 1)
    v = rng.integers(0, n, 3 * m + 1)
    keep = u != v
    return EdgeList(u[keep], v[keep], n).simplify()


class TestPipelineProperties:
    @given(graphical_distributions(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_pipeline_always_simple_and_degree_faithful(self, dist, seed):
        g, report = generate_graph(
            dist, swap_iterations=2, config=ParallelConfig(seed=seed)
        )
        assert g.is_simple()
        assert g.n == dist.n
        # expected-edge accounting from the probability phase is coherent
        assert report.probabilities.total_expected_edges <= dist.m * 1.05 + 1

    @given(graphical_distributions())
    @settings(max_examples=20, deadline=None)
    def test_probability_invariants(self, dist):
        from repro.core.probabilities import expected_degrees, generate_probabilities

        res = generate_probabilities(dist)
        assert (res.P >= 0).all() and (res.P <= 1).all()
        got = expected_degrees(res.P, dist)
        # never overshoots: allocation is clamped from above
        assert (got <= dist.degrees + 1e-6).all()


class TestSwapProperties:
    @given(
        simple_graphs(),
        st.sampled_from(["simple", "loopy", "multigraph", "loopy_multigraph"]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_space_preserves_degrees(self, graph, space, seed):
        out = swap_edges(graph, 2, ParallelConfig(seed=seed), space=space)
        np.testing.assert_array_equal(
            np.sort(out.degree_sequence()), np.sort(graph.degree_sequence())
        )

    @given(simple_graphs(), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_simple_space_stays_simple(self, graph, seed):
        assert swap_edges(graph, 3, ParallelConfig(seed=seed)).is_simple()


class TestPersistenceProperties:
    @given(simple_graphs(), st.sampled_from(["txt", "npz", "metis"]))
    @settings(max_examples=20, deadline=None)
    def test_every_format_roundtrips(self, graph, fmt):
        import tempfile
        from pathlib import Path

        from repro.graph.io import (
            load_edge_list,
            load_metis,
            save_edge_list,
            save_metis,
        )

        with tempfile.TemporaryDirectory() as root:
            if fmt == "metis":
                path = Path(root) / "g.metis"
                save_metis(graph, path)
                back = load_metis(path)
            else:
                path = Path(root) / f"g.{fmt}"
                save_edge_list(graph, path)
                back = load_edge_list(path)
            assert back.same_graph(graph)
            assert back.n == graph.n

    @given(graphical_distributions())
    @settings(max_examples=20, deadline=None)
    def test_distribution_roundtrip(self, dist):
        import tempfile
        from pathlib import Path

        from repro.graph.io import load_degree_distribution, save_degree_distribution

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "d.txt"
            save_degree_distribution(dist, path)
            assert load_degree_distribution(path) == dist


class TestStatisticsProperties:
    @given(simple_graphs())
    @settings(max_examples=20, deadline=None)
    def test_attachment_matrix_well_formed(self, graph):
        from repro.graph.stats import attachment_probability_matrix

        if graph.m == 0:
            return
        dist = DegreeDistribution.from_graph(graph)
        # relabel the graph to class ordering so matrices are defined
        from repro.bench.harness import uniform_reference

        g = uniform_reference(dist, ParallelConfig(seed=0), swap_iterations=1)
        P = attachment_probability_matrix(g, dist)
        assert (P >= 0).all() and (P <= 1).all()
        np.testing.assert_allclose(P, P.T)

    @given(simple_graphs())
    @settings(max_examples=20, deadline=None)
    def test_triangles_consistent_with_transitivity(self, graph):
        from repro.graph.csr import transitivity, triangle_count, wedge_count

        t = triangle_count(graph)
        w = wedge_count(graph)
        trans = transitivity(graph)
        if w == 0:
            assert trans == 0.0
        else:
            assert trans == pytest.approx(3 * t / w)
        assert 0.0 <= trans <= 1.0

    @given(simple_graphs())
    @settings(max_examples=20, deadline=None)
    def test_components_partition(self, graph):
        from repro.graph.components import component_sizes, connected_components

        comp = connected_components(graph)
        sizes = component_sizes(graph)
        assert sizes.sum() == graph.n
        if graph.m:
            assert (comp[graph.u] == comp[graph.v]).all()
