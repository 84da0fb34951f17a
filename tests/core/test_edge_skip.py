"""Tests for the parallel edge-skipping generator (Algorithm IV.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from repro.core.edge_skip import generate_edges, skip_positions, triangle_unrank
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig


class TestSkipPositions:
    def test_p_zero(self):
        assert skip_positions(0.0, 100, 0).shape == (0,)

    def test_p_one_selects_all(self):
        np.testing.assert_array_equal(skip_positions(1.0, 5, 0), np.arange(5))

    def test_empty_space(self):
        assert skip_positions(0.5, 0, 0).shape == (0,)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            skip_positions(1.5, 10, 0)

    def test_bad_end(self):
        with pytest.raises(ValueError):
            skip_positions(0.5, -1, 0)

    def test_positions_sorted_unique_in_range(self):
        pos = skip_positions(0.3, 10_000, 42)
        assert (np.diff(pos) > 0).all()
        assert pos[0] >= 0 and pos[-1] < 10_000

    def test_reproducible(self):
        np.testing.assert_array_equal(
            skip_positions(0.2, 1000, 7), skip_positions(0.2, 1000, 7)
        )

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.7, 0.95])
    def test_count_matches_binomial(self, p):
        """Selection count is Binomial(end, p) — z-test over many runs."""
        end = 2000
        rng = np.random.default_rng(1)
        counts = [len(skip_positions(p, end, rng)) for _ in range(60)]
        mean = np.mean(counts)
        se = np.sqrt(end * p * (1 - p) / len(counts))
        assert abs(mean - end * p) < 5 * se + 1e-9

    def test_each_position_equally_likely(self):
        """Marginal inclusion probability is uniform across the space."""
        end, p, runs = 50, 0.3, 4000
        rng = np.random.default_rng(2)
        hits = np.zeros(end)
        for _ in range(runs):
            hits[skip_positions(p, end, rng)] += 1
        # chi-square against uniformity of hit counts
        chi2 = ((hits - hits.mean()) ** 2 / hits.mean()).sum()
        assert sps.chi2.sf(chi2, end - 1) > 1e-4

    # -- extreme probabilities: the log(1-p) underflow guard ---------------
    #
    # For p in the denormal range, log1p(-p) underflows toward -0.0-ish
    # denormals and log(r)/log1p(-p) lands beyond 2**63, where the int64
    # cast is undefined (it used to wrap to INT64_MIN and emit *negative*
    # "selected" positions).  The guard clamps skips to `end` in the float
    # domain, which is exact for every reachable skip.

    @pytest.mark.parametrize("p", [1e-320, 5e-324, 1e-100, 1e-19])
    def test_subnormal_p_no_bogus_selections(self, p):
        for seed in range(20):
            pos = skip_positions(p, 10_000, seed)
            assert (pos >= 0).all() and (pos < 10_000).all()
            assert (np.diff(pos) > 0).all()

    @given(st.integers(0, 2**32), st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_positions_always_in_range(self, seed, end):
        """Every position is valid for every p, including extremes."""
        for p in (1e-320, 1e-12, 0.5, 1.0 - 1e-12, 1.0):
            pos = skip_positions(p, end, seed)
            assert (pos >= 0).all() and (pos < end).all()
            assert (np.diff(pos) > 0).all()

    def test_tiny_p_expected_count(self):
        """E[#selected] = p*end still holds under the clamp for tiny p."""
        p, end, runs = 2e-5, 100_000, 300
        rng = np.random.default_rng(3)
        counts = [len(skip_positions(p, end, rng)) for _ in range(runs)]
        expect = p * end  # = 2 per run
        se = np.sqrt(expect / runs)
        assert abs(np.mean(counts) - expect) < 6 * se

    def test_subnormal_p_selects_nothing_in_practice(self):
        """p = 1e-320 over a modest space: selection probability ~ 1e-316."""
        for seed in range(50):
            assert len(skip_positions(1e-320, 10_000, seed)) == 0

    def test_p_near_one_selects_almost_all(self):
        p, end = 1.0 - 1e-12, 5_000
        counts = [len(skip_positions(p, end, s)) for s in range(30)]
        assert min(counts) >= end - 1  # at most one miss plausible, ~never
        assert max(counts) <= end

    def test_p_one_fast_path_is_exact(self):
        """p >= 1 bypasses the skip walk entirely: exhaustive selection."""
        for end in (1, 2, 17, 1000):
            np.testing.assert_array_equal(skip_positions(1.0, end, 0), np.arange(end))


class TestTriangleUnrank:
    def test_first_positions(self):
        u, v = triangle_unrank(np.asarray([0, 1, 2, 3]))
        np.testing.assert_array_equal(u, [1, 2, 2, 3])
        np.testing.assert_array_equal(v, [0, 0, 1, 0])

    def test_bijection_small(self):
        n = 40
        end = n * (n - 1) // 2
        u, v = triangle_unrank(np.arange(end))
        assert (v < u).all()
        assert (u < n).all()
        pairs = set(zip(u.tolist(), v.tolist()))
        assert len(pairs) == end

    def test_large_positions_exact(self):
        """Float sqrt rounding must be corrected for huge ranks."""
        pos = np.asarray([10**14, 10**14 + 1, 2 * 10**15])
        u, v = triangle_unrank(pos)
        back = u * (u - 1) // 2 + v
        np.testing.assert_array_equal(back, pos)

    @given(st.lists(st.integers(0, 2**45), min_size=1, max_size=50))
    def test_property_inverse(self, ranks):
        pos = np.asarray(ranks, dtype=np.int64)
        u, v = triangle_unrank(pos)
        assert (v >= 0).all() and (v < u).all()
        np.testing.assert_array_equal(u * (u - 1) // 2 + v, pos)


class TestGenerateEdges:
    def full_matrix(self, dist):
        return np.ones((dist.n_classes, dist.n_classes))

    def test_probability_one_gives_complete_graph(self, small_dist):
        g = generate_edges(self.full_matrix(small_dist), small_dist, ParallelConfig(seed=0))
        n = small_dist.n
        assert g.m == n * (n - 1) // 2
        assert g.is_simple()

    def test_probability_zero_gives_empty(self, small_dist):
        P = np.zeros((small_dist.n_classes, small_dist.n_classes))
        g = generate_edges(P, small_dist, ParallelConfig(seed=0))
        assert g.m == 0

    def test_output_always_simple(self, skewed_dist, cfg):
        rng = np.random.default_rng(5)
        k = skewed_dist.n_classes
        P = rng.random((k, k)) * 0.05
        P = (P + P.T) / 2
        g = generate_edges(P, skewed_dist, cfg)
        assert g.is_simple()

    def test_expected_edge_count(self, small_dist):
        """Mean output size matches sum of p * space size."""
        k = small_dist.n_classes
        P = np.full((k, k), 0.3)
        counts = small_dist.counts
        expect = 0.0
        for i in range(k):
            for j in range(i + 1):
                size = counts[i] * (counts[i] - 1) // 2 if i == j else counts[i] * counts[j]
                expect += 0.3 * size
        sizes = [
            generate_edges(P, small_dist, ParallelConfig(seed=s)).m for s in range(200)
        ]
        se = np.sqrt(expect) / np.sqrt(len(sizes))
        assert abs(np.mean(sizes) - expect) < 6 * se

    def test_asymmetric_matrix_rejected(self, small_dist):
        P = np.zeros((4, 4))
        P[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            generate_edges(P, small_dist, ParallelConfig(seed=0))

    def test_wrong_shape_rejected(self, small_dist):
        with pytest.raises(ValueError):
            generate_edges(np.zeros((2, 2)), small_dist, ParallelConfig(seed=0))

    def test_out_of_range_rejected(self, small_dist):
        P = np.full((4, 4), 1.5)
        with pytest.raises(ValueError):
            generate_edges(P, small_dist, ParallelConfig(seed=0))

    def test_serial_backend_simple_output(self, small_dist):
        P = self.full_matrix(small_dist) * 0.4
        g = generate_edges(P, small_dist, ParallelConfig(seed=3, backend="serial"))
        assert g.is_simple()

    def test_backends_statistically_consistent(self, small_dist):
        """Both backends draw from the same distribution."""
        P = self.full_matrix(small_dist) * 0.35
        sizes = {}
        for backend in ("vectorized", "serial"):
            sizes[backend] = np.mean(
                [
                    generate_edges(
                        P, small_dist, ParallelConfig(seed=s, backend=backend)
                    ).m
                    for s in range(120)
                ]
            )
        assert abs(sizes["vectorized"] - sizes["serial"]) < 6.0

    def test_vertices_stay_in_their_class(self, small_dist):
        """Edges from space (i, j) must join class-i and class-j vertices."""
        k = small_dist.n_classes
        # only allow hub (class 3) to degree-1 (class 0) edges
        P = np.zeros((k, k))
        P[0, 3] = P[3, 0] = 1.0
        g = generate_edges(P, small_dist, ParallelConfig(seed=0))
        offsets = small_dist.class_offsets()
        lo = np.minimum(g.u, g.v)
        hi = np.maximum(g.u, g.v)
        assert (lo < offsets[1]).all()  # class 0 ids
        assert (hi >= offsets[3]).all()  # hub id

    def test_diagonal_space_stays_in_class(self, small_dist):
        k = small_dist.n_classes
        P = np.zeros((k, k))
        P[1, 1] = 1.0
        g = generate_edges(P, small_dist, ParallelConfig(seed=0))
        offsets = small_dist.class_offsets()
        assert g.m == small_dist.counts[1] * (small_dist.counts[1] - 1) // 2
        assert (g.u >= offsets[1]).all() and (g.u < offsets[2]).all()
        assert (g.v >= offsets[1]).all() and (g.v < offsets[2]).all()

    def test_cost_model_records_work(self, small_dist):
        from repro.parallel.cost_model import CostModel

        cost = CostModel()
        generate_edges(self.full_matrix(small_dist) * 0.5, small_dist,
                       ParallelConfig(seed=1), cost=cost)
        phase = cost.phase("edge_generation")
        assert phase.work > 0 and phase.depth > 0


class TestSpaceSplitting:
    """The paper's within-space parallelization: splitting a Bernoulli
    space into segments is distribution-equivalent."""

    def test_split_preserves_total_size(self, small_dist):
        from repro.core.edge_skip import _space_table, split_spaces

        P = np.full((4, 4), 0.5)
        table = _space_table(P, small_dist)
        split = split_spaces(table, 5)
        assert split["end"].sum() == table["end"].sum()
        assert (split["end"] <= 5).all()

    def test_split_bases_tile_each_space(self, small_dist):
        from repro.core.edge_skip import _space_table, split_spaces

        P = np.full((4, 4), 0.5)
        table = _space_table(P, small_dist)
        split = split_spaces(table, 4)
        # segments of each parent space must tile [0, end)
        for s in range(len(table["p"])):
            mask = (split["i"] == table["i"][s]) & (split["j"] == table["j"][s])
            bases = np.sort(split["base"][mask])
            sizes = split["end"][mask][np.argsort(split["base"][mask])]
            assert bases[0] == 0
            np.testing.assert_array_equal(bases[1:], (bases + sizes)[:-1])

    def test_invalid_max_size(self, small_dist):
        from repro.core.edge_skip import _space_table, split_spaces

        table = _space_table(np.full((4, 4), 0.5), small_dist)
        with pytest.raises(ValueError):
            split_spaces(table, 0)

    def test_split_output_still_simple_and_unbiased(self, small_dist):
        """Mean edge count is unchanged by splitting."""
        P = np.full((4, 4), 0.3)
        plain = [
            generate_edges(P, small_dist, ParallelConfig(seed=s)).m
            for s in range(120)
        ]
        split = [
            generate_edges(
                P, small_dist, ParallelConfig(seed=1000 + s), max_space_size=4
            ).m
            for s in range(120)
        ]
        g = generate_edges(P, small_dist, ParallelConfig(seed=0), max_space_size=4)
        assert g.is_simple()
        assert abs(np.mean(plain) - np.mean(split)) < 6.0

    def test_split_vertices_stay_in_class(self, small_dist):
        k = small_dist.n_classes
        P = np.zeros((k, k))
        P[0, 3] = P[3, 0] = 1.0
        g = generate_edges(P, small_dist, ParallelConfig(seed=2), max_space_size=2)
        offsets = small_dist.class_offsets()
        assert g.m == small_dist.counts[0] * small_dist.counts[3]
        lo = np.minimum(g.u, g.v)
        hi = np.maximum(g.u, g.v)
        assert (lo < offsets[1]).all() and (hi >= offsets[3]).all()
