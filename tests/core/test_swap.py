"""Tests for parallel double-edge swaps (Algorithm III.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.swap import SwapStats, serial_swap_chain, swap_edges
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig


def random_simple_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, 3 * m)
    v = rng.integers(0, n, 3 * m)
    keep = u != v
    g = EdgeList(u[keep], v[keep], n).simplify()
    return EdgeList(g.u[:m], g.v[:m], n)


class TestInvariants:
    """Swaps must preserve degrees and never break simplicity."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degree_sequence_preserved(self, seed):
        g = random_simple_graph(50, 120, seed)
        out = swap_edges(g, 5, ParallelConfig(threads=4, seed=seed))
        np.testing.assert_array_equal(g.degree_sequence(), out.degree_sequence())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_simplicity_preserved(self, seed):
        g = random_simple_graph(40, 100, seed)
        out = swap_edges(g, 8, ParallelConfig(threads=4, seed=seed))
        assert out.is_simple()

    def test_edge_count_preserved(self, ring_graph, cfg):
        assert swap_edges(ring_graph, 3, cfg).m == ring_graph.m

    def test_zero_iterations_identity(self, ring_graph, cfg):
        out = swap_edges(ring_graph, 0, cfg)
        assert out.same_graph(ring_graph)

    def test_negative_iterations(self, ring_graph, cfg):
        with pytest.raises(ValueError):
            swap_edges(ring_graph, -1, cfg)

    def test_input_not_mutated(self, ring_graph, cfg):
        u0 = ring_graph.u.copy()
        swap_edges(ring_graph, 4, cfg)
        np.testing.assert_array_equal(ring_graph.u, u0)

    def test_empty_graph(self, cfg):
        g = EdgeList([], [], n=4)
        assert swap_edges(g, 3, cfg).m == 0

    def test_single_edge_cannot_swap(self, cfg):
        g = EdgeList([0], [1], n=3)
        out = swap_edges(g, 3, cfg)
        assert out.same_graph(g)

    def test_reproducible_for_seed(self):
        g = random_simple_graph(30, 60, 3)
        a = swap_edges(g, 4, ParallelConfig(seed=9))
        b = swap_edges(g, 4, ParallelConfig(seed=9))
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)

    @given(st.integers(0, 2**31), st.integers(2, 60))
    @settings(max_examples=30, deadline=None)
    def test_property_invariants(self, seed, n):
        g = random_simple_graph(n, 2 * n, seed)
        out = swap_edges(g, 3, ParallelConfig(threads=3, seed=seed))
        assert out.is_simple()
        np.testing.assert_array_equal(g.degree_sequence(), out.degree_sequence())

    @pytest.mark.parametrize("probing", ["linear", "quadratic"])
    def test_probing_variants(self, probing):
        g = random_simple_graph(40, 90, 5)
        out = swap_edges(g, 4, ParallelConfig(seed=1), probing=probing)
        assert out.is_simple()


class TestMultigraphSimplification:
    """The O(m) model's loops and multi-edges can only be destroyed."""

    def test_self_loops_decrease(self):
        # path + self loops
        u = np.asarray([0, 1, 2, 3, 4, 0, 1])
        v = np.asarray([1, 2, 3, 4, 5, 0, 1])
        g = EdgeList(u, v)
        loops0 = g.count_self_loops()
        out = swap_edges(g, 20, ParallelConfig(seed=2))
        assert out.count_self_loops() <= loops0
        np.testing.assert_array_equal(
            np.sort(g.degree_sequence()), np.sort(out.degree_sequence())
        )

    def test_multigraph_eventually_simple(self):
        from repro.datasets.synthetic import deterministic_powerlaw
        from repro.generators.chung_lu import chung_lu_om

        dist = deterministic_powerlaw(300, 4.0, 30, 10)
        g = chung_lu_om(dist, ParallelConfig(seed=4))
        assert not g.is_simple()
        out = swap_edges(g, 30, ParallelConfig(seed=4))
        assert out.count_self_loops() == 0
        assert out.count_multi_edges() <= 1  # the paper: "about two dozen
        # or so swap iterations is sufficient to eliminate all multi-edges"

    def test_never_creates_defects(self):
        u = np.asarray([0, 0, 1, 2, 3])
        v = np.asarray([1, 1, 2, 3, 0])
        g = EdgeList(u, v)
        for it in (1, 2, 4, 8):
            out = swap_edges(g, it, ParallelConfig(seed=it))
            assert out.count_self_loops() <= g.count_self_loops()
            assert out.count_multi_edges() <= g.count_multi_edges()


class TestSwapStats:
    def test_counts_consistent(self):
        g = random_simple_graph(50, 150, 7)
        stats = SwapStats()
        swap_edges(g, 5, ParallelConfig(seed=7), stats=stats)
        assert stats.iterations == 5
        assert stats.proposed == 5 * (g.m // 2)
        assert stats.accepted == sum(stats.accepted_per_iteration)
        assert (
            stats.accepted + stats.rejected_duplicate + stats.rejected_self_loop
            == stats.proposed
        )
        assert 0 < stats.acceptance_rate <= 1

    def test_swapped_fraction_monotone(self):
        g = random_simple_graph(60, 200, 8)
        stats = SwapStats()
        swap_edges(g, 6, ParallelConfig(seed=8), stats=stats)
        fr = stats.swapped_fraction_per_iteration
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert stats.swapped_fraction == fr[-1]
        assert 0 < stats.swapped_fraction <= 1

    def test_empty_stats(self):
        assert SwapStats().acceptance_rate == 0.0
        assert SwapStats().swapped_fraction == 0.0

    def test_callback_snapshots(self, cfg):
        g = random_simple_graph(30, 80, 9)
        seen = []
        swap_edges(g, 3, cfg, callback=lambda it, gr: seen.append((it, gr.m)))
        assert [s[0] for s in seen] == [0, 1, 2]
        assert all(m == g.m for _, m in seen)

    def test_cost_model_phases(self, cfg):
        from repro.parallel.cost_model import CostModel

        g = random_simple_graph(30, 80, 9)
        cost = CostModel()
        swap_edges(g, 2, cfg, cost=cost)
        assert cost.phase("permutation").work > 0
        assert cost.phase("swap").work == 2 * 2 * g.m

    def test_cost_model_seconds_are_measured(self, cfg, monkeypatch):
        """The permutation phase books the time the permutation took, and
        the swap phase only the rest of the round."""
        import time

        from repro.core import swap as swap_mod
        from repro.parallel.cost_model import CostModel

        delay = 0.05
        real = swap_mod.parallel_permutation

        def slow_permutation(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(swap_mod, "parallel_permutation", slow_permutation)
        g = random_simple_graph(30, 80, 9)
        iterations = 3
        cost = CostModel()
        swap_edges(g, iterations, cfg, cost=cost)
        assert cost.phase("permutation").seconds >= delay * iterations
        assert cost.phase("swap").seconds < delay


class TestSerialSwapChain:
    def test_invariants(self):
        g = random_simple_graph(20, 40, 1)
        out = serial_swap_chain(g, 500, 3)
        assert out.is_simple()
        np.testing.assert_array_equal(g.degree_sequence(), out.degree_sequence())

    def test_small_graph_stays(self):
        g = EdgeList([0], [1], n=2)
        out = serial_swap_chain(g, 10, 0)
        assert out.same_graph(g)

    def test_actually_moves(self):
        g = random_simple_graph(20, 40, 2)
        out = serial_swap_chain(g, 500, 4)
        assert not out.same_graph(g)

    def test_on_step_called(self):
        g = random_simple_graph(10, 15, 3)
        steps = []
        serial_swap_chain(g, 7, 5, on_step=lambda s, u, v: steps.append(s))
        assert steps == list(range(7))


class TestGraphSpaces:
    """Fosdick et al. [16]: the chain can walk different null spaces."""

    def test_unknown_space(self, ring_graph, cfg):
        with pytest.raises(ValueError, match="space"):
            swap_edges(ring_graph, 1, cfg, space="hypergraph")

    @pytest.mark.parametrize(
        "space", ["simple", "loopy", "multigraph", "loopy_multigraph"]
    )
    def test_degrees_preserved_in_every_space(self, space):
        g = random_simple_graph(40, 100, 3)
        out = swap_edges(g, 5, ParallelConfig(seed=4), space=space)
        np.testing.assert_array_equal(
            np.sort(g.degree_sequence()), np.sort(out.degree_sequence())
        )

    def test_loopy_multigraph_accepts_everything(self):
        g = random_simple_graph(40, 100, 5)
        stats = SwapStats()
        swap_edges(g, 3, ParallelConfig(seed=5), space="loopy_multigraph", stats=stats)
        assert stats.acceptance_rate == 1.0

    def test_loopy_space_allows_loops_not_duplicates(self):
        g = random_simple_graph(30, 80, 6)
        out = swap_edges(g, 10, ParallelConfig(seed=6), space="loopy")
        assert out.count_multi_edges() == 0

    def test_loopy_space_produces_loops_eventually(self):
        hit = 0
        for s in range(10):
            g = random_simple_graph(20, 60, 100 + s)
            out = swap_edges(g, 10, ParallelConfig(seed=s), space="loopy")
            hit += out.count_self_loops() > 0
        assert hit >= 5

    def test_multigraph_space_rejects_loops(self):
        for s in range(5):
            g = random_simple_graph(20, 60, 200 + s)
            out = swap_edges(g, 10, ParallelConfig(seed=s), space="multigraph")
            assert out.count_self_loops() == 0

    def test_multigraph_space_produces_duplicates_eventually(self):
        hit = 0
        for s in range(10):
            g = random_simple_graph(20, 60, 300 + s)
            out = swap_edges(g, 10, ParallelConfig(seed=s), space="multigraph")
            hit += out.count_multi_edges() > 0
        assert hit >= 5

    def test_simple_space_strictest_acceptance(self):
        g = random_simple_graph(50, 150, 7)
        rates = {}
        for space in ("simple", "loopy", "multigraph", "loopy_multigraph"):
            stats = SwapStats()
            swap_edges(g, 4, ParallelConfig(seed=8), space=space, stats=stats)
            rates[space] = stats.acceptance_rate
        assert rates["simple"] <= min(rates.values()) + 1e-9
        assert rates["loopy_multigraph"] == 1.0


class TestSpaceInvariantProperties:
    """Seeded property-based invariants over every null-model space.

    For arbitrary (possibly defective) inputs and every ``space`` mode:
    the degree sequence is preserved exactly, forbidden defects are never
    created, and multigraph inputs are monotonically simplified in the
    spaces that reject their defects (Section VIII-A).
    """

    @staticmethod
    def _random_multigraph(seed, n):
        """A graph with planted self loops and duplicate edges."""
        rng = np.random.default_rng(seed)
        m = 2 * n
        u = rng.integers(0, n, m)
        v = rng.integers(0, n, m)
        loops = np.arange(min(3, n))
        dup_u, dup_v = u[: m // 8], v[: m // 8]
        return EdgeList(
            np.concatenate([u, dup_u, loops]),
            np.concatenate([v, dup_v, loops]),
            n,
        )

    @given(st.integers(0, 2**31), st.integers(4, 50))
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize(
        "space", ["simple", "loopy", "multigraph", "loopy_multigraph"]
    )
    def test_degree_sequence_exact(self, space, seed, n):
        g = self._random_multigraph(seed, n)
        out = swap_edges(g, 3, ParallelConfig(threads=3, seed=seed), space=space)
        np.testing.assert_array_equal(g.degree_sequence(), out.degree_sequence())

    @given(st.integers(0, 2**31), st.integers(4, 50))
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize("space", ["simple", "loopy"])
    def test_no_multi_edges_created(self, space, seed, n):
        g = self._random_multigraph(seed, n)
        out = swap_edges(g, 3, ParallelConfig(seed=seed), space=space)
        assert out.count_multi_edges() <= g.count_multi_edges()

    @given(st.integers(0, 2**31), st.integers(4, 50))
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize("space", ["simple", "multigraph"])
    def test_no_self_loops_created(self, space, seed, n):
        g = self._random_multigraph(seed, n)
        out = swap_edges(g, 3, ParallelConfig(seed=seed), space=space)
        assert out.count_self_loops() <= g.count_self_loops()

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_simple_inputs_stay_simple_everywhere_defects_forbidden(self, seed):
        g = random_simple_graph(30, 80, seed)
        out = swap_edges(g, 4, ParallelConfig(seed=seed), space="simple")
        assert out.is_simple()

    @given(st.integers(0, 2**31), st.integers(6, 40))
    @settings(max_examples=10, deadline=None)
    def test_multigraph_monotonically_simplified(self, seed, n):
        """Per-iteration defect counts never increase in the simple space."""
        g = self._random_multigraph(seed, n)
        defects = []
        swap_edges(
            g, 6, ParallelConfig(seed=seed),
            callback=lambda it, gr: defects.append(
                gr.count_self_loops() + gr.count_multi_edges()
            ),
        )
        start = g.count_self_loops() + g.count_multi_edges()
        trace = [start] + defects
        assert all(b <= a for a, b in zip(trace, trace[1:])), trace


class TestSwapStatsAccumulation:
    """SwapStats reused across swap_edges calls must accumulate deltas."""

    def test_table_counters_accumulate_across_runs(self):
        g = random_simple_graph(50, 150, 11)
        stats = SwapStats()
        swap_edges(g, 2, ParallelConfig(seed=1), stats=stats)
        first_attempts = stats.table_attempts
        first_failures = stats.table_failures
        assert first_attempts > 0
        swap_edges(g, 2, ParallelConfig(seed=2), stats=stats)
        # regression: these were overwritten with `=` per iteration and
        # silently dropped the first run's counts
        assert stats.table_attempts > first_attempts
        assert stats.table_failures >= first_failures
        assert stats.iterations == 4

    def test_single_run_totals_unchanged_by_delta_accumulation(self):
        g = random_simple_graph(50, 150, 12)
        a, b = SwapStats(), SwapStats()
        swap_edges(g, 3, ParallelConfig(seed=3), stats=a)
        swap_edges(g, 3, ParallelConfig(seed=3), stats=b)
        assert a.table_attempts == b.table_attempts
        assert a.table_failures == b.table_failures

    def test_serial_chain_golden_pinned(self):
        """Integer-packed key arithmetic reproduces the numpy packing
        implementation bit-for-bit (fixed seed, fixed graph)."""
        from repro.parallel.hashtable import pack_edges

        n = 24
        u = np.arange(n)
        g = EdgeList(u, (u + 1) % n, n)
        out = serial_swap_chain(g, 500, rng=1234)
        keys = np.sort(pack_edges(out.u, out.v))
        assert int(keys.sum()) == 807453852012
        assert keys[0] == 3 and int(keys[-1]) == 81604378644
        np.testing.assert_array_equal(g.degree_sequence(), out.degree_sequence())
