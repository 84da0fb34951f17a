"""Seeded regression goldens for the headline reproduction numbers.

Every quantity below is produced by a fixed-seed run, so drift means a
*semantic* change to an algorithm (not sampling noise).  Ranges are
deliberately loose enough to survive numpy version changes in RNG-free
arithmetic but tight enough to catch a broken kernel: e.g. a swap
acceptance rate moving by 0.1, or the probability heuristic's residual
doubling.
"""

import numpy as np
import pytest

from repro import DegreeDistribution, ParallelConfig, generate_graph
from repro.core.probabilities import expected_degrees, generate_probabilities
from repro.core.swap import SwapStats, swap_edges
from repro.datasets import load
from repro.generators.havel_hakimi import havel_hakimi_graph
from tests.drills import use_reference_engine


class TestProbabilityGoldens:
    def test_meso_expected_degree_error(self):
        dist = load("Meso")
        res = generate_probabilities(dist)
        got = expected_degrees(res.P, dist)
        rel = (np.abs(got - dist.degrees) / dist.degrees).mean()
        # measured 0.0140 at the time of recording
        assert 0.005 < rel < 0.03

    def test_as20_residual_fraction(self):
        dist = load("as20")
        res = generate_probabilities(dist)
        frac = res.residual_stubs.sum() / dist.stub_count()
        # measured 0.0298
        assert 0.01 < frac < 0.06


class TestPipelineGoldens:
    def test_meso_edge_deficit(self):
        dist = load("Meso")
        sizes = [
            generate_graph(dist, swap_iterations=0, config=ParallelConfig(seed=s))[0].m
            for s in range(8)
        ]
        deficit = 1.0 - np.mean(sizes) / dist.m
        # ours loses ~1.5-4% of edges pre-swap (vs ~10-16% for baselines)
        assert 0.0 < deficit < 0.06

    def test_as20_swap_acceptance(self):
        dist = load("as20")
        g = havel_hakimi_graph(dist)
        stats = SwapStats()
        swap_edges(g, 3, ParallelConfig(seed=7), stats=stats)
        # measured ~0.50 on this skew level
        assert 0.35 < stats.acceptance_rate < 0.65

    def test_livejournal_swapped_fraction_first_iteration(self):
        dist = load("LiveJournal")
        g = havel_hakimi_graph(dist)
        stats = SwapStats()
        swap_edges(g, 1, ParallelConfig(seed=7), stats=stats)
        # measured 0.693 at default twin scale
        assert 0.60 < stats.swapped_fraction < 0.80


class TestBaselineGoldens:
    def test_erased_deficit_band(self):
        from repro.generators.chung_lu import erased_chung_lu

        dist = load("as20")
        sizes = [erased_chung_lu(dist, ParallelConfig(seed=s)).m for s in range(5)]
        deficit = 1.0 - np.mean(sizes) / dist.m
        # measured ~0.155; must stay far above ours (~0.03)
        assert 0.10 < deficit < 0.25

    def test_om_multi_edge_band(self):
        from repro.generators.chung_lu import chung_lu_om

        dist = load("as20")
        g = chung_lu_om(dist, ParallelConfig(seed=3))
        frac = (g.count_multi_edges() + g.count_self_loops()) / g.m
        # measured ~0.16 — the "expected number of multi-edges exceeds
        # one" regime that makes repeated configuration impractical
        assert 0.08 < frac < 0.30


def _golden_chunk_kernel(lo, hi, seed):
    """Kernel for the chunk_map golden."""
    return np.random.default_rng(seed).integers(0, 1000, size=hi - lo)


class TestExactBackendGoldens:
    """Exact-output pins catching drift in backend refactors.

    Unlike the banded goldens above, these assert bit-exact results: the
    swap engine and the chunk mapper are deterministic for a fixed seed,
    and the swap chain must reproduce the same bits on its reference
    kernels (``serial``, :func:`tests.drills.use_reference_engine`).
    """

    @staticmethod
    def _golden_graph():
        from repro.graph.edgelist import EdgeList

        rng = np.random.default_rng(42)
        u = rng.integers(0, 60, 400)
        v = rng.integers(0, 60, 400)
        keep = u != v
        return EdgeList(u[keep], v[keep], 60).simplify()

    @pytest.mark.parametrize("backend", ["vectorized", "serial"])
    def test_swap_edges_exact_output(self, backend, monkeypatch):
        from repro.parallel.hashtable import pack_edges

        if backend == "serial":
            use_reference_engine(monkeypatch)
        g = self._golden_graph()
        stats = SwapStats()
        out = swap_edges(
            g, 4, ParallelConfig(threads=4, seed=2020), stats=stats,
        )
        keys = np.sort(pack_edges(out.u, out.v))
        assert out.m == 358
        assert int(keys.sum()) == 30988189054908
        assert keys[:5].tolist() == [2, 5, 12, 18, 44]
        assert stats.proposed == 716
        assert stats.accepted == 354

    def test_process_chunk_map_exact_output(self):
        from repro.parallel.runtime import chunk_map

        cfg = ParallelConfig(threads=4, seed=5)
        out = np.concatenate(chunk_map(_golden_chunk_kernel, 32, cfg))
        assert int(out.sum()) == 17623
        assert out[:8].tolist() == [336, 948, 126, 557, 782, 68, 315, 15]
        assert out[-4:].tolist() == [296, 792, 175, 823]


class TestUniformityGolden:
    def test_two_regular_six_vertices(self):
        from repro.graph.edgelist import EdgeList
        from repro.graph.components import component_sizes

        u = np.arange(6)
        start = EdgeList(u, (u + 1) % 6, 6)
        hits = 0
        runs = 300
        for s in range(runs):
            out = swap_edges(start, 12, ParallelConfig(seed=s))
            hits += len(component_sizes(out)) == 1
        # analytic 6/7 = 0.857; binomial sd ~0.02
        assert 0.78 < hits / runs < 0.93
