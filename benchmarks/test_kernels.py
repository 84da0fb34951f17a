"""Microbenchmarks of the parallel substrate kernels.

Throughput numbers for the primitives every phase is built from: packed
edge keys, TestAndSet, prefix sums, geometric skip sampling, and the
Havel–Hakimi realization that starts the swap chain.  The paper
reports ~1 billion edges/second end-to-end on 16 cores of its testbed;
these kernels are the vectorized equivalents whose throughput bounds
this reproduction.
"""

import numpy as np
import pytest

from repro.core.edge_skip import skip_positions, triangle_unrank
from repro.parallel.hashtable import ConcurrentEdgeHashTable, pack_edges
from repro.parallel.prefix import blocked_prefix_sum
from repro.parallel.runtime import ParallelConfig

M = 1_000_000


@pytest.fixture(scope="module")
def endpoints():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**21, M), rng.integers(0, 2**21, M)


def test_bench_pack_edges(benchmark, endpoints):
    u, v = endpoints
    keys = benchmark(pack_edges, u, v)
    assert len(keys) == M


def test_bench_hashtable_insert(benchmark, endpoints):
    u, v = endpoints
    keys = pack_edges(u, v)

    def run():
        t = ConcurrentEdgeHashTable(M)
        t.test_and_set(keys)
        return t

    assert benchmark(run).size > 0


def test_bench_hashtable_membership(benchmark, endpoints):
    u, v = endpoints
    keys = pack_edges(u, v)
    t = ConcurrentEdgeHashTable(M)
    t.test_and_set(keys)
    found = benchmark(t.contains, keys)
    assert found.all()


def test_bench_prefix_sum(benchmark):
    values = np.random.default_rng(1).integers(0, 100, M)
    out = benchmark(blocked_prefix_sum, values, ParallelConfig(threads=16))
    assert out[-1] == values.sum()


def test_bench_skip_positions(benchmark):
    out = benchmark(skip_positions, 0.1, 10_000_000, 3)
    assert len(out) > 0


def test_bench_triangle_unrank(benchmark):
    pos = np.random.default_rng(2).integers(0, 2**40, M)
    u, v = benchmark(triangle_unrank, pos)
    assert (v < u).all()


def test_bench_connected_components(benchmark):
    from repro.graph.components import connected_components
    from repro.graph.edgelist import EdgeList

    rng = np.random.default_rng(4)
    n = 200_000
    u = rng.integers(0, n, n)
    g = EdgeList(u, (u + 1 + rng.integers(0, n - 1, n)) % n, n)
    comp = benchmark(connected_components, g)
    assert len(comp) == n


def test_bench_triangle_count_small(benchmark):
    from repro.graph.csr import triangle_count
    from repro.graph.edgelist import EdgeList

    rng = np.random.default_rng(5)
    u = rng.integers(0, 500, 3000)
    v = rng.integers(0, 500, 3000)
    g = EdgeList(u[u != v], v[u != v], 500).simplify()
    t = benchmark(triangle_count, g)
    assert t >= 0


def test_bench_erdos_gallai(benchmark):
    from repro.datasets import load
    from repro.graph.degree import is_graphical

    seq = load("Friendster").expand()
    assert benchmark(is_graphical, seq)


def test_bench_havel_hakimi(benchmark):
    """The benchmark's swap-sparse input (m ≈ 9.6e5, d_max = 465)."""
    from repro.bench.scale import scale_dataset
    from repro.generators.havel_hakimi import havel_hakimi_graph

    dist = scale_dataset(650_000, seed=101)
    g = benchmark(havel_hakimi_graph, dist)
    np.testing.assert_array_equal(g.degree_sequence(), dist.expand())
