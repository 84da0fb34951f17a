"""The O(m) Chung-Lu model and its erased variant.

Section II-C: set each vertex weight to its target degree and make 2m
biased draws with replacement; consecutive draws pair into undirected
edges.  The result is a uniformly random *loopy multigraph* whose degrees
match the target in expectation — the "CL O(m)" baseline of Figures 3–5.
Erasing the self loops and multi-edges afterwards gives the *erased*
model of Britton et al. [8] ("O(m) simple"), whose output-degree error is
what Figure 2 plots.

Vertices use the degree-ordered labelling shared by all generators in
this library, so attachment matrices stay comparable across methods.

The draws are embarrassingly parallel: each chunk of the 2m-draw loop
samples with its own RNG stream.
"""

from __future__ import annotations

import numpy as np

from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.cost_model import CostModel
from repro.parallel.runtime import ParallelConfig, chunk_map

__all__ = ["chung_lu_om", "erased_chung_lu"]


def _draw_kernel(lo: int, hi: int, seed: int, weights: np.ndarray, method: str) -> np.ndarray:
    from repro.generators.sampling import make_sampler

    sampler = make_sampler(weights, method)
    return sampler.sample(hi - lo, np.random.default_rng(seed))


def chung_lu_om(
    dist: DegreeDistribution,
    config: ParallelConfig | None = None,
    *,
    sampler: str = "binary",
    cost: CostModel | None = None,
) -> EdgeList:
    """Generate a loopy multigraph with 2m weighted draws (O(m) model).

    Parameters
    ----------
    dist:
        Target degree distribution.
    sampler:
        ``"binary"`` — O(log n) per draw, the paper's method; or
        ``"alias"`` — O(1) per draw (ablation).
    cost:
        Optional cost model; receives a ``"draws"`` phase with
        O(m log n) (or O(m)) work.
    """
    config = config or ParallelConfig()
    weights = dist.expand().astype(np.float64)
    n_draws = dist.stub_count()

    chunks = chunk_map(_draw_kernel, n_draws, config, weights, sampler)
    draws = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    u = draws[0::2]
    v = draws[1::2]
    if cost is not None:
        per_draw = np.log2(max(dist.n, 2)) if sampler == "binary" else 1.0
        # a zero-stub distribution does no draws, so its span is 0 too
        cost.add("draws", work=n_draws * per_draw,
                 depth=per_draw if n_draws else 0.0)
    return EdgeList(u, v, dist.n)


def erased_chung_lu(
    dist: DegreeDistribution,
    config: ParallelConfig | None = None,
    *,
    sampler: str = "binary",
    cost: CostModel | None = None,
) -> EdgeList:
    """O(m) Chung-Lu followed by erasure of loops and multi-edges.

    The "O(m) simple" baseline.  Output degrees systematically fall short
    of the target for skewed distributions — the error Figure 2 reports.
    """
    graph = chung_lu_om(dist, config, sampler=sampler, cost=cost)
    if cost is not None:
        # for m <= 2 the log2 span estimate exceeds the edge count itself
        cost.add("erase", work=graph.m,
                 depth=min(float(graph.m), np.log2(max(graph.m, 2))))
    return graph.simplify()
