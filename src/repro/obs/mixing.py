"""Swap-chain mixing diagnostics: has the MCMC walk forgotten its start?

Dutta et al. frame the soundness question for swap-based null models:
the chain must run long enough that samples are (approximately)
independent of the initial graph.  This module tracks three cheap,
deterministic structural statistics along the chain, sampled every
``k`` permutation rounds:

- **degree assortativity** — Pearson correlation of endpoint degrees
  (degree-preserving swaps change it; plateau ⇒ the statistic mixed);
- **clustering proxy** — closure fraction of one deterministic wedge
  per vertex (the two lowest-labelled neighbours), an O(m log m)
  vectorized stand-in for transitivity;
- **edge overlap with start** — |E_t ∩ E_0| / m on canonical packed
  keys; decays from 1.0 toward the overlap of an independent draw.

Every statistic is a pure function of the edge list, so two
bitwise-identical chains (a resumed run and its uninterrupted twin, or
the swap chain on its reference kernels) give bitwise-identical
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.stats import degree_assortativity
from repro.parallel.hashtable import pack_edges

__all__ = [
    "MixingSample",
    "MixingTrajectory",
    "MixingProbe",
    "clustering_proxy",
    "edge_overlap",
]


def clustering_proxy(graph: EdgeList) -> float:
    """Closure fraction of one deterministic wedge per vertex.

    For each vertex with ≥ 2 distinct neighbours, take its two
    lowest-labelled neighbours and test whether that pair is itself an
    edge; the proxy is the closed fraction over all such wedges.  Fully
    vectorized (lexsort + searchsorted), deterministic in the edge list
    alone, and correlated with transitivity without the O(Σ deg²) wedge
    enumeration.  Returns 0.0 when no vertex has two distinct
    neighbours.
    """
    if graph.m == 0:
        return 0.0
    # symmetrize and sort adjacency by (center, neighbour)
    center = np.concatenate([graph.u, graph.v])
    nbr = np.concatenate([graph.v, graph.u])
    keep = center != nbr  # self loops close nothing
    center, nbr = center[keep], nbr[keep]
    if center.size == 0:
        return 0.0
    order = np.lexsort((nbr, center))
    center, nbr = center[order], nbr[order]
    # first two *distinct* neighbours per center: drop repeated (center,
    # neighbour) pairs (multi-edges), then pick the first two rows
    new_pair = np.ones(center.size, dtype=bool)
    new_pair[1:] = (center[1:] != center[:-1]) | (nbr[1:] != nbr[:-1])
    center, nbr = center[new_pair], nbr[new_pair]
    starts = np.ones(center.size, dtype=bool)
    starts[1:] = center[1:] != center[:-1]
    first = np.flatnonzero(starts)
    counts = np.diff(np.append(first, center.size))
    wedged = counts >= 2
    if not wedged.any():
        return 0.0
    lo = nbr[first[wedged]]
    hi = nbr[first[wedged] + 1]
    wedge_keys = pack_edges(lo, hi)
    edge_keys = np.unique(pack_edges(graph.u, graph.v))
    pos = np.searchsorted(edge_keys, wedge_keys)
    pos[pos == edge_keys.size] = 0
    closed = edge_keys[pos] == wedge_keys
    return float(closed.mean())


def edge_overlap(start_keys: np.ndarray, graph: EdgeList) -> float:
    """|E_t ∩ E_0| / |E_0| over *distinct* canonical edge keys.

    ``start_keys`` must be the sorted unique keys of the start graph
    (see :meth:`MixingProbe`).  Returns 1.0 for an empty start graph.
    """
    if start_keys.size == 0:
        return 1.0
    keys = np.unique(pack_edges(graph.u, graph.v))
    pos = np.searchsorted(start_keys, keys)
    pos[pos == start_keys.size] = 0
    hits = int((start_keys[pos] == keys).sum())
    return hits / start_keys.size


@dataclass(frozen=True)
class MixingSample:
    """One point on the mixing trajectory."""

    iteration: int  #: permutation rounds completed (0 = the start graph)
    assortativity: float
    clustering: float
    edge_overlap: float  #: fraction of the start graph's edges still present


@dataclass
class MixingTrajectory:
    """The sampled mixing curve of one swap chain."""

    every: int  #: sampling stride in permutation rounds
    samples: list[MixingSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def iterations(self) -> np.ndarray:
        """Sampled round indices, as an int64 array."""
        return np.array([s.iteration for s in self.samples], dtype=np.int64)

    def assortativity(self) -> np.ndarray:
        """Degree-assortativity values, one per sample."""
        return np.array([s.assortativity for s in self.samples])

    def clustering(self) -> np.ndarray:
        """Clustering-proxy values, one per sample."""
        return np.array([s.clustering for s in self.samples])

    def edge_overlap(self) -> np.ndarray:
        """Edge-overlap-with-start values, one per sample."""
        return np.array([s.edge_overlap for s in self.samples])

    def to_dict(self) -> dict:
        """JSON-safe dump (bench reports, trace attributes)."""
        return {
            "every": self.every,
            "iterations": [s.iteration for s in self.samples],
            "assortativity": [s.assortativity for s in self.samples],
            "clustering": [s.clustering for s in self.samples],
            "edge_overlap": [s.edge_overlap for s in self.samples],
        }


class MixingProbe:
    """Samples mixing statistics along a swap chain via the callback hook.

    Records the start graph as iteration 0, then one sample after every
    ``every``-th completed permutation round.  Replays are handled by
    truncation: a sample at iteration ``i`` discards any retained
    samples at iterations ≥ ``i`` first, so a repair replay from a
    checkpoint or a checkpoint resume leaves exactly one sample per
    sampled round.
    """

    def __init__(self, start: EdgeList, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.trajectory = MixingTrajectory(every=self.every)
        self._start_keys = np.unique(pack_edges(start.u, start.v))
        self.observe(0, start)

    def observe(self, iteration: int, graph: EdgeList) -> None:
        """Record (or re-record, on replay) the state after ``iteration``."""
        samples = self.trajectory.samples
        while samples and samples[-1].iteration >= iteration:
            samples.pop()
        samples.append(MixingSample(
            iteration=int(iteration),
            assortativity=degree_assortativity(graph),
            clustering=clustering_proxy(graph),
            edge_overlap=edge_overlap(self._start_keys, graph),
        ))

    def callback(self, user_callback=None):
        """A ``swap_edges``-compatible callback sampling this probe.

        Wraps ``user_callback`` (called afterwards, on every round) so
        callers can layer their own per-round hook on top.
        """
        every = self.every

        def _cb(it: int, graph: EdgeList) -> None:
            done = it + 1  # callback fires after round ``it`` completes
            if done % every == 0:
                self.observe(done, graph)
            if user_callback is not None:
                user_callback(it, graph)

        return _cb
