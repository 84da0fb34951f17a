"""Havel–Hakimi realization of a degree distribution.

The paper's reference uniform sample is produced "via Havel-Hakimi
generation and 128 full iterations of double-edge swaps" (Section VIII,
after Milo et al. [22]): Havel–Hakimi deterministically realizes any
graphical degree sequence as a simple graph, and the swap chain then
mixes it over the whole simple-graph space.

The implementation is the near-linear variant: residual degrees stay
sorted by vertex id, the highest remaining vertex connects to the next
``d`` highest, and ties at the window boundary are resolved by taking
the *tail* of the tie block (its lowest ids) so the order holds without
re-sorting.  No vertex ever moves, so the residuals are kept as
value-indexed tie-block boundaries rather than per vertex: a step is
one bisection plus boundary shifts that sum to at most m over the run,
and the edges are built in one vectorized pass at the end —
O(m + n log Δ) total.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList

__all__ = ["havel_hakimi_graph"]


def havel_hakimi_graph(dist: DegreeDistribution) -> EdgeList:
    """Deterministically realize ``dist`` as a simple graph.

    Vertex ids follow the library-wide degree-ordered labelling
    (class k owns ids ``I[k] … I[k+1]-1``), so the output is directly
    comparable with every other generator.

    Raises
    ------
    ValueError
        If the sequence is not graphical (Erdős–Gallai fails en route).
    """
    n = dist.n
    d = dist.d_max
    # lo[w] is the first id whose residual degree is at least w, so the ids
    # holding residual w form the tie block lo[w] … lo[w+1]-1, and vertex y's
    # residual is the largest w with lo[w] <= y.  It starts as the class
    # labelling I.  Entries above the current vertex's residual go stale, but
    # stay above every id still queried.
    lo = dist.class_offsets()[np.searchsorted(dist.degrees, np.arange(d + 2))].tolist()
    steps: list[tuple[int, int, int]] = []
    for x in range(n - 1, -1, -1):  # x: the highest remaining vertex
        while lo[d] > x:  # d: x's residual, which never rises as x falls
            d -= 1
        if d == 0:
            break
        if d > x:
            raise ValueError("degree sequence is not graphical (degree too large)")
        c = bisect_right(lo, x - d) - 1  # residual of the d-th target
        if c == 0:
            raise ValueError("degree sequence is not graphical (ran out of stubs)")
        k = x - lo[c + 1] if c < d else 0  # targets above the tie block of c
        first = lo[c]
        steps.append((k, first, d - k))
        # ids x-k … x-1 lose a stub, which shifts the boundaries c+1 … d down
        # one value; the lowest d-k ids of the tie block lose one too
        lo[c + 1 : d + 1] = lo[c + 2 : d + 2]
        lo[c] = first + d - k

    # the loop's k, first, t and x again, now one entry per step
    k, first, t = np.array(steps, dtype=np.int64).reshape(-1, 3).T
    x = n - 1 - np.arange(len(k), dtype=np.int64)
    u = np.repeat(x, k + t)
    # each step's targets are two runs of ids, each listed downward:
    # x-1 … x-k, then first+t-1 … first
    tops = np.stack([x - 1, first + t - 1], axis=1).ravel()
    lens = np.stack([k, t], axis=1).ravel()
    v = np.repeat(tops + np.cumsum(lens) - lens, lens) - np.arange(len(u), dtype=np.int64)
    return EdgeList(u, v, dist.n)
