"""Degree distributions ``{D, N}`` and graphicality.

Algorithm IV.1 takes as input a degree distribution
``{(d_1, n_1), …, (d_max, n_max)}`` — the unique degrees ``D`` and the
number of vertices ``N`` holding each.  :class:`DegreeDistribution` is
that object: it validates the inputs, derives the quantities every phase
needs (|D|, m, d_avg, d_max, the prefix-sum vertex labelling ``I`` that
edge skipping uses to map class-local offsets to global ids), expands to
a per-vertex degree sequence, and tests graphicality via Erdős–Gallai.

Vertex identifiers follow the paper's convention: "global identifiers can
be retrieved based on prefix sums of N if we order vertex identifiers by
degree" — vertex ids ``I[k] … I[k+1]-1`` all have degree ``D[k]``, with
classes ordered by ascending degree.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.prefix import prefix_sum

__all__ = [
    "DegreeDistribution",
    "NonGraphicalError",
    "graphicality_violation",
    "is_graphical",
]


class NonGraphicalError(ValueError):
    """A degree sequence admits no simple-graph realization.

    Raised by :func:`repro.core.generate.generate_graph` at its input
    boundary; the message names the first violated Erdős–Gallai prefix
    (or the parity / range condition that failed) so the caller can see
    *why* the sequence is impossible rather than chase a downstream
    sampling failure.
    """


def graphicality_violation(degrees: np.ndarray) -> str | None:
    """First Erdős–Gallai violation of ``degrees``, or ``None`` if graphical.

    Checks, in order: negative degrees, degree-sum parity, the
    ``d_max <= n - 1`` range bound, then the Erdős–Gallai prefix
    inequalities ``sum(d[:k]) <= k(k-1) + sum(min(d[k:], k))`` (degrees
    sorted descending) — returning a human-readable description of the
    first condition that fails.
    """
    d = np.sort(np.asarray(degrees, dtype=np.int64))[::-1]
    if d.size == 0:
        return None
    if int(d[-1]) < 0:
        return f"negative degree {int(d[-1])}"
    total = int(d.sum())
    if total % 2:
        return f"degree sum {total} is odd"
    n = len(d)
    if int(d[0]) >= n:
        return f"degree {int(d[0])} >= vertex count {n}"
    k = np.arange(1, n + 1, dtype=np.int64)
    lhs = np.cumsum(d)
    # The suffix d[k:] holds the n-k smallest values, i.e. asc[0 : n-k] of
    # the ascending view, so sum_{i>k} min(d_i, k) splits into the entries
    # <= k (summed exactly) plus k for each larger entry.
    asc = d[::-1]
    csum = prefix_sum(asc)
    le_k_count = np.searchsorted(asc, k, side="right")
    suffix_le_count = np.minimum(le_k_count, n - k)
    suffix_le_sum = csum[suffix_le_count]
    suffix_gt_count = (n - k) - suffix_le_count
    rhs = k * (k - 1) + suffix_le_sum + k * suffix_gt_count
    bad = np.flatnonzero(lhs > rhs)
    if bad.size:
        i = int(bad[0])
        return (
            f"Erdős–Gallai prefix k={i + 1} violated: the {i + 1} largest "
            f"degrees sum to {int(lhs[i])} > bound {int(rhs[i])}"
        )
    return None


def is_graphical(degrees: np.ndarray) -> bool:
    """Erdős–Gallai test: can ``degrees`` be realized by a simple graph?

    Vectorized over the k cut positions: with degrees sorted descending,
    for every k, ``sum(d[:k]) <= k(k-1) + sum(min(d[k:], k))``, and the
    degree sum must be even.  :func:`graphicality_violation` reports
    *which* condition fails.
    """
    return graphicality_violation(degrees) is None


class DegreeDistribution:
    """The ``{D, N}`` input of Algorithm IV.1.

    Parameters
    ----------
    degrees:
        Strictly increasing positive unique degrees ``D``.
    counts:
        Positive vertex counts ``N``, one per degree.
    """

    __slots__ = ("degrees", "counts")

    def __init__(self, degrees, counts) -> None:
        self.degrees = np.ascontiguousarray(degrees, dtype=np.int64)
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        if self.degrees.shape != self.counts.shape or self.degrees.ndim != 1:
            raise ValueError("degrees and counts must be equal-length 1-D arrays")
        if self.degrees.size:
            if np.any(np.diff(self.degrees) <= 0):
                raise ValueError("degrees must be strictly increasing")
            if self.degrees[0] <= 0:
                raise ValueError("degrees must be positive (degree-0 vertices are omitted)")
            if np.any(self.counts <= 0):
                raise ValueError("counts must be positive")
            if (self.stub_count() % 2) != 0:
                raise ValueError("sum of degrees must be even")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_degree_sequence(cls, seq) -> "DegreeDistribution":
        """Collapse a per-vertex degree sequence (zeros dropped)."""
        seq = np.asarray(seq, dtype=np.int64)
        seq = seq[seq > 0]
        degrees, counts = np.unique(seq, return_counts=True)
        return cls(degrees, counts)

    @classmethod
    def from_graph(cls, graph) -> "DegreeDistribution":
        """Degree distribution of an :class:`~repro.graph.edgelist.EdgeList`."""
        return cls.from_degree_sequence(graph.degree_sequence())

    # -- derived quantities ------------------------------------------------

    @property
    def n_classes(self) -> int:
        """|D| — the number of unique degrees."""
        return len(self.degrees)

    @property
    def n(self) -> int:
        """Number of vertices (with positive degree)."""
        return int(self.counts.sum())

    def stub_count(self) -> int:
        """2m — the total number of edge endpoints."""
        return int((self.degrees * self.counts).sum())

    @property
    def m(self) -> int:
        """Number of edges implied by the distribution."""
        return self.stub_count() // 2

    @property
    def d_max(self) -> int:
        """Largest degree."""
        return int(self.degrees[-1]) if self.degrees.size else 0

    @property
    def d_avg(self) -> float:
        """Average degree."""
        return self.stub_count() / self.n if self.n else 0.0

    def expand(self) -> np.ndarray:
        """Per-vertex degree sequence in the degree-ordered labelling.

        ``expand()[vid]`` is the degree of vertex ``vid`` under the prefix
        -sum labelling used by edge skipping.
        """
        return np.repeat(self.degrees, self.counts)

    def class_offsets(self) -> np.ndarray:
        """The prefix-sum array ``I``: class k owns ids I[k] … I[k+1]-1."""
        return prefix_sum(self.counts)

    def class_of_degree(self, degree_values: np.ndarray) -> np.ndarray:
        """Map degree values to class indices; -1 for absent degrees."""
        idx = np.searchsorted(self.degrees, degree_values)
        idx = np.clip(idx, 0, self.n_classes - 1)
        ok = self.degrees[idx] == degree_values
        return np.where(ok, idx, -1)

    def is_graphical(self) -> bool:
        """Erdős–Gallai graphicality of the expanded sequence."""
        return is_graphical(self.expand())

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DegreeDistribution)
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:  # pragma: no cover - dict key convenience
        return hash((self.degrees.tobytes(), self.counts.tobytes()))

    def __repr__(self) -> str:
        return (
            f"DegreeDistribution(n={self.n}, m={self.m}, "
            f"d_max={self.d_max}, classes={self.n_classes})"
        )
