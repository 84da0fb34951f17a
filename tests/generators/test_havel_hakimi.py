"""Tests for the Havel–Hakimi realization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scale import scale_dataset
from repro.datasets import SPECS, load
from repro.datasets.synthetic import sampled_powerlaw
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList


def _reference_havel_hakimi(dist: DegreeDistribution) -> EdgeList:
    """The per-vertex loop ``havel_hakimi_graph`` replaced, kept as its oracle.

    It keeps the residuals as a descending array and makes a dozen numpy
    calls per vertex; the library's version must give the same edges in
    the same order, and the same error, on every input.
    """
    asc = dist.expand()  # ascending by construction
    n = len(asc)
    res = asc[::-1].copy()  # residual degrees, descending
    # descending position i holds vertex id n-1-i of the ascending labelling
    vid = np.arange(n - 1, -1, -1, dtype=np.int64)

    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []

    start = 0
    while start < n and res[start] > 0:
        d = int(res[start])
        window = res[start + 1 :]
        L = len(window)
        if d > L:
            raise ValueError("degree sequence is not graphical (degree too large)")
        c = int(window[d - 1])
        if c <= 0:
            raise ValueError("degree sequence is not graphical (ran out of stubs)")
        revw = window[::-1]  # ascending view, O(1)
        count_le = int(np.searchsorted(revw, c, side="right"))
        count_lt = int(np.searchsorted(revw, c, side="left"))
        first_c = L - count_le  # first window index holding value c
        last_c = L - count_lt - 1  # last window index holding value c
        k_gt = first_c  # entries > c all precede the tie block
        t = d - k_gt  # how many targets to take from the tie block
        targets_rel = np.concatenate(
            [
                np.arange(0, k_gt, dtype=np.int64),
                np.arange(last_c - t + 1, last_c + 1, dtype=np.int64),
            ]
        )
        window[targets_rel] -= 1
        targets_abs = start + 1 + targets_rel
        us.append(np.full(d, vid[start], dtype=np.int64))
        vs.append(vid[targets_abs])
        start += 1

    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return EdgeList(u, v, dist.n)


def _outcome(realize, dist):
    """Everything a realization's caller can observe: the exact arrays or the error."""
    try:
        g = realize(dist)
    except ValueError as exc:
        return ("error", str(exc))
    return ("graph", g.n, g.u.dtype, g.u.tobytes(), g.v.dtype, g.v.tobytes())


@st.composite
def degree_classes(draw, max_degree=40, max_classes=8, max_count=12):
    """Any valid ``{D, N}`` — graphical or not — with an even stub count."""
    degrees = sorted(
        draw(st.lists(st.integers(1, max_degree), min_size=1, max_size=max_classes, unique=True))
    )
    counts = draw(
        st.lists(st.integers(1, max_count), min_size=len(degrees), max_size=len(degrees))
    )
    if sum(d * c for d, c in zip(degrees, counts)) % 2:
        # an odd stub sum has an odd degree with an odd count; make that count even
        i = next(i for i, (d, c) in enumerate(zip(degrees, counts)) if d % 2 and c % 2)
        counts[i] += 1
    return DegreeDistribution(degrees, counts)


#: SHA-256 of ``u`` and ``v`` for the benchmark's input, recorded with
#: ``_reference_havel_hakimi``
BENCH_INPUT_GOLDEN = {
    "m": 962_782,
    "u": "f03856a40dbecb5c8a7efe2e99803d6ada212e75a1d9f1cfac90cde4eb857fa8",
    "v": "311b81d0ade1efcec93cdc3e0a111bd869219b806f5a886f4b7cc59642f85f7c",
}


class TestHavelHakimi:
    def test_realizes_exactly(self, small_dist):
        g = havel_hakimi_graph(small_dist)
        assert g.is_simple()
        np.testing.assert_array_equal(
            np.sort(g.degree_sequence()), np.sort(small_dist.expand())
        )

    def test_skewed(self, skewed_dist):
        g = havel_hakimi_graph(skewed_dist)
        assert g.is_simple()
        np.testing.assert_array_equal(
            np.sort(g.degree_sequence()), np.sort(skewed_dist.expand())
        )

    def test_degree_ordered_labelling(self, small_dist):
        """Vertex ids follow the library-wide class labelling."""
        g = havel_hakimi_graph(small_dist)
        deg = g.degree_sequence()
        np.testing.assert_array_equal(deg, small_dist.expand())

    def test_regular(self):
        dist = DegreeDistribution([3], [8])
        g = havel_hakimi_graph(dist)
        np.testing.assert_array_equal(g.degree_sequence(), np.full(8, 3))

    def test_complete_graph(self):
        dist = DegreeDistribution([5], [6])
        g = havel_hakimi_graph(dist)
        assert g.m == 15

    def test_star(self):
        dist = DegreeDistribution([1, 5], [5, 1])
        g = havel_hakimi_graph(dist)
        assert g.m == 5

    def test_empty(self):
        g = havel_hakimi_graph(DegreeDistribution([], []))
        assert g.m == 0

    def test_non_graphical_raises(self):
        dist = DegreeDistribution([1, 3], [1, 3])  # [3,3,3,1]
        with pytest.raises(ValueError, match="not graphical"):
            havel_hakimi_graph(dist)

    @pytest.mark.parametrize(
        "sequence, reason",
        [([4, 2, 1, 1], "degree too large"), ([3, 3, 3, 1], "ran out of stubs")],
    )
    def test_non_graphical_reason(self, sequence, reason):
        dist = DegreeDistribution.from_degree_sequence(sequence)
        with pytest.raises(ValueError) as excinfo:
            havel_hakimi_graph(dist)
        assert str(excinfo.value) == f"degree sequence is not graphical ({reason})"

    def test_deterministic(self, skewed_dist):
        a = havel_hakimi_graph(skewed_dist)
        b = havel_hakimi_graph(skewed_dist)
        np.testing.assert_array_equal(a.u, b.u)

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_random_powerlaws(self, seed):
        dist = sampled_powerlaw(120, 2.0, 1, 40, seed=seed)
        if not dist.is_graphical():
            return
        g = havel_hakimi_graph(dist)
        assert g.is_simple()
        np.testing.assert_array_equal(
            np.sort(g.degree_sequence()), np.sort(dist.expand())
        )

    def test_matches_networkx_degree_sequence(self):
        """Same realizability as networkx's HH implementation."""
        import networkx as nx

        dist = sampled_powerlaw(60, 2.2, 1, 15, seed=5)
        ours = havel_hakimi_graph(dist)
        theirs = nx.havel_hakimi_graph(sorted(dist.expand().tolist(), reverse=True))
        assert sorted(d for _, d in theirs.degree()) == sorted(
            ours.degree_sequence().tolist()
        )


class TestMatchesReference:
    """Same edges, same order, same error as the per-vertex loop."""

    @given(degree_classes())
    @settings(max_examples=200, deadline=None)
    def test_random_degree_classes(self, dist):
        assert _outcome(havel_hakimi_graph, dist) == _outcome(_reference_havel_hakimi, dist)

    @pytest.mark.parametrize("name", ["Meso", "as20", "LiveJournal"])
    def test_dataset_twins(self, name):
        dist = load(name)
        assert _outcome(havel_hakimi_graph, dist) == _outcome(_reference_havel_hakimi, dist)

    def test_hub_heavy_twitter_twin(self):
        dist = SPECS["Twitter"].synthesize(0.001)
        assert dist.d_max == dist.n - 1  # a hub adjacent to every other vertex
        assert _outcome(havel_hakimi_graph, dist) == _outcome(_reference_havel_hakimi, dist)

    def test_benchmark_input_golden(self):
        g = havel_hakimi_graph(scale_dataset(650_000, seed=101))
        assert g.m == BENCH_INPUT_GOLDEN["m"]
        assert hashlib.sha256(g.u.tobytes()).hexdigest() == BENCH_INPUT_GOLDEN["u"]
        assert hashlib.sha256(g.v.tobytes()).hexdigest() == BENCH_INPUT_GOLDEN["v"]
