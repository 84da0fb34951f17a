"""Tests for the reservation-based parallel permutation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.permutation import (
    PermutationStats,
    fisher_yates_permutation,
    knuth_targets,
    parallel_permutation,
    sort_permutation,
)
from repro.parallel.runtime import ParallelConfig


class TestKnuthTargets:
    def test_range(self):
        h = knuth_targets(100, np.random.default_rng(0))
        i = np.arange(100)
        assert (h >= i).all() and (h < 100).all()

    def test_empty(self):
        assert knuth_targets(0, np.random.default_rng(0)).shape == (0,)

    def test_reproducible(self):
        np.testing.assert_array_equal(knuth_targets(50, 7), knuth_targets(50, 7))


class TestSequentialEquivalence:
    """Shun et al.: same H array => identical output to Fisher–Yates."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 100, 1023])
    def test_identical_to_fisher_yates(self, n):
        rng = np.random.default_rng(n)
        h = knuth_targets(n, rng)
        arr = np.arange(n)
        par = parallel_permutation(arr, ParallelConfig(seed=1), targets=h)
        seq = fisher_yates_permutation(arr, targets=h)
        np.testing.assert_array_equal(par, seq)

    @given(st.integers(0, 300), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, n, seed):
        h = knuth_targets(n, seed)
        arr = np.arange(n)
        np.testing.assert_array_equal(
            parallel_permutation(arr, ParallelConfig(seed=0), targets=h),
            fisher_yates_permutation(arr, targets=h),
        )


class TestPermutationProperties:
    def test_is_permutation(self):
        arr = np.arange(500)
        out = parallel_permutation(arr, ParallelConfig(seed=4))
        np.testing.assert_array_equal(np.sort(out), arr)

    def test_input_not_mutated(self):
        arr = np.arange(50)
        parallel_permutation(arr, ParallelConfig(seed=4))
        np.testing.assert_array_equal(arr, np.arange(50))

    def test_reproducible_for_seed(self):
        arr = np.arange(100)
        a = parallel_permutation(arr, ParallelConfig(seed=5))
        b = parallel_permutation(arr, ParallelConfig(seed=5))
        np.testing.assert_array_equal(a, b)

    def test_stats_rounds_logarithmic(self):
        stats = PermutationStats()
        n = 4096
        parallel_permutation(np.arange(n), ParallelConfig(seed=1), stats=stats)
        assert stats.n == n
        # reservation rounds are O(log n) w.h.p.; allow generous slack
        assert 1 <= stats.rounds <= 8 * int(np.log2(n))
        assert stats.attempts >= n

    def test_bad_targets_length(self):
        with pytest.raises(ValueError):
            parallel_permutation(np.arange(5), targets=np.asarray([0, 1]))

    def test_bad_targets_range(self):
        with pytest.raises(ValueError):
            parallel_permutation(np.arange(3), targets=np.asarray([0, 1, 5]))

    def test_uniformity_chi_square(self):
        """Each element lands in each slot ~uniformly (3-element case)."""
        counts = {}
        for seed in range(600):
            out = tuple(parallel_permutation(np.arange(3), ParallelConfig(seed=seed)))
            counts[out] = counts.get(out, 0) + 1
        assert len(counts) == 6
        expected = 600 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # dof=5; 99.9% critical value ~20.5
        assert chi2 < 20.5


class TestSortPermutation:
    def test_is_permutation(self):
        out = sort_permutation(np.arange(64), np.random.default_rng(0))
        np.testing.assert_array_equal(np.sort(out), np.arange(64))

    def test_reproducible(self):
        np.testing.assert_array_equal(
            sort_permutation(np.arange(32), 9), sort_permutation(np.arange(32), 9)
        )


class TestFisherYates:
    def test_without_targets_uses_rng(self):
        out = fisher_yates_permutation(np.arange(16), 3)
        np.testing.assert_array_equal(np.sort(out), np.arange(16))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fisher_yates_permutation(np.arange(4), targets=np.asarray([0]))


#: n -> (seed, (n, rounds, attempts), first 16 hex digits of the output's
#: SHA-256); the reservation protocol fixes all of them for a seed, so a
#: change to how its rounds are computed must leave every entry as it is
PERM_GOLDEN = {
    0: (3, (0, 0, 0), "e3b0c44298fc1c14"),
    1: (4, (1, 1, 1), "af5570f5a1810b7a"),
    2: (5, (2, 2, 3), "4cbbd8ca5215b8d1"),
    1_000: (6, (1000, 22, 3494), "c550eae862d004a5"),
    200_000: (7, (200000, 42, 689652), "326db79dbad88e4c"),
}


class TestPermutationGolden:
    """Round and attempt counts are part of the swap chain's stats
    (``SwapStats.permutation_rounds``), so they are pinned per seed."""

    @pytest.mark.parametrize("n", sorted(PERM_GOLDEN))
    def test_pinned(self, n):
        seed, counts, digest = PERM_GOLDEN[n]
        stats = PermutationStats()
        out = parallel_permutation(np.arange(n), ParallelConfig(seed=seed), stats=stats)
        assert (stats.n, stats.rounds, stats.attempts) == counts
        assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest
        np.testing.assert_array_equal(out, fisher_yates_permutation(np.arange(n), seed))
