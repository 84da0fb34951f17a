"""Tests for ParallelConfig and static chunk partitioning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.parallel.runtime import ParallelConfig, chunk_bounds


class TestParallelConfig:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.threads == 16
        assert cfg.seed is None

    def test_backend_field_removed(self):
        with pytest.raises(TypeError):
            ParallelConfig(backend="serial")

    def test_fault_plan_field_removed(self):
        with pytest.raises(TypeError):
            ParallelConfig(faults="bitflip:table:0")

    def test_invalid_threads(self):
        with pytest.raises(ValueError, match="threads"):
            ParallelConfig(threads=0)

    def test_generator_reproducible(self):
        cfg = ParallelConfig(seed=5)
        np.testing.assert_array_equal(cfg.generator().random(4), cfg.generator().random(4))

    def test_with_seed_copies(self):
        cfg = ParallelConfig(threads=2, seed=1)
        cfg2 = cfg.with_seed(9)
        assert cfg2.seed == 9 and cfg2.threads == 2 and cfg.seed == 1

    def test_frozen(self):
        with pytest.raises(Exception):
            ParallelConfig().threads = 4


class TestChunkBounds:
    def test_even_split(self):
        np.testing.assert_array_equal(chunk_bounds(8, 4), [0, 2, 4, 6, 8])

    def test_uneven_split_front_loaded(self):
        np.testing.assert_array_equal(chunk_bounds(10, 4), [0, 3, 6, 8, 10])

    def test_more_chunks_than_items(self):
        b = chunk_bounds(2, 5)
        assert b[0] == 0 and b[-1] == 2 and len(b) == 6

    def test_empty(self):
        np.testing.assert_array_equal(chunk_bounds(0, 3), [0, 0, 0, 0])

    def test_negative_n(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)

    def test_zero_chunks(self):
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    def test_partition_properties(self, n, chunks):
        b = chunk_bounds(n, chunks)
        assert len(b) == chunks + 1
        assert b[0] == 0 and b[-1] == n
        sizes = np.diff(b)
        assert (sizes >= 0).all()
        # static schedule balance: sizes differ by at most one
        assert sizes.max() - sizes.min() <= 1

