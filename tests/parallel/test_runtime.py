"""Tests for ParallelConfig and static chunk partitioning."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.parallel.runtime import BACKENDS, ParallelConfig, chunk_bounds, chunk_views


class TestParallelConfig:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.threads == 16
        assert cfg.backend == "vectorized"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_valid_backends(self, backend):
        assert ParallelConfig(backend=backend).backend == backend

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="gpu")

    def test_process_backend_removed(self):
        assert BACKENDS == ("vectorized", "serial")
        removed = "process"
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend=removed)

    def test_fault_plan_field_removed(self):
        with pytest.raises(TypeError):
            ParallelConfig(faults="bitflip:table:0")

    def test_invalid_threads(self):
        with pytest.raises(ValueError, match="threads"):
            ParallelConfig(threads=0)

    def test_generator_reproducible(self):
        cfg = ParallelConfig(seed=5)
        np.testing.assert_array_equal(cfg.generator().random(4), cfg.generator().random(4))

    def test_thread_generators_count(self):
        assert len(ParallelConfig(threads=3, seed=1).thread_generators()) == 3

    def test_with_seed_copies(self):
        cfg = ParallelConfig(threads=2, seed=1)
        cfg2 = cfg.with_seed(9)
        assert cfg2.seed == 9 and cfg2.threads == 2 and cfg.seed == 1

    def test_with_threads_copies(self):
        cfg = ParallelConfig(threads=2, seed=1)
        cfg2 = cfg.with_threads(8)
        assert cfg2.threads == 8 and cfg2.seed == 1

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


class TestChunkViews:
    def test_views_cover_array(self):
        arr = np.arange(11)
        parts = list(chunk_views(arr, 3))
        np.testing.assert_array_equal(np.concatenate(parts), arr)

    def test_views_are_views(self):
        arr = np.arange(6)
        first = next(chunk_views(arr, 2))
        first[0] = 99
        assert arr[0] == 99
