"""Tests for the chunk mapper, :func:`repro.parallel.runtime.chunk_map`.

The mapper runs every chunk of the static partition in-process, in chunk
order, with one spawned seed per chunk.
"""

import numpy as np

from repro.parallel.runtime import ParallelConfig, chunk_map


def _iota_kernel(lo, hi, seed, offset):
    return np.arange(lo, hi, dtype=np.int64) + offset


class TestProcessChunkMap:
    def test_vectorized_backend_runs_inline(self):
        cfg = ParallelConfig(threads=4, seed=0)
        chunks = chunk_map(_iota_kernel, 10, cfg, 5)
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(10) + 5)

    def test_empty_range(self):
        cfg = ParallelConfig(threads=4, seed=0)
        assert chunk_map(_iota_kernel, 0, cfg, 0) == []

    def test_single_chunk_skips_pool(self):
        """One logical thread means one kernel call over the whole range."""
        cfg = ParallelConfig(threads=1, seed=0)
        chunks = chunk_map(_iota_kernel, 5, cfg, 0)
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0], np.arange(5))

    def test_chunk_order_preserved(self):
        cfg = ParallelConfig(threads=3, seed=0)
        chunks = chunk_map(_iota_kernel, 9, cfg, 0)
        assert [c[0] for c in chunks] == [0, 3, 6]
