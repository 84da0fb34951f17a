"""Tests for the class-count prefix sums."""

import numpy as np
import pytest

from repro.parallel.prefix import prefix_sum


class TestPrefixSum:
    def test_exclusive_layout(self):
        out = prefix_sum(np.asarray([3, 1, 4]))
        np.testing.assert_array_equal(out, [0, 3, 4, 8])

    def test_inclusive(self):
        out = prefix_sum(np.asarray([3, 1, 4]), exclusive=False)
        np.testing.assert_array_equal(out, [3, 4, 8])

    def test_empty(self):
        np.testing.assert_array_equal(prefix_sum(np.asarray([], dtype=np.int64)), [0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            prefix_sum(np.zeros((2, 2)))

    def test_float_dtype_preserved(self):
        out = prefix_sum(np.asarray([0.5, 0.25]))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, [0, 0.5, 0.75])

