"""Tests for the simulated-atomics contention counters."""

from repro.parallel.atomics import ContentionStats


class TestContentionStats:
    def test_failure_rate(self):
        stats = ContentionStats(attempts=10, failures=3)
        assert stats.failure_rate == 0.3

    def test_failure_rate_empty(self):
        assert ContentionStats().failure_rate == 0.0
