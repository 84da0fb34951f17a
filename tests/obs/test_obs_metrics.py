"""Tests for the per-run metrics registry."""

import numpy as np
import pytest

from repro.obs import Histogram, Metrics, record_table_stats
from repro.parallel.hashtable import ConcurrentEdgeHashTable


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.to_dict() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        }

    def test_observe(self):
        h = Histogram()
        for value in (1, 2, 3):
            h.observe(value)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0


class TestMetrics:
    def test_counter_accumulates(self):
        m = Metrics()
        assert m.inc("a") == 1.0
        assert m.inc("a", 2.5) == 3.5
        assert m.counters["a"] == 3.5

    def test_gauge_last_write_wins(self):
        m = Metrics()
        m.set_gauge("g", 1)
        m.set_gauge("g", 9)
        assert m.gauges["g"] == 9.0

    def test_histogram_created_on_demand(self):
        m = Metrics()
        m.observe("h", 4.0)
        m.observe("h", 6.0)
        assert m.histograms["h"].mean == pytest.approx(5.0)

    def test_snapshot_shape(self):
        m = Metrics()
        m.inc("c")
        m.set_gauge("g", 2)
        m.observe("h", 1.0)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1


class TestRecordTableStats:
    def test_flat_table(self):
        table = ConcurrentEdgeHashTable(8)
        table.test_and_set(np.array([3, 9, 3], dtype=np.int64))
        m = Metrics()
        record_table_stats(m, table, prefix="t")
        assert m.counters["t.attempts"] == 3.0
        assert m.gauges["t.max_probe"] >= 0.0

    def test_counters_accumulate_across_phases(self):
        table = ConcurrentEdgeHashTable(8)
        table.test_and_set(np.array([3, 9], dtype=np.int64))
        m = Metrics()
        record_table_stats(m, table)
        record_table_stats(m, table)
        assert m.counters["swap.table.attempts"] == 2.0 * table.stats.attempts
