"""Unit tests for the tiered integrity layer (repro.verify)."""

import numpy as np
import pytest

from repro import DegreeDistribution, ParallelConfig, generate_graph
from repro.core.swap import _COUNTED_FIELDS, SwapStats, swap_edges
from repro.generators.havel_hakimi import havel_hakimi_graph
from repro.verify import (
    VERIFY_TIERS,
    ChecksumError,
    GraphIntegrityError,
    IntegrityError,
    check_tier,
    verify_graph,
    verify_table_registration,
)


class TestTypedFamily:
    def test_hierarchy(self):
        for exc in (GraphIntegrityError, ChecksumError):
            assert issubclass(exc, IntegrityError)
        assert issubclass(IntegrityError, RuntimeError)

    def test_check_tier(self):
        for tier in VERIFY_TIERS:
            assert check_tier(tier) == tier
        with pytest.raises(ValueError):
            check_tier("paranoid")


class TestVerifyGraph:
    def _ring(self, n=8):
        u = np.arange(n, dtype=np.int64)
        v = (u + 1) % n
        return u, v

    def test_clean_graph_passes_all_tiers(self):
        u, v = self._ring()
        deg = np.full(8, 2, dtype=np.int64)
        for tier in ("off", "cheap", "full"):
            verify_graph(u, v, 8, degrees=deg, tier=tier)

    def test_off_skips_everything(self):
        u = np.array([0, 0], dtype=np.int64)
        v = np.array([0, 99], dtype=np.int64)  # loop AND out of range
        verify_graph(u, v, 4, tier="off")

    def test_length_mismatch(self):
        with pytest.raises(GraphIntegrityError, match="length"):
            verify_graph(np.zeros(2, np.int64), np.zeros(3, np.int64), 4)

    def test_out_of_range(self):
        u, v = self._ring()
        v = v.copy()
        v[3] = 8  # == n
        with pytest.raises(GraphIntegrityError, match="out of range"):
            verify_graph(u, v, 8, tier="cheap")

    def test_self_loop(self):
        u, v = self._ring()
        v = v.copy()
        v[0] = u[0]
        with pytest.raises(GraphIntegrityError, match="self loop"):
            verify_graph(u, v, 8, tier="cheap")
        # tolerated when the space allows loops
        verify_graph(u, v, 8, tier="cheap", check_loops=False)

    def test_degree_mismatch_names_vertex(self):
        u, v = self._ring()
        deg = np.full(8, 2, dtype=np.int64)
        deg[5] = 3
        with pytest.raises(GraphIntegrityError, match="vertex 5"):
            verify_graph(u, v, 8, degrees=deg, tier="cheap")

    def test_duplicate_edge_full_tier_only(self):
        u = np.array([0, 1, 0], dtype=np.int64)
        v = np.array([1, 2, 1], dtype=np.int64)
        verify_graph(u, v, 4, tier="cheap")  # cheap does not sort
        with pytest.raises(GraphIntegrityError, match="duplicate"):
            verify_graph(u, v, 4, tier="full")
        verify_graph(u, v, 4, tier="full", check_duplicates=False)

    def test_duplicate_detected_across_orientation(self):
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 0], dtype=np.int64)
        with pytest.raises(GraphIntegrityError, match="duplicate"):
            verify_graph(u, v, 4, tier="full")

    def test_empty_graph(self):
        e = np.empty(0, dtype=np.int64)
        verify_graph(e, e, 0, tier="full")


class TestVerifyTable:
    def test_matches_after_registration(self):
        from repro.parallel.hashtable import ConcurrentEdgeHashTable, pack_edges

        u = np.arange(16, dtype=np.int64)
        v = u + 100
        keys = pack_edges(u, v)
        table = ConcurrentEdgeHashTable(64)
        table.test_and_set(keys)
        verify_table_registration(table, keys)

    def test_flipped_slot_detected(self):
        from repro.parallel.hashtable import (
            EMPTY_KEY,
            ConcurrentEdgeHashTable,
            pack_edges,
        )

        u = np.arange(16, dtype=np.int64)
        v = u + 100
        keys = pack_edges(u, v)
        table = ConcurrentEdgeHashTable(64)
        table.test_and_set(keys)
        live = np.flatnonzero(table._slots != EMPTY_KEY)
        table._slots[live[0]] ^= 1 << 17
        with pytest.raises(GraphIntegrityError, match="diverge"):
            verify_table_registration(table, keys)

    def test_missing_slot_detected(self):
        from repro.parallel.hashtable import (
            EMPTY_KEY,
            ConcurrentEdgeHashTable,
            pack_edges,
        )

        u = np.arange(16, dtype=np.int64)
        v = u + 100
        keys = pack_edges(u, v)
        table = ConcurrentEdgeHashTable(64)
        table.test_and_set(keys)
        live = np.flatnonzero(table._slots != EMPTY_KEY)
        table._slots[live[0]] = EMPTY_KEY
        with pytest.raises(GraphIntegrityError):
            verify_table_registration(table, keys)


class TestObsIntegration:
    def test_violation_emits_event_and_metric(self):
        from repro.obs import RunTrace

        u = np.array([0], dtype=np.int64)
        v = np.array([0], dtype=np.int64)
        with RunTrace() as tr:
            with pytest.raises(GraphIntegrityError):
                verify_graph(u, v, 2, tier="cheap")
            names = [e["name"] for e in tr.events()]
            assert "verify:violation" in names
            assert tr.metrics.counters.get("integrity.violations", 0) == 1


DIST = DegreeDistribution([1, 2, 3, 6], [4000, 2400, 1000, 400])


def _generated(verify, budget):
    out, _ = generate_graph(
        DIST, swap_iterations=4,
        config=ParallelConfig(seed=11, threads=4, verify=verify,
                              memory_budget_bytes=budget),
    )
    return out, {}


def _swapped(verify, budget):
    stats = SwapStats()
    out = swap_edges(
        havel_hakimi_graph(DIST), 3,
        ParallelConfig(seed=11, threads=4, verify=verify,
                       memory_budget_bytes=budget),
        stats=stats,
    )
    return out, {name: getattr(stats, name) for name in _COUNTED_FIELDS}


@pytest.mark.parametrize("run", [_generated, _swapped],
                         ids=["generate_graph", "swap_edges"])
def test_verification_never_changes_the_bits(run):
    """A clean run's edges and counters are the same under every tier,
    with the swap arrays in RAM and spilled."""
    want, want_counts = run("off", 0)
    for verify in VERIFY_TIERS:
        for budget in (0, 1):
            if (verify, budget) == ("off", 0):
                continue
            got, counts = run(verify, budget)
            assert got.u.tobytes() == want.u.tobytes(), (verify, budget)
            assert got.v.tobytes() == want.v.tobytes(), (verify, budget)
            assert counts == want_counts, (verify, budget)
