"""Bit-rot drills: every artifact class, flipped, must be repaired or typed.

The proof obligation of the integrity layer: for each artifact class
(hash table, spill window, checkpoint payload, cache entry) the drill
corrupts exactly one bit or byte mid-run, by wrapping the library
function at that point (see ``tests/drills.py``), and the run must either

- **repair** — detect, quarantine the corrupt state, and recompute from
  a validated state so the final output is *bitwise equal* to the
  fault-free run (checkpoint replay's bitwise identity is the repair
  mechanism), or
- **raise typed** — surface an :class:`~repro.verify.IntegrityError`
  subclass, never a silently wrong graph.
"""

import json
import logging

import numpy as np
import pytest

import repro.verify
from repro import DegreeDistribution, ParallelConfig, generate_graph
from repro.core.storage import ChunkGuard
from repro.core.swap import swap_edges
from repro.graph.edgelist import EdgeList
from repro.verify import ChecksumError, GraphIntegrityError, IntegrityError
from tests.drills import corrupt_first_call, flip_bit, flip_middle_byte


def _ring(n=60):
    u = np.arange(n, dtype=np.int64)
    return EdgeList(u.copy(), (u + 1) % n, n)


DIST = DegreeDistribution([1, 2, 3, 6], [60, 40, 20, 8])


def _flip_table(monkeypatch):
    """Flip one slot bit of the table just before the first full-tier
    registration check reads it."""
    corrupt_first_call(
        monkeypatch, repro.verify, "verify_table_registration",
        lambda table, keys, **_: flip_bit(table._slots),
    )


def _flip_spill(monkeypatch):
    """Flip one bit of the first sealed spill array the guard re-checks."""
    corrupt_first_call(
        monkeypatch, ChunkGuard, "check",
        lambda guard, name, arr: flip_bit(arr),
    )


class TestTableDrill:
    def test_vectorized_flip_raises_typed(self, monkeypatch):
        """Full tier catches a flipped table slot before it can shift verdicts."""
        g = _ring()
        cfg = ParallelConfig(seed=5, backend="vectorized", verify="full")
        _flip_table(monkeypatch)
        with pytest.raises(GraphIntegrityError):
            swap_edges(g, 3, cfg)

    def test_flip_repaired_via_checkpoint_replay(self, tmp_path, monkeypatch):
        """With a checkpoint store, generate retries from the last snapshot."""
        kw = dict(seed=5, backend="vectorized", threads=2)
        expect, _ = generate_graph(
            DIST, swap_iterations=3, config=ParallelConfig(**kw)
        )
        _flip_table(monkeypatch)
        out, report = generate_graph(
            DIST, swap_iterations=3,
            config=ParallelConfig(verify="full", **kw),
            checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
        )
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded


class TestSpillDrill:
    BUDGET = 1 << 10  # below both inputs' working sets: windowed spill rounds

    def test_flip_raises_typed_without_checkpoints(self, monkeypatch):
        g = _ring(200)
        cfg = ParallelConfig(
            seed=5, backend="vectorized", verify="cheap",
            memory_budget_bytes=self.BUDGET,
        )
        _flip_spill(monkeypatch)
        with pytest.raises(ChecksumError):
            swap_edges(g, 4, cfg)

    def test_flip_repaired_via_checkpoint_replay(self, tmp_path, monkeypatch):
        """With a checkpoint store, generate retries from the last snapshot."""
        kw = dict(seed=5, backend="vectorized", memory_budget_bytes=self.BUDGET)
        expect, _ = generate_graph(
            DIST, swap_iterations=4, config=ParallelConfig(**kw)
        )
        _flip_spill(monkeypatch)
        out, report = generate_graph(
            DIST, swap_iterations=4,
            config=ParallelConfig(verify="cheap", **kw),
            checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
        )
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded


class TestCheckpointDrill:
    def test_corrupt_snapshot_skipped_with_warning(self, tmp_path, caplog):
        """Resume falls back past a flipped snapshot to an older valid one."""
        kw = dict(seed=7, backend="vectorized", threads=2)
        expect, _ = generate_graph(
            DIST, swap_iterations=4, config=ParallelConfig(**kw)
        )
        ck = tmp_path / "ck"
        generate_graph(
            DIST, swap_iterations=4, config=ParallelConfig(**kw),
            checkpoint_dir=ck, checkpoint_every=1,
        )
        # flip the final snapshot's payload — the one resume tries first —
        # after its digest landed, so the digest check must reject it and
        # fall back to the intact previous snapshot
        newest = json.loads(max(ck.glob("snap-*.json")).read_text())
        flip_middle_byte(ck / newest["arrays"]["u"]["file"])
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            out, report = generate_graph(
                DIST, swap_iterations=4, config=ParallelConfig(**kw),
                checkpoint_dir=ck, checkpoint_every=1, resume_from=ck,
            )
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.resumed
        warnings = [r for r in caplog.records
                    if "checkpoint fallback" in r.getMessage()]
        assert warnings, "fallback WARNING never logged"
        assert "sha256" in warnings[0].getMessage()


class TestCacheDrill:
    def test_corrupt_entry_evicted_not_served(self):
        from repro.serve.cache import CachedResult, ResultCache

        cache = ResultCache()
        u = np.arange(32, dtype=np.int64)
        entry = cache.put(CachedResult(fingerprint="f", u=u, v=u + 1, n=64))
        flip_bit(entry.u)
        assert cache.get("f") is None  # flipped -> evicted, miss
        assert cache.corrupt_evictions == 1
        assert len(cache) == 0
        # a recomputed insert round-trips fine
        cache.put(CachedResult(fingerprint="f", u=u, v=u + 1, n=64))
        assert cache.get("f") is not None


class TestEveryArtifactCovered:
    def test_integrity_errors_are_one_family(self):
        assert issubclass(GraphIntegrityError, IntegrityError)
        assert issubclass(ChecksumError, IntegrityError)
