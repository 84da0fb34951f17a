"""Bit-rot drills: every artifact class, flipped, must be repaired or typed.

The proof obligation of the integrity layer: for each artifact class
(``table``, ``spill``, ``checkpoint``, ``cache``) a
``bitflip:<artifact>:<n>`` plan corrupts exactly one bit/byte mid-run,
and the run must either

- **repair** — detect, quarantine the corrupt state, and recompute from
  a validated state so the final output is *bitwise equal* to the
  fault-free run (checkpoint replay's bitwise identity is the repair
  mechanism), or
- **raise typed** — surface an :class:`~repro.verify.IntegrityError`
  subclass, never a silently wrong graph.
"""

import logging

import numpy as np
import pytest

from repro import DegreeDistribution, ParallelConfig, generate_graph
from repro.core.swap import swap_edges
from repro.graph.edgelist import EdgeList
from repro.parallel import faultinject
from repro.verify import ChecksumError, GraphIntegrityError, IntegrityError


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faultinject.disarm_bitflip_faults()


def _ring(n=60):
    u = np.arange(n, dtype=np.int64)
    return EdgeList(u.copy(), (u + 1) % n, n)


DIST = DegreeDistribution([1, 2, 3, 6], [60, 40, 20, 8])


class TestTableDrill:
    def test_vectorized_flip_raises_typed(self):
        """Full tier catches a flipped table slot before it can shift verdicts."""
        g = _ring()
        cfg = ParallelConfig(seed=5, backend="vectorized", verify="full",
                             faults="bitflip:table:0")
        faultinject.arm_from(cfg)
        with pytest.raises(GraphIntegrityError):
            swap_edges(g, 3, cfg)

    def test_flip_repaired_via_checkpoint_replay(self, tmp_path):
        """With a checkpoint store, generate retries from the last snapshot."""
        kw = dict(seed=5, backend="vectorized", threads=2)
        expect, _ = generate_graph(
            DIST, swap_iterations=3, config=ParallelConfig(**kw)
        )
        out, report = generate_graph(
            DIST, swap_iterations=3,
            config=ParallelConfig(verify="full", faults="bitflip:table:0", **kw),
            checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
        )
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded
        assert any(f.kind == "integrity" for f in report.faults)


class TestSpillDrill:
    BUDGET = 1 << 14  # force the mmap store + windowed rounds

    def test_flip_raises_typed_without_checkpoints(self):
        g = _ring(200)
        cfg = ParallelConfig(
            seed=5, backend="vectorized", verify="cheap",
            store="mmap", memory_budget_bytes=self.BUDGET,
            faults="bitflip:spill:0",
        )
        faultinject.arm_from(cfg)
        with pytest.raises(ChecksumError):
            swap_edges(g, 4, cfg)

    def test_flip_repaired_via_checkpoint_replay(self, tmp_path):
        """With a checkpoint store, generate retries from the last snapshot."""
        kw = dict(
            seed=5, backend="vectorized", store="mmap",
            memory_budget_bytes=self.BUDGET,
        )
        expect, _ = generate_graph(
            DIST, swap_iterations=4, config=ParallelConfig(**kw)
        )
        out, report = generate_graph(
            DIST, swap_iterations=4,
            config=ParallelConfig(
                verify="cheap", faults="bitflip:spill:0", **kw
            ),
            checkpoint_dir=tmp_path / "ck", checkpoint_every=1,
        )
        np.testing.assert_array_equal(out.u, expect.u)
        np.testing.assert_array_equal(out.v, expect.v)
        assert report.degraded
        assert any(f.kind == "integrity" for f in report.faults)


class TestCheckpointDrill:
    def test_corrupt_snapshot_skipped_with_warning(self, tmp_path, caplog):
        """Resume falls back past a flipped snapshot to an older valid one."""
        kw = dict(seed=7, backend="vectorized", threads=2)
        expect, _ = generate_graph(
            DIST, swap_iterations=4, config=ParallelConfig(**kw)
        )
        ck = tmp_path / "ck"
        # the flip lands on the 7th durable save — the final snapshot,
        # the one resume tries first — so the digest check must reject
        # it and fall back to the intact previous snapshot
        generate_graph(
            DIST, swap_iterations=4,
            config=ParallelConfig(faults="bitflip:checkpoint:6", **kw),
            checkpoint_dir=ck, checkpoint_every=1,
        )
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

        faultinject.arm_bitflip_faults(faultinject.parse_plan("bitflip:cache:0"))
        cache = ResultCache()
        u = np.arange(32, dtype=np.int64)
        cache.put(CachedResult(fingerprint="f", u=u, v=u + 1, n=64))
        assert cache.get("f") is None  # flipped -> evicted, miss
        assert cache.corrupt_evictions == 1
        assert len(cache) == 0
        # a recomputed insert round-trips fine (the flip is spent)
        cache.put(CachedResult(fingerprint="f", u=u, v=u + 1, n=64))
        assert cache.get("f") is not None


class TestEveryArtifactCovered:
    def test_drill_matrix_is_complete(self):
        """Every artifact class the grammar accepts has a drill above."""
        from repro.parallel.faultinject import BITFLIP_ARTIFACTS

        covered = {"table", "spill", "checkpoint", "cache"}
        assert set(BITFLIP_ARTIFACTS) == covered

    def test_integrity_errors_are_one_family(self):
        assert issubclass(GraphIntegrityError, IntegrityError)
        assert issubclass(ChecksumError, IntegrityError)
