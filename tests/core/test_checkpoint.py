"""Crash-consistent checkpoint/resume tests.

The durability tentpole's invariants:

- a resumed run is **bitwise-identical** to an uninterrupted run with the
  same seed — on the serial and vectorized backends, and when resuming a
  checkpoint taken on the *other* backend;
- checkpoint writes are atomic: a snapshot truncated at any byte is
  detected by its checksum and the previous snapshot is used instead;
- the parent-SIGKILL drill (a driver subprocess that wraps
  ``CheckpointStore.save`` and kills itself after a chosen durable
  write) proves the whole story end to end;
- a store cleans up after itself: the torn-write drill (the driver
  killed halfway through a payload write) resumes bit for bit, and the
  resumed run's saves leave no temporary and no more than ``keep``
  snapshots behind.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    run_fingerprint,
)
from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, _stats_from_meta, _stats_to_meta, swap_edges
from repro.graph.degree import DegreeDistribution, NonGraphicalError
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SRC = os.path.join(ROOT, "src")


def _graph(seed=0, n=120, m=360) -> EdgeList:
    rng = np.random.default_rng(seed)
    return EdgeList(
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        n,
    )


def _drop_newest(directory, k=1) -> None:
    """Simulate a crash by removing the newest k snapshots (manifest and
    ``.raw`` payload files)."""
    snaps = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    for fn in snaps[-k:]:
        stem = fn[:-5]
        for name in os.listdir(directory):
            if name == fn or name.startswith(stem + "-"):
                os.unlink(os.path.join(directory, name))


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        seq = store.save(
            "swap",
            swap_round=3,
            arrays={"u": np.arange(5), "flag": np.asarray([True, False])},
            meta={"rng_state": {"k": 1}},
            fingerprint="fp",
        )
        snap = store.load_latest()
        assert snap is not None and snap.seq == seq
        assert snap.phase == "swap" and snap.swap_round == 3
        assert snap.fingerprint == "fp"
        np.testing.assert_array_equal(snap.arrays["u"], np.arange(5))
        assert snap.meta["rng_state"] == {"k": 1}

    def test_empty_store_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "missing").load_latest() is None

    def test_invalid_phase_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="phase"):
            CheckpointStore(tmp_path).save("warmup")

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for r in range(5):
            store.save("swap", swap_round=r, arrays={"u": np.arange(r + 1)})
        snaps = sorted(f for f in os.listdir(tmp_path) if f.endswith(".json"))
        assert len(snaps) == 2
        assert store.load_latest().swap_round == 4

    def test_seq_continues_across_instances(self, tmp_path):
        CheckpointStore(tmp_path).save("swap", swap_round=1)
        seq = CheckpointStore(tmp_path).save("swap", swap_round=2)
        assert seq == 1
        assert CheckpointStore(tmp_path).load_latest().swap_round == 2

    def test_truncation_at_any_byte_falls_back(self, tmp_path):
        """Acceptance criterion: corrupt the newest payload at *every*
        truncation length; the previous snapshot must always win."""
        store = CheckpointStore(tmp_path, keep=3)
        store.save("swap", swap_round=1, arrays={"u": np.arange(4)})
        store.save("swap", swap_round=2, arrays={"u": np.arange(8)})
        newest = tmp_path / "snap-00000001-u.raw"
        payload = newest.read_bytes()
        for cut in range(len(payload)):
            newest.write_bytes(payload[:cut])
            snap = store.load_latest()
            assert snap is not None and snap.swap_round == 1, f"cut={cut}"
        # restore and confirm the newest wins again
        newest.write_bytes(payload)
        assert store.load_latest().swap_round == 2

    def test_corrupt_manifest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", swap_round=1)
        store.save("swap", swap_round=2)
        (tmp_path / "snap-00000001.json").write_text("{not json")
        assert store.load_latest().swap_round == 1

    def test_version_mismatch_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", swap_round=1)
        store.save("swap", swap_round=2)
        path = tmp_path / "snap-00000001.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 999
        path.write_text(json.dumps(manifest))
        assert store.load_latest().swap_round == 1

    def test_fingerprint_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap", fingerprint="runA")
        with pytest.raises(CheckpointMismatchError):
            store.load_latest(fingerprint="runB")

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for _ in range(3):
            store.save("swap", arrays={"u": np.arange(10)})
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_save_removes_killed_writers_tmp_files(self, tmp_path):
        """A store has one writer, so once a save is durable every other
        temporary was left by a writer killed mid-save."""
        store = CheckpointStore(tmp_path)
        store.save("swap", swap_round=1, arrays={"u": np.arange(10)})
        (tmp_path / ".tmp-0badc0de.raw").write_bytes(b"half")
        (tmp_path / ".tmp-0badc0de.json").write_bytes(b"{")
        store.save("swap", swap_round=2, arrays={"u": np.arange(10)})
        assert sorted(os.listdir(tmp_path)) == [
            "snap-00000000-u.raw", "snap-00000000.json",
            "snap-00000001-u.raw", "snap-00000001.json",
        ]

    def test_unwritable_directory_raises_checkpoint_error(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permission bits")
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o500)
        try:
            store = CheckpointStore(target)
            with pytest.raises((CheckpointError, PermissionError)):
                store.save("swap")
        finally:
            os.chmod(target, 0o700)

    def test_clear_removes_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("swap")
        store.clear()
        assert store.load_latest() is None


class TestRunFingerprint:
    def test_deterministic_and_order_free(self):
        assert run_fingerprint(a=1, b="x") == run_fingerprint(b="x", a=1)

    def test_sensitive_to_values(self):
        assert run_fingerprint(seed=1) != run_fingerprint(seed=2)


class TestSwapResume:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_resume_bitwise_identical(self, tmp_path, backend):
        g = _graph()
        cfg = ParallelConfig(seed=42, threads=2, backend=backend)
        ref_stats = SwapStats()
        ref = swap_edges(g, 8, cfg, stats=ref_stats)

        d = tmp_path / backend
        ckpt_stats = SwapStats()
        out = swap_edges(
            g, 8, cfg, stats=ckpt_stats, checkpoint_dir=d, checkpoint_every=2
        )
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)
        assert ckpt_stats == ref_stats

        _drop_newest(d, 2)  # crash after round 4 of 8
        res_stats = SwapStats()
        res = swap_edges(g, 8, cfg, stats=res_stats, resume_from=d)
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert res_stats == ref_stats

    @pytest.mark.parametrize(
        "take,resume", [("serial", "vectorized"), ("vectorized", "serial")]
    )
    def test_cross_backend_resume(self, tmp_path, take, resume):
        """A checkpoint taken on one backend resumes on the other bit for
        bit."""
        g = _graph(seed=3)
        ref = swap_edges(g, 6, ParallelConfig(seed=9, threads=2, backend=take))
        swap_edges(
            g,
            6,
            ParallelConfig(seed=9, threads=2, backend=take),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        _drop_newest(tmp_path, 1)
        out = swap_edges(
            g,
            6,
            ParallelConfig(seed=9, threads=2, backend=resume),
            resume_from=tmp_path,
        )
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)

    def test_resume_from_every_retained_round(self, tmp_path):
        g = _graph(seed=5)
        cfg = ParallelConfig(seed=1, threads=2)
        ref = swap_edges(g, 6, cfg)
        swap_edges(g, 6, cfg, checkpoint_dir=tmp_path, checkpoint_every=1)
        store = CheckpointStore(tmp_path)
        rounds = sorted(
            {store._decode(s, p).swap_round for s, p in store._manifests()}
        )
        assert rounds  # keep=3 retains the last few rounds
        for r in rounds:
            snap = next(
                store._decode(s, p)
                for s, p in sorted(store._manifests())
                if store._decode(s, p).swap_round == r
            )
            out = swap_edges(g, 6, cfg, resume_from=snap)
            np.testing.assert_array_equal(out.u, ref.u)

    def test_resume_finished_run_is_noop_replay(self, tmp_path):
        g = _graph(seed=6)
        cfg = ParallelConfig(seed=2, threads=2)
        ref = swap_edges(g, 4, cfg, checkpoint_dir=tmp_path, checkpoint_every=1)
        out = swap_edges(g, 4, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)

    def test_wrong_run_raises_mismatch(self, tmp_path):
        g = _graph(seed=7)
        swap_edges(
            g,
            4,
            ParallelConfig(seed=1, threads=2),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        with pytest.raises(CheckpointMismatchError):
            swap_edges(
                g, 4, ParallelConfig(seed=99, threads=2), resume_from=tmp_path
            )

    def test_checkpoint_every_requires_dir(self, tmp_path):
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            swap_edges(_graph(), 2, ParallelConfig(seed=1), checkpoint_every=2)
        # the converse: a directory without a cadence would stay empty
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            swap_edges(_graph(), 2, ParallelConfig(seed=1),
                       checkpoint_dir=tmp_path)
        assert os.listdir(tmp_path) == []

    def test_empty_store_resume_starts_fresh(self, tmp_path):
        g = _graph(seed=8)
        cfg = ParallelConfig(seed=3, threads=2)
        ref = swap_edges(g, 3, cfg)
        out = swap_edges(g, 3, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)

    def test_callback_not_replayed_for_finished_rounds(self, tmp_path):
        g = _graph(seed=9)
        cfg = ParallelConfig(seed=4, threads=2)
        swap_edges(g, 6, cfg, checkpoint_dir=tmp_path, checkpoint_every=2)
        _drop_newest(tmp_path, 1)  # newest retained round is now 4
        seen = []
        swap_edges(
            g, 6, cfg, resume_from=tmp_path, callback=lambda it, _: seen.append(it)
        )
        assert seen == [4, 5]


#: every SwapStats field a snapshot carries (mixing is a derived view)
STATS_FIELDS = [f.name for f in dataclasses.fields(SwapStats) if f.name != "mixing"]


def _distinct_stats() -> SwapStats:
    """SwapStats with a distinct, non-default value in every counted field."""
    stats = SwapStats(
        iterations=3, proposed=5, accepted=7, rejected_duplicate=11,
        rejected_self_loop=13, accepted_per_iteration=[17, 19],
        swapped_fraction_per_iteration=[0.25, 0.5], table_failures=23,
        table_attempts=np.int64(29), permutation_rounds=31,
    )
    for name in STATS_FIELDS:
        assert getattr(stats, name) != getattr(SwapStats(), name), name
    return stats


class TestSwapStatsSnapshot:
    """The snapshot codec and the merge keep every field, including the
    ``compare=False`` table counters that ``==`` never checks."""

    def test_json_roundtrip_keeps_every_field(self):
        stats = _distinct_stats()
        back = _stats_from_meta(json.loads(json.dumps(_stats_to_meta(stats))))
        for name in STATS_FIELDS:
            assert getattr(back, name) == getattr(stats, name), name

    def test_merge_from_keeps_every_field(self):
        stats = _distinct_stats()
        acc = SwapStats()
        acc.merge_from(stats)
        acc.merge_from(stats)
        for name in STATS_FIELDS:
            once = getattr(stats, name)
            # counters add, per-iteration lists concatenate
            assert getattr(acc, name) == once + once, name


class TestGenerateResume:
    def test_phase_snapshots_and_done_short_circuit(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=11, threads=2)
        ref, ref_report = generate_graph(small_dist, swap_iterations=4, config=cfg)
        out, report = generate_graph(
            small_dist,
            swap_iterations=4,
            config=cfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        np.testing.assert_array_equal(out.u, ref.u)
        assert not report.resumed
        assert CheckpointStore(tmp_path).load_latest().phase == "done"

        res, res_report = generate_graph(
            small_dist, swap_iterations=4, config=cfg, resume_from=tmp_path
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert res_report.resumed
        assert res_report.swap_stats == report.swap_stats

    def test_mid_swap_resume(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=12, threads=2)
        ref, ref_report = generate_graph(small_dist, swap_iterations=6, config=cfg)
        generate_graph(
            small_dist,
            swap_iterations=6,
            config=cfg,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        _drop_newest(tmp_path, 2)  # lose 'done' and the last swap round
        res, report = generate_graph(
            small_dist,
            swap_iterations=6,
            config=cfg,
            resume_from=tmp_path,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert report.resumed
        assert report.swap_stats == ref_report.swap_stats

    def test_probabilities_snapshot_has_no_payload(self, tmp_path, small_dist):
        """The probabilities snapshot keeps its phase marker and timings
        but writes no array: every run recomputes P."""
        cfg = ParallelConfig(seed=11, threads=2)
        generate_graph(small_dist, swap_iterations=1, config=cfg,
                       checkpoint_dir=tmp_path)
        manifest = json.loads((tmp_path / "snap-00000000.json").read_text())
        assert manifest["phase"] == "probabilities"
        assert set(manifest["meta"]["phase_seconds"]) == {"probabilities"}
        assert manifest["arrays"] == {}
        assert [f for f in os.listdir(tmp_path)
                if f.startswith("snap-00000000")] == ["snap-00000000.json"]

    def test_non_graphical_rejected_at_boundary(self):
        with pytest.raises(NonGraphicalError, match="not graphical"):
            generate_graph(DegreeDistribution([3], [2]), config=ParallelConfig(seed=1))


DRILL_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.core.swap import swap_edges
    from repro.graph.edgelist import EdgeList
    from repro.parallel.runtime import ParallelConfig
    from tests.drills import kill_after_save

    backend, ckpt_dir, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
    if len(sys.argv) > 4:
        kill_after_save(int(sys.argv[4]))
    rng = np.random.default_rng(0)
    n, m = 120, 360
    g = EdgeList(
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        n,
    )
    cfg = ParallelConfig(seed=42, threads=2, backend=backend)
    out = swap_edges(
        g, 6, cfg, checkpoint_dir=ckpt_dir, checkpoint_every=1,
        resume_from=ckpt_dir,
    )
    np.savez(out_path, u=out.u, v=out.v)
    """
)


#: the drill driver, killed halfway through its (N+1)-th payload write
#: instead of right after a save
TORN_WRITE_SCRIPT = DRILL_SCRIPT.replace("kill_after_save", "tear_write_and_die")


class TestParentKillDrill:
    """SIGKILL the driver mid-swap; the resumed run must match bit for bit."""

    def _run(self, tmp_path, backend, kill_after=None, **env):
        """Run the drill driver; with ``kill_after=N`` it SIGKILLs itself
        after its (N+1)-th durable save."""
        argv = [
            sys.executable, "-c", DRILL_SCRIPT, backend,
            str(tmp_path / "store"), str(tmp_path / "out.npz"),
        ]
        if kill_after is not None:
            argv.append(str(kill_after))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]), **env)
        return subprocess.run(argv, env=env, capture_output=True, timeout=120)

    def _run_drill(self, tmp_path, backend, kill_after):
        first = self._run(tmp_path, backend, kill_after)
        assert first.returncode == -signal.SIGKILL, (
            f"driver survived the kill drill: rc={first.returncode}\n"
            + first.stderr.decode()
        )
        assert not (tmp_path / "out.npz").exists()
        snaps = [f for f in os.listdir(tmp_path / "store") if f.endswith(".json")]
        assert snaps, "no durable snapshot before the kill"
        second = self._run(tmp_path, backend)
        assert second.returncode == 0, second.stderr.decode()
        with np.load(tmp_path / "out.npz") as data:
            return data["u"].copy(), data["v"].copy()

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_sigkilled_run_resumes_bitwise_identical(self, tmp_path, backend):
        g = _graph()
        ref = swap_edges(g, 6, ParallelConfig(seed=42, threads=2, backend=backend))
        u, v = self._run_drill(tmp_path, backend, 2)
        np.testing.assert_array_equal(u, ref.u)
        np.testing.assert_array_equal(v, ref.v)

    def test_kill_after_first_checkpoint(self, tmp_path):
        g = _graph()
        ref = swap_edges(g, 6, ParallelConfig(seed=42, threads=2))
        u, v = self._run_drill(tmp_path, "vectorized", 0)
        np.testing.assert_array_equal(u, ref.u)
        np.testing.assert_array_equal(v, ref.v)

    def test_fault_env_var_has_no_effect(self, tmp_path):
        """The library reads no fault plan from the environment: a durable
        run with the retired ``REPRO_FAULTS`` set finishes normally."""
        run = self._run(
            tmp_path, "vectorized", REPRO_FAULTS="parentkill:checkpoint:0"
        )
        assert run.returncode == 0, run.stderr.decode()
        assert (tmp_path / "out.npz").exists()


class TestTornWriteDrill:
    """SIGKILL the driver halfway through a payload write.

    The kill leaves a torn ``.tmp-`` payload and, beside it, the payload
    renamed into place just before it, whose manifest was never written.
    The resumed run must match bit for bit, and its saves must leave
    neither behind.
    """

    def _run(self, tmp_path, backend, *argv):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        return subprocess.run(
            [sys.executable, "-c", TORN_WRITE_SCRIPT, backend,
             str(tmp_path / "store"), str(tmp_path / "out.npz"), *argv],
            env=env, capture_output=True, timeout=120,
        )

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_resume_after_torn_write_leaves_clean_store(self, tmp_path, backend):
        g = _graph()
        ref = swap_edges(g, 6, ParallelConfig(seed=42, threads=2, backend=backend))
        store = tmp_path / "store"
        # three payloads per swap save: the 8th write is seq 2's ``v``
        first = self._run(tmp_path, backend, "7")
        assert first.returncode == -signal.SIGKILL, first.stderr.decode()
        left = os.listdir(store)
        assert [f for f in left if f.startswith(".tmp-")], left
        assert "snap-00000002-u.raw" in left and "snap-00000002.json" not in left

        second = self._run(tmp_path, backend)
        assert second.returncode == 0, second.stderr.decode()
        with np.load(tmp_path / "out.npz") as data:
            np.testing.assert_array_equal(data["u"], ref.u)
            np.testing.assert_array_equal(data["v"], ref.v)
        names = os.listdir(store)
        assert not [f for f in names if f.startswith(".tmp-")], names
        manifests = {f[:-5] for f in names if f.endswith(".json")}
        assert len(manifests) <= 3  # the store's default ``keep``
        # every payload belongs to a retained snapshot
        assert {f.rsplit("-", 1)[0] for f in names if f.endswith(".raw")} <= manifests
