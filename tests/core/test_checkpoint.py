"""Crash-consistent checkpoint/resume tests.

The durability tentpole's invariants:

- a resumed run is **bitwise-identical** to an uninterrupted run with the
  same seed — also when the snapshot was taken at another thread count,
  and, for ``swap_edges``, on the reference kernels
  (:func:`tests.drills.use_reference_engine`) or across them;
- a resume is refused when the fingerprints differ: another seed, swap
  budget or probabilities; ``generate_graph`` refuses an unseeded or
  Generator-seeded durable run outright;
- checkpoint writes are atomic: a snapshot truncated at any byte is
  detected by its checksum and the previous snapshot is used instead;
- the parent-SIGKILL drill (a driver subprocess that wraps
  ``CheckpointStore.save`` and kills itself after a chosen durable
  write) proves the whole story end to end, for ``swap_edges`` and
  ``generate_graph`` drivers;
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
from repro.core.generate import generate_graph, generation_fingerprint
from repro.core.probabilities import generate_probabilities
from repro.core.swap import (
    SwapStats,
    _stats_from_meta,
    _stats_to_meta,
    _swap_fingerprint,
    swap_edges,
)
from repro.graph.degree import DegreeDistribution, NonGraphicalError
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig
from tests.drills import durable_run, use_reference_engine

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

    def test_each_save_lists_the_store_once(self, tmp_path, monkeypatch):
        """Past the first save, which also finds the next sequence
        number, a save lists the store directory once."""
        store = CheckpointStore(tmp_path, keep=2)
        store.save("swap", swap_round=0, arrays={"u": np.arange(4)})
        names = store._names
        calls = []
        monkeypatch.setattr(store, "_names", lambda: calls.append(1) or names())
        for r in range(1, 5):
            calls.clear()
            store.save("swap", swap_round=r, arrays={"u": np.arange(4)})
            assert len(calls) == 1, f"save {r} listed the store {len(calls)} times"
        assert len([f for f in names() if f.endswith(".json")]) == 2

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


class TestRunFingerprint:
    def test_deterministic_and_order_free(self):
        assert run_fingerprint(a=1, b="x") == run_fingerprint(b="x", a=1)

    def test_sensitive_to_values(self):
        assert run_fingerprint(seed=1) != run_fingerprint(seed=2)

    def test_generation_fingerprint_pins_seed_budget_probabilities(self):
        dist = DegreeDistribution((1, 2), (4, 2))
        cfg = ParallelConfig(threads=4, seed=7)
        base = generation_fingerprint(dist, 3, cfg)
        assert generation_fingerprint(dist, 4, cfg) != base
        assert generation_fingerprint(
            dist, 3, dataclasses.replace(cfg, seed=8)) != base
        assert generation_fingerprint(
            dist, 3, dataclasses.replace(cfg, threads=9)) == base
        halved = generate_probabilities(dist, allocation="halved")
        assert generation_fingerprint(dist, 3, cfg, halved) != base
        # no probabilities means the default heuristic's
        assert generation_fingerprint(
            dist, 3, cfg, generate_probabilities(dist)) == base

    def test_generation_fingerprint_refuses_unseeded(self):
        """An unseeded run draws fresh entropy, and a Generator seed a
        stream that every call advances (its repr is a memory address):
        no fingerprint names either run."""
        dist = DegreeDistribution((1, 2), (4, 2))
        with pytest.raises(ValueError, match="seed"):
            generation_fingerprint(dist, 3, ParallelConfig())
        with pytest.raises(ValueError, match="Generator"):
            generation_fingerprint(
                dist, 3, ParallelConfig(seed=np.random.default_rng(11)))

    def test_swap_fingerprint_ignores_generator_identity(self):
        """Two live generators in the same state fingerprint alike, as
        unseeded runs do: a snapshot carries the stream state."""
        g = _graph(seed=2)
        # both stay alive, so the second cannot reuse the first's address
        a, b = (ParallelConfig(seed=np.random.default_rng(5)) for _ in range(2))
        fp_a, fp_b, fp_none, fp_int = (
            _swap_fingerprint(g, 4, cfg, "simple", "linear")
            for cfg in (a, b, ParallelConfig(), ParallelConfig(seed=5))
        )
        assert fp_a == fp_b == fp_none
        assert fp_a != fp_int

    def test_equal_generation_fingerprints_mean_equal_graphs(self):
        """Over two seeds, two thread counts and two probability
        heuristics, two runs share a fingerprint exactly when their
        graphs are bitwise-equal."""
        dist = DegreeDistribution([1, 2, 3, 6], [400, 240, 100, 40])
        runs = []
        for probs in (None, generate_probabilities(dist, allocation="halved")):
            for threads in (2, 8):
                for seed in (11, 12):
                    cfg = ParallelConfig(threads=threads, seed=seed)
                    out, _ = generate_graph(dist, swap_iterations=2,
                                            config=cfg, probabilities=probs)
                    runs.append((generation_fingerprint(dist, 2, cfg, probs), out))
        assert len({f for f, _ in runs}) == 4
        for fa, a in runs:
            for fb, b in runs:
                same = np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
                assert (fa == fb) == same


class TestSwapResume:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_resume_bitwise_identical(self, tmp_path, backend, monkeypatch):
        if backend == "serial":
            use_reference_engine(monkeypatch)
        g = _graph()
        cfg = ParallelConfig(seed=42, threads=2)
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
    def test_cross_backend_resume(self, tmp_path, take, resume, monkeypatch):
        """A checkpoint taken on one engine (``serial``: the reference
        kernels) resumes on the other bit for bit."""
        g = _graph(seed=3)
        cfg = ParallelConfig(seed=9, threads=2)
        with monkeypatch.context() as mp:
            if take == "serial":
                use_reference_engine(mp)
            ref = swap_edges(g, 6, cfg)
            swap_edges(g, 6, cfg, checkpoint_dir=tmp_path, checkpoint_every=2)
        _drop_newest(tmp_path, 1)
        if resume == "serial":
            use_reference_engine(monkeypatch)
        out = swap_edges(g, 6, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)

    def test_resume_across_thread_counts(self, tmp_path):
        """The thread count changes no output, so a snapshot taken at
        ``threads=2`` resumes at ``threads=8`` bit for bit."""
        g = _graph(seed=4)
        ref_stats = SwapStats()
        ref = swap_edges(g, 6, ParallelConfig(seed=9, threads=8),
                         stats=ref_stats)
        swap_edges(g, 6, ParallelConfig(seed=9, threads=2),
                   checkpoint_dir=tmp_path, checkpoint_every=2)
        _drop_newest(tmp_path, 1)
        res_stats = SwapStats()
        out = swap_edges(g, 6, ParallelConfig(seed=9, threads=8),
                         stats=res_stats, resume_from=tmp_path)
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.v, ref.v)
        assert res_stats == ref_stats

    def test_unseeded_run_resumes(self, tmp_path):
        """An unseeded chain's snapshot carries its RNG state and its
        fingerprint hashes the input edges, so a resume continues the
        same chain."""
        g = _graph(seed=6)
        cfg = ParallelConfig(threads=2)
        full = swap_edges(g, 6, cfg, checkpoint_dir=tmp_path,
                          checkpoint_every=1)
        _drop_newest(tmp_path, 2)
        res = swap_edges(g, 6, cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(res.u, full.u)
        np.testing.assert_array_equal(res.v, full.v)

    def test_generator_seeded_run_resumes(self, tmp_path):
        """A chain seeded with one live ``default_rng(5)`` resumes under
        another, bit for bit: the snapshot restores the stream state."""
        g = _graph(seed=6)
        # all three stay alive, so no generator reuses another's address
        ref_cfg, take_cfg, resume_cfg = (
            ParallelConfig(seed=np.random.default_rng(5), threads=2)
            for _ in range(3)
        )
        ref = swap_edges(g, 6, ref_cfg)
        swap_edges(g, 6, take_cfg, checkpoint_dir=tmp_path, checkpoint_every=1)
        _drop_newest(tmp_path, 2)
        res = swap_edges(g, 6, resume_cfg, resume_from=tmp_path)
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)

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
        """Only the swap chain snapshots, its final round included, and a
        resume of a finished run replays no round."""
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
        store = CheckpointStore(tmp_path)
        assert {store._decode(s, p).phase for s, p in store._manifests()} == {"swap"}
        newest = store.load_latest()
        assert (newest.phase, newest.swap_round) == ("swap", 4)

        seen = []
        res, res_report = generate_graph(
            small_dist, swap_iterations=4, config=cfg, resume_from=tmp_path,
            callback=lambda it, _: seen.append(it),
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert res_report.resumed
        assert res_report.swap_stats == ref_report.swap_stats
        assert seen == []

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
        _drop_newest(tmp_path, 2)  # lose the last two swap rounds
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

    @pytest.mark.parametrize(
        "lost", [0, 2], ids=["final-round-vectorized", "mid-swap-vectorized"]
    )
    def test_resume_matches_uninterrupted(self, tmp_path, small_dist, lost):
        cfg = ParallelConfig(seed=13, threads=2)
        ref, ref_report = generate_graph(small_dist, swap_iterations=6, config=cfg)
        generate_graph(small_dist, swap_iterations=6, config=cfg,
                       checkpoint_dir=tmp_path, checkpoint_every=1)
        if lost:
            _drop_newest(tmp_path, lost)
        res, report = generate_graph(small_dist, swap_iterations=6, config=cfg,
                                     resume_from=tmp_path)
        assert report.resumed
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert report.swap_stats == ref_report.swap_stats

    def test_resume_across_thread_counts(self, tmp_path, small_dist):
        """A snapshot taken at ``threads=2`` resumes at ``threads=8`` and
        matches the uninterrupted ``threads=8`` run bit for bit."""
        ref, ref_report = generate_graph(
            small_dist, swap_iterations=6,
            config=ParallelConfig(seed=13, threads=8),
        )
        generate_graph(small_dist, swap_iterations=6,
                       config=ParallelConfig(seed=13, threads=2),
                       checkpoint_dir=tmp_path, checkpoint_every=1)
        _drop_newest(tmp_path, 2)
        res, report = generate_graph(
            small_dist, swap_iterations=6,
            config=ParallelConfig(seed=13, threads=8), resume_from=tmp_path,
        )
        assert report.resumed
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
        assert report.swap_stats == ref_report.swap_stats

    def test_resume_with_other_probabilities_refused(self, tmp_path,
                                                     small_dist):
        """Other probabilities draw other edges: their snapshots belong to
        a different run."""
        cfg = ParallelConfig(seed=9, threads=2)
        generate_graph(
            small_dist, swap_iterations=4, config=cfg,
            probabilities=generate_probabilities(small_dist,
                                                 allocation="halved"),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        _drop_newest(tmp_path, 1)
        with pytest.raises(CheckpointMismatchError, match="different run"):
            generate_graph(small_dist, swap_iterations=4, config=cfg,
                           resume_from=tmp_path)

    def test_checkpoint_dir_requires_cadence(self, tmp_path, small_dist,
                                             monkeypatch):
        """A directory without a cadence would get no snapshot: refused
        before any phase runs, as the converse is."""

        def no_phase(*args, **kwargs):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(
            "repro.core.generate.generate_probabilities", no_phase)
        cfg = ParallelConfig(seed=11, threads=2)
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            generate_graph(small_dist, swap_iterations=1, config=cfg,
                           checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            generate_graph(small_dist, swap_iterations=1, config=cfg,
                           checkpoint_every=1)
        assert os.listdir(tmp_path) == []

    def test_unseeded_durable_run_refused(self, tmp_path, small_dist,
                                          monkeypatch):
        """An unseeded or Generator-seeded run would redraw its edges on
        resume, from fresh entropy or from an advanced stream: refused
        before any phase runs."""

        def no_phase(*args, **kwargs):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(
            "repro.core.generate.generate_probabilities", no_phase)
        for cfg in (ParallelConfig(threads=2),
                    ParallelConfig(seed=np.random.default_rng(11), threads=2)):
            with pytest.raises(ValueError, match="seed"):
                generate_graph(small_dist, swap_iterations=1, config=cfg,
                               checkpoint_dir=tmp_path, checkpoint_every=1)
            with pytest.raises(ValueError, match="seed"):
                generate_graph(small_dist, swap_iterations=1, config=cfg,
                               resume_from=tmp_path)
        assert os.listdir(tmp_path) == []

    def test_resumed_mixing_samples_match_uninterrupted(self, tmp_path):
        """A resumed chain's mixing probe measures overlap against the
        generated start graph, as the uninterrupted run's does."""
        dist = DegreeDistribution([1, 2, 3, 6], [400, 240, 100, 40])
        cfg = ParallelConfig(seed=11, threads=2)
        _, ref = generate_graph(dist, swap_iterations=6, config=cfg,
                                mixing_every=1, checkpoint_dir=tmp_path,
                                checkpoint_every=1)
        while CheckpointStore(tmp_path).load_latest().swap_round != 5:
            _drop_newest(tmp_path)
        _, res = generate_graph(dist, swap_iterations=6, config=cfg,
                                mixing_every=1, resume_from=tmp_path)
        assert res.resumed
        expect = {s.iteration: s for s in ref.swap_stats.mixing.samples}
        assert list(res.swap_stats.mixing.iterations()) == [0, 6]
        for sample in res.swap_stats.mixing.samples:
            assert sample == expect[sample.iteration]

    def test_non_graphical_rejected_at_boundary(self):
        with pytest.raises(NonGraphicalError, match="not graphical"):
            generate_graph(DegreeDistribution([3], [2]), config=ParallelConfig(seed=1))


DRILL_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import numpy as np

    from repro.core.swap import _stats_to_meta
    from tests.drills import durable_run, kill_after_save

    driver, store, out_path = sys.argv[1:4]
    if len(sys.argv) > 4:
        kill_after_save(int(sys.argv[4]))
    out, stats = durable_run(driver, store)
    np.savez(out_path, u=out.u, v=out.v,
             stats=json.dumps(_stats_to_meta(stats)))
    """
)


#: the drill driver, killed halfway through its (N+1)-th payload write
#: instead of right after a save
TORN_WRITE_SCRIPT = DRILL_SCRIPT.replace("kill_after_save", "tear_write_and_die")

#: the drills' drivers; a ``swap_edges`` drill is named by its engine alone
DRIVERS = [
    pytest.param("swap", id="vectorized"),
    pytest.param("generate", id="generate-vectorized"),
]


def _drill(tmp_path, script, driver, *argv, **env):
    """Run a drill driver against ``tmp_path``'s store and output file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]), **env)
    return subprocess.run(
        [sys.executable, "-c", script, driver,
         str(tmp_path / "store"), str(tmp_path / "out.npz"), *argv],
        env=env, capture_output=True, timeout=120,
    )


def _assert_matches_uninterrupted(out_path, driver) -> None:
    """The drill's output bits and ``SwapStats`` equal an uninterrupted
    run's."""
    ref, ref_stats = durable_run(driver)
    with np.load(out_path) as data:
        np.testing.assert_array_equal(data["u"], ref.u)
        np.testing.assert_array_equal(data["v"], ref.v)
        assert _stats_from_meta(json.loads(str(data["stats"]))) == ref_stats


class TestParentKillDrill:
    """SIGKILL the driver mid-swap; the resumed run must match bit for bit."""

    def _run_drill(self, tmp_path, driver, kill_after):
        """SIGKILL the driver after its (``kill_after`` + 1)-th durable
        save, then relaunch it."""
        first = _drill(tmp_path, DRILL_SCRIPT, driver, str(kill_after))
        assert first.returncode == -signal.SIGKILL, (
            f"driver survived the kill drill: rc={first.returncode}\n"
            + first.stderr.decode()
        )
        assert not (tmp_path / "out.npz").exists()
        snap = CheckpointStore(tmp_path / "store").load_latest()
        assert snap is not None, "no durable snapshot before the kill"
        assert (snap.phase, snap.swap_round) == ("swap", kill_after + 1)
        second = _drill(tmp_path, DRILL_SCRIPT, driver)
        assert second.returncode == 0, second.stderr.decode()
        _assert_matches_uninterrupted(tmp_path / "out.npz", driver)

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_sigkilled_run_resumes_bitwise_identical(self, tmp_path, driver):
        self._run_drill(tmp_path, driver, 2)

    def test_kill_after_first_checkpoint(self, tmp_path):
        self._run_drill(tmp_path, "swap", 0)

    def test_fault_env_var_has_no_effect(self, tmp_path):
        """The library reads no fault plan from the environment: a durable
        run with the retired ``REPRO_FAULTS`` set finishes normally."""
        run = _drill(tmp_path, DRILL_SCRIPT, "swap",
                     REPRO_FAULTS="parentkill:checkpoint:0")
        assert run.returncode == 0, run.stderr.decode()
        assert (tmp_path / "out.npz").exists()


class TestTornWriteDrill:
    """SIGKILL the driver halfway through a payload write.

    The kill leaves a torn ``.tmp-`` payload and, beside it, the payload
    renamed into place just before it, whose manifest was never written.
    The resumed run must match bit for bit, and its saves must leave
    neither behind.
    """

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_resume_after_torn_write_leaves_clean_store(self, tmp_path,
                                                        driver):
        store = tmp_path / "store"
        # three payloads per swap save: the 8th write is seq 2's ``v``
        first = _drill(tmp_path, TORN_WRITE_SCRIPT, driver, "7")
        assert first.returncode == -signal.SIGKILL, first.stderr.decode()
        left = os.listdir(store)
        assert [f for f in left if f.startswith(".tmp-")], left
        assert "snap-00000002-u.raw" in left and "snap-00000002.json" not in left

        second = _drill(tmp_path, TORN_WRITE_SCRIPT, driver)
        assert second.returncode == 0, second.stderr.decode()
        _assert_matches_uninterrupted(tmp_path / "out.npz", driver)
        names = os.listdir(store)
        assert not [f for f in names if f.startswith(".tmp-")], names
        manifests = {f[:-5] for f in names if f.endswith(".json")}
        assert len(manifests) <= 3  # the store's default ``keep``
        # every payload belongs to a retained snapshot
        assert {f.rsplit("-", 1)[0] for f in names if f.endswith(".raw")} <= manifests
