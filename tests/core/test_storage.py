"""Out-of-core spill store: the spill decision, lifecycle, and durability.

What must hold:

- the swap phase (`spill_window`) spills exactly when a positive memory
  budget cannot hold the working set, and never otherwise;
- mmap-backed arrays and windowed kernels produce values identical to
  their RAM counterparts (the bitwise story's foundation);
- spill files are anonymous from creation on: the spill dir stays empty
  while a process holds spilled arrays, and stays empty after that
  process is SIGKILLed, so there is nothing to reap;
- a SIGKILLed mmap-backed durable run resumes bitwise-identically (the
  checkpoint raw payload mode round-trips mapped arrays) and leaves the
  spill dir empty;
- under an artificially tiny ``memory_budget_bytes`` the engine
  actually engages the spill path (property-tested over budgets).
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import CheckpointStore
from repro.core.generate import generate_graph
from repro.core.storage import (
    DEFAULT_WINDOW,
    MmapStore,
    copy_into,
    permute_into,
    spill_window,
    swap_working_set_bytes,
    total_bytes_mapped,
)
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
SRC = os.path.join(ROOT, "src")


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    """Point the spill dir at a per-test directory (and verify cleanup)."""
    d = tmp_path / "spill"
    monkeypatch.setenv("REPRO_SPILL_DIR", str(d))
    yield d


def _dist():
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[60, 40, 20, 4])


class TestSelection:
    def test_config_validates_store_fields(self):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ParallelConfig(memory_budget_bytes=-1)

    def test_store_knob_is_gone(self):
        """The budget alone decides spilling; there is no store override."""
        with pytest.raises(TypeError):
            ParallelConfig(store="mmap")

    def test_spill_window_budget(self):
        ws = swap_working_set_bytes(1000)
        assert spill_window(0, 1000) == 0  # no budget: unlimited
        assert spill_window(ws, 1000) == 0
        assert spill_window(1 << 10, 0) == 0  # nothing to spill
        tiny = spill_window(ws - 1, 1000)
        assert 0 < tiny <= DEFAULT_WINDOW
        assert spill_window(1 << 30, 10**8) == DEFAULT_WINDOW

    def test_working_set_estimates_scale_linearly(self):
        assert swap_working_set_bytes(10) == 10 * 25 * 2


class TestStores:
    def test_mmap_store_creates_and_releases_spill_files(self, _isolated_spill_dir):
        st_ = MmapStore()
        a = st_.empty(100, np.int64)
        assert not a.any()  # a fresh spill file reads as zeros
        a[:] = np.arange(100)
        # the file has no name from creation on: nothing to list or leak
        assert os.listdir(_isolated_spill_dir) == []
        assert st_.bytes_mapped == 800
        assert total_bytes_mapped() >= 800
        # the mapping alone keeps the file alive, past its store
        del st_
        assert np.array_equal(np.asarray(a), np.arange(100))

    def test_windowed_kernels_match_fancy_indexing(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 1000, 257)
        order = rng.permutation(257)
        for window in (1, 16, 256, 257, 10_000):
            dst = np.empty_like(src)
            permute_into(dst, src, order, window)
            np.testing.assert_array_equal(dst, src[order])
            cp = np.empty_like(src)
            copy_into(cp, src, window)
            np.testing.assert_array_equal(cp, src)

    def test_windowed_kernels_validate_lengths(self):
        with pytest.raises(ValueError, match="length"):
            copy_into(np.empty(3), np.empty(4))
        with pytest.raises(ValueError, match="equal length"):
            permute_into(np.empty(3), np.empty(4), np.arange(4))


class TestAnonymousSpill:
    def test_sigkilled_holder_leaves_spill_dir_empty(self, _isolated_spill_dir):
        """A process holding a spilled array shows nothing in the spill
        dir, and SIGKILLing it (so no cleanup code runs) leaves nothing
        behind: the kernel frees a file with no name and no mapping."""
        d = str(_isolated_spill_dir)
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro.core.storage import MmapStore
            store = MmapStore()
            arr = store.empty(4096, np.int64)
            arr[:] = 1
            print(int(arr.sum()), store.bytes_mapped, flush=True)
            time.sleep(60)  # parent SIGKILLs us mid-hold
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_SPILL_DIR=d)
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line == "4096 32768", f"child failed: {line!r}"
            assert os.listdir(d) == []
            maps = f"/proc/{proc.pid}/maps"
            if os.path.exists(maps):  # Linux: the mapping is a deleted file
                with open(maps) as fh:
                    held = [ln for ln in fh
                            if os.path.realpath(d) in ln and "(deleted)" in ln]
                assert held, "child maps no spill file"
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL
        assert os.listdir(d) == []


class TestCheckpointRawPayload:
    def test_big_arrays_use_raw_layout_and_roundtrip(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        big = np.arange(3_000_000, dtype=np.int64)
        st_.save("swap", swap_round=2, arrays={"u": big, "v": big[::-1].copy()},
                 fingerprint="fp")
        names = os.listdir(tmp_path)
        assert any(n.endswith(".raw") for n in names)
        assert not any(n.endswith(".npz") for n in names)
        snap = st_.load_latest("fp")
        assert isinstance(snap.arrays["u"], np.memmap)
        assert snap.arrays["u"].mode == "r"
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), big)
        np.testing.assert_array_equal(np.asarray(snap.arrays["v"]), big[::-1])

    def test_mapped_arrays_force_raw_even_when_small(self, tmp_path):
        arr = MmapStore().empty(32, np.int64)
        arr[:] = np.arange(32)
        st_ = CheckpointStore(tmp_path)
        st_.save("swap", arrays={"u": arr}, fingerprint="fp")
        assert any(n.endswith(".raw") for n in os.listdir(tmp_path))
        snap = st_.load_latest("fp")
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), np.arange(32))

    def test_small_ram_arrays_use_raw_layout(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        st_.save("swap", arrays={"u": np.arange(8), "f": np.ones(3, bool)},
                 fingerprint="fp")
        names = sorted(os.listdir(tmp_path))
        assert names == ["snap-00000000-f.raw", "snap-00000000-u.raw",
                         "snap-00000000.json"]
        snap = st_.load_latest("fp")
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), np.arange(8))
        np.testing.assert_array_equal(np.asarray(snap.arrays["f"]), np.ones(3, bool))

    def test_truncated_raw_payload_falls_back(self, tmp_path):
        st_ = CheckpointStore(tmp_path)
        arr = MmapStore().empty(64, np.int64)
        arr[:] = 1
        st_.save("swap", swap_round=1, arrays={"u": arr}, fingerprint="fp")
        arr[:] = 2
        st_.save("swap", swap_round=2, arrays={"u": arr}, fingerprint="fp")
        newest_raw = sorted(f for f in os.listdir(tmp_path) if f.endswith(".raw"))[-1]
        data = (tmp_path / newest_raw).read_bytes()
        (tmp_path / newest_raw).write_bytes(data[:-8])
        snap = st_.load_latest("fp")
        assert snap.swap_round == 1  # fell back past the torn snapshot
        np.testing.assert_array_equal(np.asarray(snap.arrays["u"]), np.full(64, 1))

    def test_prune_removes_raw_files(self, tmp_path):
        st_ = CheckpointStore(tmp_path, keep=2)
        arr = MmapStore().empty(16, np.int64)
        for round_ in range(4):
            arr[:] = round_
            st_.save("swap", swap_round=round_, arrays={"u": arr},
                     fingerprint="fp")
        raws = [f for f in os.listdir(tmp_path) if f.endswith(".raw")]
        assert len(raws) == 2  # pruned to keep=2


DRILL_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.core.generate import generate_graph
    from repro.graph.degree import DegreeDistribution
    from repro.parallel.runtime import ParallelConfig
    from tests.drills import kill_after_save

    ckpt_dir, out_path = sys.argv[1], sys.argv[2]
    if len(sys.argv) > 3:
        kill_after_save(int(sys.argv[3]))
    dist = DegreeDistribution(degrees=[1, 2, 3, 6], counts=[60, 40, 20, 4])
    cfg = ParallelConfig(seed=42, threads=2, memory_budget_bytes=1 << 12)
    out, report = generate_graph(
        dist, swap_iterations=6, config=cfg,
        checkpoint_dir=ckpt_dir, checkpoint_every=1, resume_from=ckpt_dir,
    )
    np.savez(out_path, u=np.asarray(out.u), v=np.asarray(out.v))
    """
)


class TestMmapSigkillResume:
    """SIGKILL an mmap-backed durable run; the resume must match bit for bit."""

    def test_sigkilled_mmap_run_resumes_bitwise_identical(self, tmp_path,
                                                          _isolated_spill_dir):
        dist = _dist()
        ref, _ = generate_graph(
            dist, swap_iterations=6,
            config=ParallelConfig(seed=42, threads=2),
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]),
                   REPRO_SPILL_DIR=str(_isolated_spill_dir))
        ckpt = tmp_path / "store"
        out_path = tmp_path / "out.npz"
        argv = [sys.executable, "-c", DRILL_SCRIPT, str(ckpt), str(out_path)]
        # the driver SIGKILLs itself after its 3rd durable save
        first = subprocess.run(
            argv + ["2"], env=env, capture_output=True, timeout=120,
        )
        assert first.returncode == -signal.SIGKILL, (
            f"driver survived the kill drill: rc={first.returncode}\n"
            + first.stderr.decode())
        assert not out_path.exists()
        assert any(f.endswith(".json") for f in os.listdir(ckpt)), (
            "no durable snapshot before the kill")
        # killed mid-swap with spilled arrays mapped: nothing left behind
        assert os.listdir(_isolated_spill_dir) == []
        second = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert second.returncode == 0, second.stderr.decode()
        with np.load(out_path) as data:
            np.testing.assert_array_equal(data["u"], np.asarray(ref.u))
            np.testing.assert_array_equal(data["v"], np.asarray(ref.v))
        assert os.listdir(_isolated_spill_dir) == []


class TestTinyBudgetProperty:
    @settings(max_examples=10, deadline=None)
    @given(budget=st.integers(min_value=1, max_value=1 << 12),
           seed=st.integers(min_value=0, max_value=2**20))
    def test_tiny_budget_engages_spill_and_preserves_output(self, budget, seed):
        """Any positive budget below the working set must spill — and the
        spilled run must equal the unconstrained RAM run bit for bit."""
        from repro.obs import RunTrace

        dist = _dist()
        ram_cfg = ParallelConfig(threads=2, seed=seed)
        ref, _ = generate_graph(dist, swap_iterations=1, config=ram_cfg)
        assert swap_working_set_bytes(ref.m) > budget  # premise of the test
        tiny_cfg = ParallelConfig(threads=2, seed=seed,
                                  memory_budget_bytes=budget)
        with RunTrace() as tr:
            out, _ = generate_graph(dist, swap_iterations=1, config=tiny_cfg)
            hist = tr.metrics.histograms.get("store.bytes_mapped")
            peak = float(hist.max) if hist is not None and hist.count else 0.0
        assert peak > 0, "spill did not engage under a tiny budget"
        np.testing.assert_array_equal(np.asarray(out.u), np.asarray(ref.u))
        np.testing.assert_array_equal(np.asarray(out.v), np.asarray(ref.v))
