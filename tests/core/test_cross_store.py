"""Cross-store differential matrix: ram vs spilled must be bitwise-identical.

The out-of-core engine's contract is that spilling changes *where*
bytes live, never what they are: for a fixed seed and config, a run
whose swap phase spills, on either backend, reproduces the in-RAM run's
edge arrays bit for bit.  The matrix here is the enforcement:
(serial | vectorized) × (no budget | a budget near the working set |
a one-byte budget), all compared against the in-RAM baseline of the
same cell.
"""

import os

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))


def _dist():
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[90, 60, 30, 6])


#: memory budgets: unlimited (in RAM); 8 KiB, near the working set, so
#: whether it spills depends on the edge count each backend generates;
#: one byte, which always spills
BUDGETS = (0, 1 << 13, 1)


class TestCrossStoreMatrix:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_store_never_changes_the_graph(self, backend):
        dist = _dist()
        baseline = None
        for budget in BUDGETS:
            cfg = ParallelConfig(
                threads=2, backend=backend, seed=5, memory_budget_bytes=budget,
            )
            out, report = generate_graph(dist, swap_iterations=2, config=cfg)
            if baseline is None:
                baseline = out
                continue
            np.testing.assert_array_equal(
                np.asarray(out.u), np.asarray(baseline.u),
                err_msg=f"{backend}/{budget}: u diverged from the ram baseline",
            )
            np.testing.assert_array_equal(
                np.asarray(out.v), np.asarray(baseline.v),
                err_msg=f"{backend}/{budget}: v diverged from the ram baseline",
            )

    def test_mmap_run_leaves_no_spill_files(self, tmp_path):
        """Release-on-return settles the disk debt before the run ends."""
        dist = _dist()
        cfg = ParallelConfig(threads=2, backend="vectorized", seed=5,
                             memory_budget_bytes=1)
        generate_graph(dist, swap_iterations=1, config=cfg)
        spill = tmp_path / "spill"
        leftovers = (
            [f for f in os.listdir(spill) if f.endswith(".bin")]
            if spill.is_dir() else []
        )
        assert leftovers == []

    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_resume_crosses_stores(self, tmp_path, backend):
        """A checkpoint taken by a spilled run resumes correctly without
        a budget — where arrays live is execution detail, like
        backends."""
        dist = _dist()
        ref, _ = generate_graph(
            dist, swap_iterations=4,
            config=ParallelConfig(threads=2, backend=backend, seed=9),
        )

        class Stop(Exception):
            pass

        def bail(it, g):
            if it == 1:
                raise Stop()

        ckpt = tmp_path / "ckpt"
        mmap_cfg = ParallelConfig(threads=2, backend=backend, seed=9,
                                  memory_budget_bytes=1)
        with pytest.raises(Stop):
            generate_graph(
                dist, swap_iterations=4, config=mmap_cfg,
                checkpoint_dir=ckpt, checkpoint_every=1, callback=bail,
            )
        ram_cfg = ParallelConfig(threads=2, backend=backend, seed=9)
        out, report = generate_graph(
            dist, swap_iterations=4, config=ram_cfg,
            checkpoint_dir=ckpt, checkpoint_every=1, resume_from=ckpt,
        )
        assert report.resumed
        np.testing.assert_array_equal(np.asarray(out.u), np.asarray(ref.u))
        np.testing.assert_array_equal(np.asarray(out.v), np.asarray(ref.v))
