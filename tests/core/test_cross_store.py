"""Cross-store differential matrix: ram vs spilled must be bitwise-identical.

The out-of-core engine's contract is that spilling changes *where*
bytes live, never what they are: for a fixed seed and config, a run
whose swap phase spills, on the default swap kernels or on their
references (``serial``, :func:`tests.drills.use_reference_engine`),
reproduces the in-RAM run's edge arrays bit for bit, and its
swapped-at-least-once fractions.  The matrix here is the enforcement:
(serial | vectorized) × (no budget | one byte under the swap working set
| a one-byte budget), all compared against the in-RAM baseline of the
same cell.  The near-working-set budget is derived from the edge count
the baseline generated, and each budgeted row asserts that it did spill.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.core.storage import swap_working_set_bytes
from repro.graph.degree import DegreeDistribution
from repro.obs import RunTrace
from repro.parallel.runtime import ParallelConfig
from tests.drills import use_reference_engine


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))


def _dist():
    return DegreeDistribution(degrees=[1, 2, 3, 6], counts=[90, 60, 30, 6])


class TestCrossStoreMatrix:
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_store_never_changes_the_graph(self, backend, monkeypatch):
        if backend == "serial":
            use_reference_engine(monkeypatch)
        dist = _dist()
        cfg = ParallelConfig(threads=2, seed=5)
        baseline, base_report = generate_graph(dist, swap_iterations=2, config=cfg)
        # memory budgets of the spilled rows: one byte under the baseline's
        # swap working set (the largest budget that still spills), and one
        # byte
        for budget in (swap_working_set_bytes(baseline.m) - 1, 1):
            with RunTrace() as tr:
                out, report = generate_graph(
                    dist, swap_iterations=2,
                    config=replace(cfg, memory_budget_bytes=budget),
                )
            replans = [e["attrs"]["phase"] for e in tr.events("tune.replan")]
            assert replans == ["storage"], f"{backend}/{budget}: did not spill"
            np.testing.assert_array_equal(
                np.asarray(out.u), np.asarray(baseline.u),
                err_msg=f"{backend}/{budget}: u diverged from the ram baseline",
            )
            np.testing.assert_array_equal(
                np.asarray(out.v), np.asarray(baseline.v),
                err_msg=f"{backend}/{budget}: v diverged from the ram baseline",
            )
            # the spilled swapped-at-least-once flags start from a fresh
            # (zero-filled) spill file, so the fractions must match too
            assert (report.swap_stats.swapped_fraction_per_iteration
                    == base_report.swap_stats.swapped_fraction_per_iteration)

    def test_mmap_run_leaves_no_spill_files(self, tmp_path):
        """Spill files are anonymous: a spilled run never names one."""
        dist = _dist()
        cfg = ParallelConfig(threads=2, seed=5, memory_budget_bytes=1)
        generate_graph(dist, swap_iterations=1, config=cfg)
        assert os.listdir(tmp_path / "spill") == []

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_resume_crosses_stores(self, tmp_path, backend, monkeypatch):
        """A checkpoint taken by a spilled run resumes correctly without
        a budget — where arrays live is execution detail, like the
        thread count."""
        if backend == "serial":
            use_reference_engine(monkeypatch)
        dist = _dist()
        ref, _ = generate_graph(
            dist, swap_iterations=4, config=ParallelConfig(threads=2, seed=9),
        )

        class Stop(Exception):
            pass

        def bail(it, g):
            if it == 1:
                raise Stop()

        ckpt = tmp_path / "ckpt"
        mmap_cfg = ParallelConfig(threads=2, seed=9, memory_budget_bytes=1)
        with pytest.raises(Stop):
            generate_graph(
                dist, swap_iterations=4, config=mmap_cfg,
                checkpoint_dir=ckpt, checkpoint_every=1, callback=bail,
            )
        ram_cfg = ParallelConfig(threads=2, seed=9)
        out, report = generate_graph(
            dist, swap_iterations=4, config=ram_cfg,
            checkpoint_dir=ckpt, checkpoint_every=1, resume_from=ckpt,
        )
        assert report.resumed
        np.testing.assert_array_equal(np.asarray(out.u), np.asarray(ref.u))
        np.testing.assert_array_equal(np.asarray(out.v), np.asarray(ref.v))
