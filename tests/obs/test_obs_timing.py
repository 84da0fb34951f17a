"""Timing-attribution regressions: resumed runs must report both the
tail's wall time and the cumulative spend across every attempt."""

import os

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.parallel.runtime import ParallelConfig


def _drop_newest(directory, k=1) -> None:
    """Simulate a crash by removing the newest k snapshots (manifest and
    ``.raw`` payload files)."""
    snaps = sorted(f for f in os.listdir(directory) if f.endswith(".json"))
    for fn in snaps[-k:]:
        stem = fn[:-5]
        for name in os.listdir(directory):
            if name == fn or name.startswith(stem + "-"):
                os.unlink(os.path.join(directory, name))


class TestCumulativeTiming:
    def test_fresh_run_has_no_prior(self, small_dist, cfg):
        _, report = generate_graph(small_dist, swap_iterations=2, config=cfg)
        assert report.prior_phase_seconds == {}
        assert report.cumulative_seconds == pytest.approx(report.total_seconds)
        assert report.cumulative_phase_seconds == report.phase_seconds

    def test_mid_swap_resume_banks_prior_spend(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=12, threads=2)
        _, first = generate_graph(
            small_dist, swap_iterations=6, config=cfg,
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        _drop_newest(tmp_path, 2)  # lose 'done' and the last swap round
        _, report = generate_graph(
            small_dist, swap_iterations=6, config=cfg, resume_from=tmp_path,
        )
        assert report.resumed
        prior = report.prior_phase_seconds
        # the interrupted attempt banked all three phases (swap partially)
        assert set(prior) == {"probabilities", "edge_generation", "swap"}
        assert all(v > 0 for v in prior.values())
        # tail attribution is separate from the banked spend
        assert report.cumulative_seconds == pytest.approx(
            sum(prior.values()) + report.total_seconds
        )
        cum = report.cumulative_phase_seconds
        for phase, tail in report.phase_seconds.items():
            assert cum[phase] == pytest.approx(prior.get(phase, 0.0) + tail)
        # cumulative counts the swap phase across both attempts, so it
        # must exceed the tail's swap time by the banked swap spend
        assert cum["swap"] > report.phase_seconds["swap"]

    def test_done_short_circuit_reports_prior(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=11, threads=2)
        generate_graph(
            small_dist, swap_iterations=4, config=cfg,
            checkpoint_dir=tmp_path, checkpoint_every=2,
        )
        _, report = generate_graph(
            small_dist, swap_iterations=4, config=cfg, resume_from=tmp_path,
        )
        assert report.resumed
        # the finished attempt's full spend was restored from the store
        assert set(report.prior_phase_seconds) == {
            "probabilities", "edge_generation", "swap",
        }
        assert report.cumulative_seconds > report.total_seconds

    def test_resume_output_unchanged_by_timing_fields(self, tmp_path, small_dist):
        cfg = ParallelConfig(seed=12, threads=2)
        ref, _ = generate_graph(small_dist, swap_iterations=6, config=cfg)
        generate_graph(
            small_dist, swap_iterations=6, config=cfg,
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        _drop_newest(tmp_path, 2)
        res, _ = generate_graph(
            small_dist, swap_iterations=6, config=cfg, resume_from=tmp_path,
        )
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.v, ref.v)
