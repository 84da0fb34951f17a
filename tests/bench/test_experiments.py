"""Smoke + shape tests for the experiment drivers.

Full-size runs live in ``benchmarks/``; here every driver runs at a tiny
scale and its *shape* claims (who wins, what converges) are asserted.
"""

import numpy as np
import pytest

from repro.bench import experiments
from repro.datasets.synthetic import deterministic_powerlaw

TINY = deterministic_powerlaw(n=400, d_avg=3.8, d_max=80, n_classes=16)


class TestFig1:
    def test_shapes_and_overflow(self):
        r = experiments.fig1(TINY, samples=4, swap_iterations=5)
        assert r.series["fraction_exceeding_1"] > 0  # CL formula overflows
        emp = r.series["uniform_random"]
        assert (emp >= 0).all() and (emp <= 1).all()
        assert len(r.rows) == TINY.n_classes


class TestFig2:
    def test_erased_error_nonzero(self):
        r = experiments.fig2(TINY, samples=4)
        err = r.series["pct_error"]
        assert np.abs(err).max() > 1.0  # visible distortion
        assert len(err) == TINY.n_classes


class TestTable1:
    def test_all_rows(self):
        r = experiments.table1()
        assert len(r.rows) == 8
        for row in r.rows:
            davg_pub, davg_twin = row[3], row[8]
            assert davg_twin == pytest.approx(davg_pub, rel=0.03)


class TestFig3:
    def test_ours_beats_other_simple_generators(self):
        r = experiments.fig3(datasets=("Meso",), samples=3)
        by_method = {row[1]: row for row in r.rows}
        ours_edge_err = by_method["ours"][2]
        erased_edge_err = by_method["O(m) simple"][2]
        bernoulli_edge_err = by_method["O(n^2) edgeskip"][2]
        assert ours_edge_err < erased_edge_err
        assert ours_edge_err < bernoulli_edge_err
        # O(m) matches the edge count exactly (it draws exactly 2m stubs)
        assert by_method["CL O(m)"][2] == pytest.approx(0.0)


class TestFig4:
    def test_om_converges(self):
        r = experiments.fig4(
            "Meso", iterations=(0, 2, 6, 12), samples=2, baseline_samples=2,
            baseline_iterations=16,
        )
        om = r.series["methods"]["CL O(m)"]
        assert om[0] > om[-1]  # multigraph error decays with swaps
        ours = r.series["methods"]["ours"]
        # ours ends near the measurement noise floor
        assert ours[-1] < 3 * r.series["noise_floor"] + 0.05


class TestFig5:
    def test_rows_and_positive_times(self):
        r = experiments.fig5(datasets=("Meso",))
        assert len(r.rows) == 4
        assert all(row[2] > 0 for row in r.rows)


class TestFig6:
    def test_phase_breakdown(self):
        r = experiments.fig6(datasets=("Meso", "as20"))
        assert r.rows[-1][0] == "AVERAGE"
        totals = r.series["totals"]
        assert set(totals) == {"probabilities", "edge_generation", "swap"}
        # the paper's observation: probability generation is the cheap phase
        assert totals["probabilities"] < totals["swap"]


class TestSec8c:
    def test_swap_throughput(self):
        r = experiments.sec8c("LiveJournal", iterations=2, scale=0.002)
        fracs = [row[1] for row in r.rows]
        assert len(fracs) == 2
        assert fracs[1] > fracs[0]  # cumulative fraction grows
        assert fracs[0] > 0.5  # most edges swap in the first iteration
        assert r.series["speedup_16_threads"] > 4


class TestScaling:
    def test_speedup_monotone(self):
        r = experiments.scaling("Meso", thread_counts=(1, 4, 16), swap_iterations=1, scale=1.0)
        speedups = [row[1] for row in r.rows]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[1] > 2.0
        assert speedups[2] > speedups[1]


class TestLFRExperiment:
    def test_mixing_tracks_mu(self):
        r = experiments.lfr_experiment(mus=(0.1, 0.6), n=400)
        measured = [row[1] for row in r.rows]
        assert measured[1] > measured[0]


class TestCLI:
    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["nope"]) == 2

    def test_run_one(self, capsys):
        from repro.bench.cli import main

        assert main(["table1"]) == 0
        assert "table1" in capsys.readouterr().out


class TestExtensionExperiments:
    def test_directed(self):
        r = experiments.directed_experiment(n=200, arcs=800, swap_iterations=2)
        rows = {row[0]: row for row in r.rows}
        om = rows["directed CL O(m)"]
        ours = rows["directed ours"]
        assert om[2] + om[3] > 0  # O(m) has defects
        assert ours[2] == ours[3] == 0  # pipeline simple

    def test_corrections(self):
        r = experiments.corrections_experiment(samples=2)
        rows = {row[0]: row for row in r.rows}
        assert rows["corrected CL"][1] < rows["naive CL"][1]  # degrees fixed
        assert rows["corrected CL"][2] > 0.05  # bias remains

    def test_mixing(self):
        r = experiments.mixing_experiment(scale=0.3)
        metrics = dict(r.rows)
        assert metrics["iterations_to_999_swapped"] >= 1
        assert 0 < metrics["acceptance_rate"] <= 1

    def test_cli_runs_extensions(self, capsys):
        from repro.bench.cli import main

        assert main(["directed"]) == 0
        assert "directed" in capsys.readouterr().out

    def test_cli_out_writes_artifacts(self, tmp_path, capsys):
        from repro.bench.cli import main

        assert main(["table1", "--out", str(tmp_path / "res")]) == 0
        capsys.readouterr()
        text = (tmp_path / "res" / "table1.txt").read_text()
        assert "table1" in text


class TestDurable:
    def test_checkpoint_then_resume_same_digest(self, tmp_path):
        first = experiments.durable(
            swap_iterations=4, checkpoint_every=1, checkpoint_dir=str(tmp_path)
        )
        resumed = experiments.durable(
            swap_iterations=4,
            checkpoint_every=1,
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        assert first.series["digest"] == resumed.series["digest"]
        assert not first.series["report"].resumed
        assert resumed.series["report"].resumed

    def test_ephemeral_run_without_dir(self):
        result = experiments.durable(swap_iterations=2, checkpoint_every=1)
        assert result.series["digest"]

    def test_cli_flags(self, tmp_path, capsys):
        from repro.bench.cli import main

        out = tmp_path / "ck"
        assert main(["durable", "--checkpoint-dir", str(out)]) == 0
        assert "durable" in capsys.readouterr().out
        assert main(["durable", "--checkpoint-dir", str(out), "--resume"]) == 0
        assert "durable" in capsys.readouterr().out

    def test_cli_resume_requires_dir(self, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["durable", "--resume"])

    def test_cli_has_no_reap_dry_run(self, capsys):
        """Stores remove their own leftovers: there is no stale-artifact
        report to print."""
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["--reap-dry-run"])
        assert "unrecognized arguments: --reap-dry-run" in capsys.readouterr().err
