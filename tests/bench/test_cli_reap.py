"""The ``--reap-dry-run`` CLI flag: report stale artifacts, delete nothing."""

import subprocess
import sys

from repro.bench.cli import main


def _dead_pid() -> int:
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestReapDryRun:
    def test_nothing_stale(self, capsys):
        assert main(["--reap-dry-run"]) == 0
        out = capsys.readouterr().out
        assert "nothing stale" in out
        assert "0 artifacts" in out

    def test_reports_dead_writer_tmp_file_without_deleting(
        self, tmp_path, capsys
    ):
        ck = tmp_path / "ck"
        ck.mkdir()
        stale = ck / f".tmp-{_dead_pid()}-snap.npz"
        stale.write_bytes(b"x" * 512)
        assert main(["--reap-dry-run", "--checkpoint-dir", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "a reap would delete 1 artifact(s)" in out
        assert str(stale) in out
        assert "512" in out
        assert "checkpoint" in out
        # dry run: the artifact must survive
        assert stale.exists()
        assert stale.stat().st_size == 512

    def test_live_writer_tmp_file_not_reported(self, tmp_path, capsys):
        import os

        ck = tmp_path / "ck"
        ck.mkdir()
        live = ck / f".tmp-{os.getpid()}-snap.npz"
        live.write_bytes(b"x")
        assert main(["--reap-dry-run", "--checkpoint-dir", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "nothing stale" in out
        assert live.exists()

    def test_dry_run_skips_experiments(self, capsys):
        """The flag short-circuits before any experiment runs."""
        assert main(["--reap-dry-run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig" not in out
