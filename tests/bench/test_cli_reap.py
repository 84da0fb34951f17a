"""The ``--reap-dry-run`` CLI flag: report stale artifacts, delete nothing."""

import subprocess
import sys

import pytest

from repro.bench.cli import main


@pytest.fixture(autouse=True)
def _isolated_spill_dir(tmp_path, monkeypatch):
    """Point the spill sweep at an empty dir so the host's real stale
    spill files (if any) never leak into assertions."""
    d = tmp_path / "spill"
    d.mkdir()
    monkeypatch.setenv("REPRO_SPILL_DIR", str(d))
    return d


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

    def test_reports_dead_owner_spill_file_without_deleting(
        self, _isolated_spill_dir, capsys
    ):
        from repro.core.storage import SPILL_PREFIX

        stale = _isolated_spill_dir / f"{SPILL_PREFIX}{_dead_pid()}-0-dead.bin"
        stale.write_bytes(b"x" * 256)
        assert main(["--reap-dry-run"]) == 0
        out = capsys.readouterr().out
        assert "a reap would delete 1 artifact(s)" in out
        assert str(stale) in out
        assert "spill" in out
        # dry run: the artifact must survive
        assert stale.exists()

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
