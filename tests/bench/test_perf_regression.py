"""Regression gate over the committed performance baseline.

Two tiers:

- The unmarked tests are tier-1: they validate the *committed*
  ``BENCH_suite.json`` — schema version, coverage (≥ 3 datasets on the
  vectorized backend), and payload sanity — without running any
  benchmark, so the gate's contract is checked on every test run.
- ``test_no_phase_regression`` is ``perf``-marked (excluded from the
  default run by the ``addopts`` marker filter): it compares a freshly
  *measured* suite against the committed baseline with tolerance bands.
  CI runs it as its own job, pointing ``REPRO_BENCH_SUITE`` at the
  ``BENCH_suite.json`` its bench step just produced; without the env var
  the test runs the suite itself.

Tolerance: a phase regresses when ``measured > baseline * (1 + TOL) +
FLOOR``.  The relative band (20%) absorbs ordinary timer noise; the
absolute floor keeps sub-millisecond phases — where 20% is micro-seconds
— from flapping on scheduler jitter.
"""

import json
import os
from pathlib import Path

import pytest

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_suite.json"

#: relative tolerance band per phase (the CI gate's contract: >20% fails)
TOL = 0.20
#: absolute slack in seconds, so tiny phases don't flap on jitter
FLOOR = 0.25

REQUIRED_ENTRY_KEYS = {
    "dataset", "backend", "edges", "total_seconds", "phase_seconds",
    "edges_per_s",
}


def load_baseline() -> dict:
    assert BASELINE.exists(), (
        "committed baseline BENCH_suite.json is missing; regenerate with "
        "`repro-experiments suite`"
    )
    return json.loads(BASELINE.read_text())


class TestCommittedBaseline:
    """Tier-1 checks of the committed BENCH_suite.json contract."""

    def test_schema_version(self):
        from repro.bench.harness import SUITE_SCHEMA

        payload = load_baseline()
        assert payload["benchmark"] == "suite"
        assert payload["schema"] == SUITE_SCHEMA

    def test_coverage_matrix(self):
        """The acceptance floor: ≥ 3 datasets, each with one cell on the
        vectorized backend."""
        entries = load_baseline()["entries"]
        cells = [(e["dataset"], e["backend"]) for e in entries]
        datasets = {d for d, _ in cells}
        assert len(datasets) >= 3, datasets
        assert sorted(cells) == sorted((d, "vectorized") for d in datasets), cells

    def test_entry_payloads_sane(self):
        for e in load_baseline()["entries"]:
            assert REQUIRED_ENTRY_KEYS <= set(e), e
            assert e["edges"] > 0
            assert e["total_seconds"] > 0
            assert e["edges_per_s"] > 0
            assert e["phase_seconds"], e
            assert all(s >= 0 for s in e["phase_seconds"].values())


def _measured_suite() -> dict:
    """The freshly measured payload: from ``REPRO_BENCH_SUITE`` or a run."""
    path = os.environ.get("REPRO_BENCH_SUITE")
    if path:
        return json.loads(Path(path).read_text())
    from repro.bench.experiments import suite

    return suite().series["bench"]


@pytest.mark.perf
def test_no_phase_regression():
    """No suite cell's phase (or total) may exceed the tolerance band."""
    baseline = load_baseline()
    measured = _measured_suite()
    base_by_cell = {(e["dataset"], e["backend"]): e for e in baseline["entries"]}
    regressions = []
    compared = 0
    for entry in measured["entries"]:
        cell = (entry["dataset"], entry["backend"])
        base = base_by_cell.get(cell)
        if base is None:
            continue  # new cell: nothing to regress against
        compared += 1
        checks = [("total", base["total_seconds"], entry["total_seconds"])]
        checks += [
            (phase, base_s, entry["phase_seconds"].get(phase, 0.0))
            for phase, base_s in base["phase_seconds"].items()
        ]
        for phase, base_s, new_s in checks:
            if new_s > base_s * (1.0 + TOL) + FLOOR:
                regressions.append(
                    f"{cell} {phase}: {new_s:.4f}s vs baseline "
                    f"{base_s:.4f}s (>{TOL:.0%} + {FLOOR}s)"
                )
    assert compared > 0, "measured suite shares no cells with the baseline"
    assert not regressions, "\n".join(regressions)
