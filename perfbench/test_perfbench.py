"""Self-checks of the benchmark: its output checks, its wrappers, its refusal.

The attribution check restates the acceptance test for per-layer
metrics: a delay injected into one layer through the benchmark's own
wrapper must show up in that layer's busy time and nowhere else beyond
the run-to-run spread.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

from perfbench import ROOT
from perfbench.tracer import SAMPLE_METRICS, Tracer, layer_metrics, phase_check
from perfbench.workloads import (
    WORKLOADS,
    _snapshot_problems,
    digest,
    graph_problems,
)

SEED = 7


def _traced_layers(wl, ks, delays=None) -> list[dict]:
    """Per-sample layer metrics of samples ``ks`` under a fresh tracer."""
    tracer = Tracer(delays)
    wl.tracer = tracer.install()
    try:
        out = []
        for k in ks:
            s = wl.sample(k)
            out.append(layer_metrics(tracer.take(), s.swap_stats, s.report))
        return out
    finally:
        tracer.uninstall()
        wl.tracer = None


def _per_run(runs: list[list[dict]], fn) -> list[float]:
    """Each run's median over its samples of ``fn(sample metrics)``."""
    return [statistics.median(fn(s) for s in run) for run in runs]


def _within_spread(values, baseline, floor) -> bool:
    """Every value lies within the baseline range widened by its own width."""
    lo, hi = min(baseline), max(baseline)
    margin = hi - lo + floor
    return all(lo - margin <= v <= hi + margin for v in values)


def test_graph_checks_catch_each_violation():
    u = np.array([0, 1, 2], dtype=np.int64)
    v = np.array([1, 2, 3], dtype=np.int64)
    assert graph_problems(u, v, 4) == []
    assert graph_problems(u, v, 3) == ["vertex id outside [0, 3)"]
    assert graph_problems(np.array([0, 2]), np.array([1, 2]), 4) == ["1 self loop(s)"]
    assert graph_problems(np.array([0, 1]), np.array([1, 0]), 4) == ["1 duplicate edge(s)"]


def test_snapshot_check_flags_leftovers(tmp_path):
    d = tmp_path / "sample-1"
    d.mkdir()
    (d / ".tmp-1-abcd.raw").write_bytes(b"x")
    problems = _snapshot_problems(d)
    assert any("temporary" in p for p in problems)
    assert "no snapshot written" in problems
    assert not d.exists()


def test_traced_gen_hubs_matches_untraced_and_phase_seconds():
    wl = WORKLOADS["gen-hubs"](SEED)
    wl.setup()
    plain = wl.sample(1)
    tracer = Tracer()
    wl.tracer = tracer.install()
    try:
        traced = wl.sample(1)
    finally:
        tracer.uninstall()
    assert digest(traced.u, traced.v) == digest(plain.u, plain.v)
    layers = layer_metrics(tracer.take(), traced.swap_stats, traced.report)
    assert set(layers) == set(SAMPLE_METRICS)
    check = phase_check(layers, traced.report)
    assert check["ok"], check
    # every layer this workload exercises did work
    for name in ("probabilities.busy_s", "edge_skip.busy_s", "permutation.busy_s",
                 "hashtable.tas_busy_s", "swap.self_s", "generate.self_s"):
        assert layers[name] > 0, name
    assert layers["storage.permute_busy_s"] == layers["checkpoint.saves"] == 0


def test_injected_permutation_delay_is_attributed_to_permutation():
    """A 20% delay in the permutation layer shows up there and nowhere else.

    Machine speed drifts from run to run, so delayed runs are interleaved
    with baseline runs and each layer is checked twice: its busy time
    against the baselines' spread, and its share of the swap span outside
    the permutation, which a drift that slows every layer alike leaves
    unchanged.
    """
    wl = WORKLOADS["swap-sparse"](SEED)
    wl.setup()
    wl.sample(1)  # warm-up
    ks = (1, 2)
    base, delayed = [], []
    for _ in range(2):
        base.append(_traced_layers(wl, ks))
        delayed.append(_traced_layers(wl, ks, delays={"permutation": 0.2}))
    base.append(_traced_layers(wl, ks))

    def rest(s):
        return s["swap.busy_s"] - s["permutation.busy_s"]

    def perm(s):
        return s["permutation.busy_s"]

    def perm_share(s):
        return s["permutation.busy_s"] / rest(s)

    for fn in (perm, perm_share):
        b, d = _per_run(base, fn), _per_run(delayed, fn)
        ref = statistics.median(b)
        rise = statistics.median(d) / ref - 1
        assert rise == pytest.approx(0.2, abs=(max(b) - min(b)) / ref + 0.03), fn

    # swap.busy_s contains the permutation span; its own time stands in
    others = [n for n in SAMPLE_METRICS if n.endswith("busy_s")
              and n not in ("permutation.busy_s", "swap.busy_s")] + ["swap.self_s"]
    for name in others:
        b = _per_run(base, lambda s: s[name])
        d = _per_run(delayed, lambda s: s[name])
        assert _within_spread(d, b, 0.002), (name, b, d)
        b = _per_run(base, lambda s: s[name] / rest(s))
        d = _per_run(delayed, lambda s: s[name] / rest(s))
        assert _within_spread(d, b, 0.005), (name, "share", b, d)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-hubs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
