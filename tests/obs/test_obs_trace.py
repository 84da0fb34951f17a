"""Tests for the run-scoped tracing layer."""

import json

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.graph.edgelist import EdgeList
from repro.obs import RunTrace, current, validate_trace, validate_trace_file
from repro.obs import trace as obs_trace
from repro.parallel.runtime import ParallelConfig


def _ring(m=400, n=400):
    u = np.arange(m, dtype=np.int64)
    v = (u + 1) % n
    return EdgeList(u, v, n)


class TestLifecycle:
    def test_no_trace_by_default(self):
        assert current() is None

    def test_enter_installs_exit_restores(self):
        with RunTrace() as tr:
            assert current() is tr
        assert current() is None

    def test_nested_traces_restore_previous(self):
        with RunTrace() as outer:
            with RunTrace() as inner:
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_empty_trace_has_meta_and_snapshot_only(self):
        with RunTrace() as tr:
            pass
        kinds = [r["kind"] for r in tr.records()]
        assert kinds == ["meta", "event"]
        assert tr.records()[1]["name"] == "metrics.snapshot"


class TestRecording:
    def test_span_nesting_and_parents(self):
        with RunTrace() as tr:
            with tr.span("outer") as outer:
                with tr.span("inner"):
                    tr.event("tick", k=1)
        spans = {s["name"]: s for s in tr.spans()}
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == outer.id
        (ev,) = tr.events("tick")
        assert ev["parent"] == spans["inner"]["id"]
        assert ev["attrs"] == {"k": 1}

    def test_span_set_attaches_attrs(self):
        with RunTrace() as tr:
            with tr.span("s") as s:
                s.set(edges=7)
        assert tr.spans("s")[0]["attrs"]["edges"] == 7

    def test_exception_annotates_span(self):
        with RunTrace() as tr:
            with pytest.raises(RuntimeError):
                with tr.span("boom"):
                    raise RuntimeError("x")
        assert tr.spans("boom")[0]["attrs"]["error"] == "RuntimeError"

    def test_numpy_attrs_json_safe(self):
        with RunTrace() as tr:
            tr.event("e", count=np.int64(3), frac=np.float64(0.5))
        (ev,) = tr.events("e")
        json.dumps(ev)  # must not raise
        assert ev["attrs"] == {"count": 3, "frac": 0.5}

    def test_ring_is_bounded(self):
        with RunTrace(ring_size=8) as tr:
            for i in range(100):
                tr.event("e", i=i)
        assert len(tr.records()) == 8

    def test_jsonl_file_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with RunTrace(path) as tr:
            with tr.span("a"):
                tr.event("tick")
        summary = validate_trace_file(path)
        assert summary["spans"] == 1
        assert summary["roots"] == ["a"]
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "meta"


class TestGenerateIntegration:
    def test_untraced_run_identical_to_traced(self, small_dist, cfg):
        g_plain, _ = generate_graph(small_dist, swap_iterations=3, config=cfg)
        with RunTrace():
            g_traced, _ = generate_graph(small_dist, swap_iterations=3, config=cfg)
        assert g_plain.same_graph(g_traced)

    def test_disabled_emits_nothing(self, small_dist, cfg):
        """No installed trace => instrumentation leaves zero records."""
        generate_graph(small_dist, swap_iterations=2, config=cfg)
        assert current() is None
        with RunTrace() as tr:
            pass  # entered *after* the run: nothing from it can appear
        assert tr.spans() == [] and tr.events("swap.round") == []

    def test_phase_spans_nest_under_generate(self, small_dist, cfg):
        with RunTrace() as tr:
            generate_graph(small_dist, swap_iterations=2, config=cfg)
        (root,) = tr.spans("generate")
        for phase in ("probabilities", "edge_generation", "swap"):
            (span,) = tr.spans(f"phase:{phase}")
            assert span["parent"] == root["id"]
        validate_trace(tr.records())

    def test_swap_round_events(self, small_dist, cfg):
        with RunTrace() as tr:
            generate_graph(small_dist, swap_iterations=3, config=cfg)
        rounds = tr.events("swap.round")
        assert [e["attrs"]["iteration"] for e in rounds] == [0, 1, 2]
        assert tr.metrics.counters["swap.rounds"] == 3

    def test_phase_durations_agree_with_report(self, skewed_dist):
        cfg = ParallelConfig(threads=2, seed=3)
        with RunTrace() as tr:
            _, report = generate_graph(skewed_dist, swap_iterations=2, config=cfg)
        for phase, seconds in report.phase_seconds.items():
            (span,) = tr.spans(f"phase:{phase}")
            # 5% relative, with an absolute floor for sub-ms phases where
            # span bookkeeping dominates
            assert abs(span["dur"] - seconds) <= max(0.05 * seconds, 2e-3)

    def test_checkpoint_writes_traced(self, small_dist, tmp_path):
        cfg = ParallelConfig(threads=2, backend="vectorized", seed=5)
        with RunTrace() as tr:
            generate_graph(small_dist, swap_iterations=4, config=cfg,
                           checkpoint_dir=tmp_path, checkpoint_every=2)
        writes = tr.events("checkpoint.write")
        assert writes
        assert {"phase", "seq", "swap_round", "bytes"} <= writes[0]["attrs"].keys()
        assert tr.metrics.counters["checkpoint.writes"] == len(writes)


class TestAutotuneEvents:
    """``tune.replan`` trace events record the storage planner's automatic
    spill decisions, and only those."""

    def test_static_run_emits_no_replan(self, skewed_dist):
        cfg = ParallelConfig(threads=2, seed=3)
        with RunTrace() as tr:
            generate_graph(skewed_dist, swap_iterations=2, config=cfg)
        assert tr.events("tune.replan") == []
        assert "tune.replans" not in tr.metrics.counters

    def test_spill_emits_storage_replan(self, skewed_dist, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))
        cfg = ParallelConfig(threads=2, seed=3, memory_budget_bytes=1 << 10)
        with RunTrace() as tr:
            generate_graph(skewed_dist, swap_iterations=1, config=cfg)
        replans = tr.events("tune.replan")
        assert [e["attrs"]["phase"] for e in replans] == ["storage"]
        for ev in replans:
            attrs = ev["attrs"]
            assert attrs["store"] == "mmap"
            assert attrs["window"] > 0 and attrs["edges"] > 0
            assert isinstance(attrs["reason"], str) and attrs["reason"]
        validate_trace(tr.records())
