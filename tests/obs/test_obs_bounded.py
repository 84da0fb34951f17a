"""Bounded observability for long-lived processes (serving satellite).

The span ring was always bounded; this locks down the rest: JSONL
rotation (size/age, each rotated file standalone-valid), thread-local
trace suppression, direct root-span recording, and — end to end — that
a broker serving thousands of jobs leaves the ring, the metrics
registry, the result cache, and the on-disk trace mirror all bounded.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList
from repro.obs import RunTrace, validate_trace_file
from repro.obs import trace as obs_trace


class TestRotation:
    def test_size_rotation_bounds_every_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunTrace(path, rotate_bytes=2048, rotate_keep=2) as tr:
            for i in range(400):
                tr.event("tick", i=i, pad="x" * 40)
        assert tr.rotations >= 2
        files = [path, path.with_name("trace.jsonl.1"),
                 path.with_name("trace.jsonl.2")]
        for f in files:
            assert f.exists()
            # one oversized record may straddle the bound; never two
            assert f.stat().st_size < 2048 + 512
        # rotate_keep bounds the set: no .3 ever
        assert not path.with_name("trace.jsonl.3").exists()

    def test_each_rotated_file_validates_standalone(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunTrace(path, rotate_bytes=1024, rotate_keep=3) as tr:
            for i in range(200):
                tr.event("tick", i=i)
        for suffix in ("", ".1", ".2", ".3"):
            f = tmp_path / f"trace.jsonl{suffix}"
            summary = validate_trace_file(f)
            assert summary["records"] >= 1

    def test_age_rotation(self, tmp_path):
        import time

        path = tmp_path / "trace.jsonl"
        with RunTrace(path, rotate_age=0.005, rotate_keep=2) as tr:
            tr.event("a")
            time.sleep(0.02)  # let the open file age past the bound
            tr.event("b")
        assert tr.rotations >= 1

    def test_no_rotation_by_default(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunTrace(path) as tr:
            for i in range(500):
                tr.event("tick", i=i)
        assert tr.rotations == 0
        assert not path.with_name("trace.jsonl.1").exists()

    def test_meta_record_once_in_ring_once_per_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with RunTrace(path, rotate_bytes=512, rotate_keep=2) as tr:
            for i in range(100):
                tr.event("tick", i=i)
        assert sum(r["kind"] == "meta" for r in tr.records()) == 1
        for suffix in ("", ".1", ".2"):
            lines = (tmp_path / f"trace.jsonl{suffix}").read_text().splitlines()
            metas = [json.loads(s) for s in lines if '"meta"' in s]
            assert len([m for m in metas if m["kind"] == "meta"]) == 1
            assert json.loads(lines[0])["kind"] == "meta"


class TestSuppression:
    def test_suppressed_hides_current(self):
        with RunTrace() as tr:
            assert obs_trace.current() is tr
            with obs_trace.suppressed():
                assert obs_trace.current() is None
                with obs_trace.suppressed():  # re-entrant
                    assert obs_trace.current() is None
                assert obs_trace.current() is None
            assert obs_trace.current() is tr

    def test_suppression_is_thread_local(self):
        import threading

        seen = {}

        def worker():
            with obs_trace.suppressed():
                seen["worker"] = obs_trace.current()

        with RunTrace() as tr:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert seen["worker"] is None
            assert obs_trace.current() is tr  # main thread unaffected


class TestSpanRecord:
    def test_emits_closed_root_span(self):
        with RunTrace() as tr:
            t0 = tr.clock()
            tr.span_record("serve:job", t0, outcome="ok", attempts=1)
        (span,) = tr.spans("serve:job")
        assert span["parent"] is None
        assert span["dur"] >= 0
        assert span["attrs"]["outcome"] == "ok"

    def test_does_not_touch_stack(self):
        with RunTrace() as tr:
            with tr.span("outer") as outer:
                tr.span_record("job", 0.0)
                tr.event("after")
        (event,) = tr.events("after")
        assert event["parent"] == outer.id  # stack undisturbed


class TestServingBoundedness:
    def test_thousands_of_jobs_stay_bounded(self, tmp_path):
        """Ring, metrics registry, cache, and JSONL mirror all bounded."""
        from repro.parallel.runtime import ParallelConfig
        from repro.serve import Broker, JobSpec, ServeConfig, ServeClient

        def run_fn(job, cfg):
            u = np.arange(4, dtype=np.int64)
            return EdgeList(u, (u + 1) % 5, 5)

        path = tmp_path / "serve-trace.jsonl"
        jobs = 2000
        with RunTrace(path, ring_size=256, rotate_bytes=64 << 10,
                      rotate_keep=2) as tr:

            async def main():
                broker = Broker(ServeConfig(
                    workers=2, queue_limit=128, cache_entries=16,
                    run_fn=run_fn,
                    parallel=ParallelConfig(threads=2, backend="vectorized"),
                ))
                await broker.start()
                client = ServeClient(broker)
                for lo in range(0, jobs, 100):
                    await asyncio.gather(*(
                        client.request(JobSpec(
                            degrees=(1, 2), counts=(4, 2), seed=s,
                            swap_iterations=1,
                        ))
                        for s in range(lo, lo + 100)
                    ))
                stats = broker.stats()
                await broker.drain()
                return stats

            stats = asyncio.run(main())

        assert stats["runs"] == jobs
        # in-memory ring: bounded by construction, despite one span/job
        assert len(tr.records()) <= 256
        # metrics registry: fixed key families, not per-job growth
        snap = tr.metrics.snapshot()
        total_keys = (len(snap["counters"]) + len(snap["gauges"])
                      + len(snap["histograms"]))
        assert total_keys < 40
        # result cache: bounded entries despite 2000 distinct fingerprints
        assert stats["cache"]["entries"] <= 16
        # JSONL mirror: rotation kept the on-disk set bounded
        mirror_bytes = sum(
            os.path.getsize(p)
            for p in [path, path.with_name("serve-trace.jsonl.1"),
                      path.with_name("serve-trace.jsonl.2")]
            if os.path.exists(p)
        )
        assert tr.rotations >= 1
        assert mirror_bytes < 3 * (64 << 10) + 4096
