"""Broker behavior: single-flight, backpressure, deadlines, retries,
priority ordering, and drain/restart persistence."""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.core.generate import generate_graph
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.runtime import ParallelConfig
from repro.serve import (
    Broker,
    DeadlineError,
    JobSpec,
    ResultCache,
    RetriesExhaustedError,
    ServeClient,
    ServeConfig,
    ShedError,
)
from repro.serve.broker import PENDING_JOBS_FILE


PARALLEL = ParallelConfig(threads=4, backend="vectorized")


def spec(seed=0, **kw):
    kw.setdefault("degrees", (1, 2, 3))
    kw.setdefault("counts", (6, 4, 2))
    kw.setdefault("swap_iterations", 2)
    return JobSpec(seed=seed, **kw)


def graph_for(job):
    m = 4
    u = np.arange(m, dtype=np.int64)
    return EdgeList(u, (u + 1) % (m + 1), m + 1)


async def _started(config=None, **kw):
    kw.setdefault("parallel", PARALLEL)
    broker = Broker(config or ServeConfig(**kw))
    await broker.start()
    return broker


class TestSingleFlight:
    def test_n_duplicates_one_run(self):
        calls = []

        def run_fn(job, cfg):
            calls.append(job.fingerprint)
            time.sleep(0.05)  # hold the run open so duplicates coalesce
            return graph_for(job)

        async def main():
            broker = await _started(workers=2, run_fn=run_fn)
            client = ServeClient(broker)
            results = await asyncio.gather(
                *(client.request(spec(seed=5)) for _ in range(8))
            )
            await broker.drain()
            return results

        results = asyncio.run(main())
        assert len(calls) == 1  # exactly one pipeline run
        assert len(results) == 8  # and N responses
        assert sum(r.coalesced for r in results) == 7
        for r in results:
            assert np.array_equal(r.graph.u, results[0].graph.u)

    def test_sequential_resubmit_hits_cache(self):
        async def main():
            broker = await _started(workers=1)
            client = ServeClient(broker)
            first = await client.request(spec(seed=3))
            second = await client.request(spec(seed=3))
            stats = broker.stats()
            await broker.drain()
            return first, second, stats

        first, second, stats = asyncio.run(main())
        assert not first.cache_hit and second.cache_hit
        assert stats["runs"] == 1
        assert stats["cache"]["hits"] == 1

    def test_result_bitwise_equals_direct_run(self):
        async def main():
            broker = await _started(workers=1)
            result = await ServeClient(broker).request(
                spec(seed=11, swap_iterations=3)
            )
            await broker.drain()
            return result

        result = asyncio.run(main())
        direct, _ = generate_graph(
            DegreeDistribution((1, 2, 3), (6, 4, 2)),
            swap_iterations=3,
            config=ParallelConfig(threads=4, backend="vectorized", seed=11),
        )
        assert np.array_equal(result.graph.u, direct.u)
        assert np.array_equal(result.graph.v, direct.v)


class TestBackpressure:
    def test_queue_full_sheds_with_reason(self):
        release = threading.Event()

        def run_fn(job, cfg):
            release.wait(5.0)
            return graph_for(job)

        async def main():
            broker = await _started(workers=1, queue_limit=1, run_fn=run_fn)
            client = ServeClient(broker)
            running = asyncio.create_task(client.request(spec(seed=1)))
            await asyncio.sleep(0.05)  # seed=1 is now on the worker
            queued = asyncio.create_task(client.request(spec(seed=2)))
            await asyncio.sleep(0.05)  # seed=2 occupies the single slot
            with pytest.raises(ShedError) as err:
                await client.request(spec(seed=3))
            release.set()
            await asyncio.gather(running, queued)
            stats = broker.stats()
            await broker.drain()
            return err.value.to_dict(), stats

        info, stats = asyncio.run(main())
        assert info["reason"] == "shed" and info["cause"] == "queue_full"
        assert info["limit"] == 1
        assert stats["counters"]["serve.shed"] == 1

    def test_priority_order(self):
        release = threading.Event()
        order = []

        def run_fn(job, cfg):
            if job.spec.seed == 0:
                release.wait(5.0)
            order.append((job.spec.priority, job.spec.seed))
            return graph_for(job)

        async def main():
            broker = await _started(workers=1, run_fn=run_fn)
            client = ServeClient(broker)
            blocker = asyncio.create_task(client.request(spec(seed=0)))
            await asyncio.sleep(0.05)
            low = asyncio.create_task(
                client.request(spec(seed=1, priority="low"))
            )
            await asyncio.sleep(0.01)
            normal = asyncio.create_task(
                client.request(spec(seed=2, priority="normal"))
            )
            await asyncio.sleep(0.01)
            high = asyncio.create_task(
                client.request(spec(seed=3, priority="high"))
            )
            await asyncio.sleep(0.01)
            release.set()
            await asyncio.gather(blocker, low, normal, high)
            await broker.drain()

        asyncio.run(main())
        # the blocker ran first; then strictly priority order
        assert order == [
            ("normal", 0), ("high", 3), ("normal", 2), ("low", 1)
        ]


class TestDeadlines:
    def test_deadline_returns_typed_error_but_run_completes(self):
        def run_fn(job, cfg):
            time.sleep(0.3)
            return graph_for(job)

        async def main():
            broker = await _started(workers=1, run_fn=run_fn)
            client = ServeClient(broker)
            with pytest.raises(DeadlineError) as err:
                await client.request(spec(seed=4, deadline=0.05))
            # the computation was not cancelled: wait for it, then the
            # identical retry is a cache hit
            while broker.stats()["inflight"]:
                await asyncio.sleep(0.02)
            retry = await client.request(spec(seed=4))
            await broker.drain()
            return err.value.to_dict(), retry

        info, retry = asyncio.run(main())
        assert info["reason"] == "deadline" and info["deadline"] == 0.05
        assert retry.cache_hit

    def test_expired_queued_job_never_runs(self):
        release = threading.Event()
        ran = []

        def run_fn(job, cfg):
            ran.append(job.spec.seed)
            release.wait(5.0)
            return graph_for(job)

        async def main():
            broker = await _started(workers=1, run_fn=run_fn)
            client = ServeClient(broker)
            blocker = asyncio.create_task(client.request(spec(seed=0)))
            await asyncio.sleep(0.05)
            with pytest.raises(DeadlineError):
                await client.request(spec(seed=9, deadline=0.05))
            release.set()
            await blocker
            await broker.drain()
            return broker.stats()

        stats = asyncio.run(main())
        assert ran == [0]  # the expired job was dropped, not executed
        assert stats["counters"]["serve.expired"] == 1


class TestRetries:
    def test_retry_then_success(self):
        attempts = []

        def run_fn(job, cfg):
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("injected")
            return graph_for(job)

        async def main():
            broker = await _started(
                workers=1, max_retries=3, backoff_base=0.01,
                backoff_cap=0.02, run_fn=run_fn,
            )
            result = await ServeClient(broker).request(spec(seed=6))
            stats = broker.stats()
            await broker.drain()
            return result, stats

        result, stats = asyncio.run(main())
        assert result.attempts == 3
        assert stats["counters"]["serve.retries"] == 2
        assert stats["counters"]["serve.runs"] == 1

    def test_budget_exhausted_is_typed(self):
        def run_fn(job, cfg):
            raise OSError("shm gone")

        async def main():
            broker = await _started(
                workers=1, max_retries=1, backoff_base=0.01,
                backoff_cap=0.02, run_fn=run_fn,
            )
            with pytest.raises(RetriesExhaustedError) as err:
                await ServeClient(broker).request(spec(seed=7))
            await broker.drain()
            return err.value.to_dict()

        info = asyncio.run(main())
        assert info["reason"] == "retries"
        assert info["attempts"] == 2
        assert "shm gone" in info["last"]

    def test_non_retryable_fails_fast(self):
        calls = []

        def run_fn(job, cfg):
            calls.append(1)
            raise ValueError("bug, not fault")

        async def main():
            broker = await _started(workers=1, max_retries=3, run_fn=run_fn)
            with pytest.raises(ValueError):
                await ServeClient(broker).request(spec(seed=8))
            await broker.drain()

        asyncio.run(main())
        assert len(calls) == 1


class TestDrain:
    def test_drain_persists_queue_and_restart_resumes(self, tmp_path):
        release = threading.Event()
        ran = []

        def run_fn(job, cfg):
            ran.append(job.spec.seed)
            if job.spec.seed == 0:
                release.wait(5.0)
            return graph_for(job)

        drain_dir = tmp_path / "drain"

        async def phase_one():
            broker = await _started(
                workers=1, drain_dir=str(drain_dir), run_fn=run_fn
            )
            client = ServeClient(broker)
            blocker = asyncio.create_task(client.request(spec(seed=0)))
            await asyncio.sleep(0.05)
            queued = asyncio.create_task(client.request(spec(seed=1)))
            await asyncio.sleep(0.05)
            release.set()
            summary = await broker.drain()
            blocked_result = await blocker  # in-flight job finished
            with pytest.raises(ShedError) as shed:
                await queued  # queued job was checkpointed + shed
            with pytest.raises(ShedError) as late:
                await client.request(spec(seed=2))  # post-drain admission
            return summary, blocked_result, shed.value, late.value

        summary, blocked_result, shed, late = asyncio.run(phase_one())
        assert blocked_result.graph.m == 4
        assert summary["checkpointed_jobs"] == 1
        assert shed.details["cause"] == "draining"
        assert shed.details["checkpointed"] is True
        assert late.details["cause"] == "draining"
        payload = json.loads((drain_dir / PENDING_JOBS_FILE).read_text())
        assert [j["seed"] for j in payload["jobs"]] == [1]
        assert ran == [0]

        async def phase_two():
            broker = await _started(
                workers=1, drain_dir=str(drain_dir), run_fn=run_fn
            )
            # the resumed job runs without any new submission
            for _ in range(100):
                if broker.stats()["runs"]:
                    break
                await asyncio.sleep(0.02)
            result = await ServeClient(broker).request(spec(seed=1))
            await broker.drain()
            return result

        result = asyncio.run(phase_two())
        assert 1 in ran
        assert result.cache_hit  # warm resubmission populated the cache
        assert not (drain_dir / PENDING_JOBS_FILE).exists()

    def test_drain_is_idempotent(self):
        async def main():
            broker = await _started(workers=1)
            a, b = await asyncio.gather(broker.drain(), broker.drain())
            return a, b

        a, b = asyncio.run(main())
        assert a == b


class TestHousekeeping:
    @pytest.mark.parametrize(
        "field", ["checkpoint_root", "checkpoint_every", "reap_interval"]
    )
    def test_checkpoint_and_reap_fields_are_gone(self, field):
        """Generate jobs keep no checkpoint stores, so there is nothing
        to sweep and no timer to sweep it."""
        with pytest.raises(TypeError):
            ServeConfig(**{field: 1})

    def test_submit_before_start_rejected(self):
        async def main():
            broker = Broker(ServeConfig(parallel=PARALLEL))
            with pytest.raises(RuntimeError, match="start"):
                await broker.submit(spec())

        asyncio.run(main())

    def test_cache_bounds_enforced_under_load(self):
        def run_fn(job, cfg):
            return graph_for(job)

        async def main():
            broker = await _started(
                workers=2, cache_entries=4, run_fn=run_fn
            )
            client = ServeClient(broker)
            for batch in range(4):
                await asyncio.gather(*(
                    client.request(spec(seed=batch * 8 + i))
                    for i in range(8)
                ))
            stats = broker.stats()
            await broker.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["cache"]["entries"] <= 4
        assert stats["cache"]["evictions"] >= 28
