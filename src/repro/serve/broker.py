"""The asyncio request broker: admission, queues, deadlines, retries.

One :class:`Broker` owns the serving data path end-to-end:

admission → bounded priority queues → dispatchers → worker threads
→ :func:`~repro.core.generate.generate_graph` /
:func:`~repro.core.swap.swap_edges` → content-addressed result cache.

Threading model
---------------
Everything stateful — queues, the single-flight table, the cache,
metrics and trace emission — is touched **only from the event-loop
thread**.  Worker threads (a ``ThreadPoolExecutor``) run the CPU-bound
pipeline and nothing else, with tracing suppressed
(:func:`repro.obs.trace.suppressed`) so the loop thread keeps exclusive
ownership of the trace's span stack and JSONL handle.

Failure model
-------------
- **Admission** rejects invalid requests (:class:`AdmissionError`) and
  sheds load when the bounded queue is full or the broker is draining
  (:class:`ShedError` with a machine-readable cause) — backpressure,
  never OOM.
- **Deadlines** bound the *wait*, not the computation: a
  :class:`DeadlineError` waiter abandons a run that keeps going and
  lands in the cache (an identical retry is then a cache hit).  Queued
  jobs whose every waiter has expired are dropped before they waste a
  worker.
- **Retries** re-run a failed attempt with exponential backoff and
  deterministic jitter, up to the job's budget; the budget exhausting
  yields :class:`RetriesExhaustedError` carrying the last error.
- **Drain** (SIGTERM or :meth:`Broker.drain`) stops admitting, finishes
  in-flight jobs, persists still-queued specs to
  ``drain_dir/pending-jobs.json`` (atomic write), and resolves abandoned
  waiters with typed errors.  A restarted broker resubmits the persisted
  specs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal as signal_module
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.generate import generate_graph
from repro.core.swap import swap_edges
from repro.graph.edgelist import EdgeList
from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.parallel.runtime import ParallelConfig
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.jobs import (
    PRIORITIES,
    AdmissionError,
    DeadlineError,
    Job,
    JobResult,
    JobSpec,
    RetriesExhaustedError,
    ShedError,
    admit,
)
from repro.verify import IntegrityError

__all__ = ["ServeConfig", "Broker", "PENDING_JOBS_FILE"]

#: drain checkpoint filename under ``ServeConfig.drain_dir``
PENDING_JOBS_FILE = "pending-jobs.json"

#: attempt errors worth retrying: the OS took away disk space / file
#: descriptors, an allocation failed, or a verification tier detected
#: corruption — all plausibly transient on a loaded host, and a clean
#: re-run *is* the repair for detected corruption (every run reproduces
#: the same bits).
#: Admission and deadline errors are never retried.
RETRYABLE = (OSError, MemoryError, IntegrityError)


@dataclass(frozen=True)
class ServeConfig:
    """Broker tuning knobs (all bounded-by-construction)."""

    #: worker threads running pipeline jobs
    workers: int = 2
    #: total queued-job bound across all priorities; admission sheds
    #: beyond it
    queue_limit: int = 64
    #: template :class:`ParallelConfig`; each job runs under
    #: ``replace(parallel, seed=spec.seed)``
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    #: default wait bound in seconds (``None`` = wait forever) for specs
    #: that don't carry their own
    default_deadline: float | None = None
    #: default retry budget (attempts = 1 + max_retries)
    max_retries: int = 2
    #: exponential backoff: ``min(cap, base * 2**(attempt-1))`` scaled by
    #: deterministic jitter in [0.5, 1.0)
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: result-cache bounds
    cache_entries: int = 128
    cache_bytes: int = 256 << 20
    #: directory receiving the drain checkpoint (``None`` = queued jobs
    #: are shed without persistence on drain)
    drain_dir: str | None = None
    #: test hook replacing the pipeline call: ``run_fn(job, config)``
    #: returning an :class:`EdgeList` or ``(EdgeList, stats_dict)``
    run_fn: object = None


class _Inflight:
    """Loop-thread bookkeeping for one admitted, not-yet-resolved job."""

    __slots__ = (
        "job", "future", "enqueued", "trace_t0", "deadlines", "attempts",
        "priority",
    )

    def __init__(self, job: Job, future: asyncio.Future, *, trace_t0: float):
        self.job = job
        self.future = future
        self.enqueued = time.monotonic()
        self.trace_t0 = trace_t0
        #: absolute monotonic deadlines, one per waiter (None = unbounded)
        self.deadlines: list[float | None] = []
        self.attempts = 0
        self.priority = job.spec.priority

    def expired(self, now: float) -> bool:
        """Every waiter's deadline has elapsed (no unbounded waiter left)."""
        return bool(self.deadlines) and all(
            d is not None and now >= d for d in self.deadlines
        )


class Broker:
    """The serving broker.  One instance per event loop; see module docs."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("ServeConfig.workers must be >= 1")
        if self.config.queue_limit < 1:
            raise ValueError("ServeConfig.queue_limit must be >= 1")
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
        )
        self.metrics = Metrics()
        self._queues: dict[str, deque[_Inflight]] = {
            p: deque() for p in PRIORITIES
        }
        self._queued = 0
        self._inflight: dict[str, _Inflight] = {}
        self._running = 0
        self._runs = 0
        self._started = False
        self._draining = False
        self._drain_summary: dict = {}
        self._tr: obs_trace.RunTrace | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._cond: asyncio.Condition | None = None
        self._drained: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._warm_tasks: list[asyncio.Task] = []
        self._signals: list[int] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop, start dispatchers, resume drains."""
        if self._started:
            raise RuntimeError("broker already started")
        self._loop = asyncio.get_running_loop()
        self._tr = obs_trace.current()
        if self._tr is not None:
            # share the run's registry so serve.* counters land in the
            # trace's metrics.snapshot tail
            self.metrics = self._tr.metrics
        self._cond = asyncio.Condition()
        self._drained = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._dispatchers = [
            self._loop.create_task(self._dispatch(i), name=f"serve-dispatch-{i}")
            for i in range(self.config.workers)
        ]
        self._started = True
        self._resume_pending()

    def install_signal_handlers(self, signals=(signal_module.SIGTERM,)) -> None:
        """Route ``signals`` (default SIGTERM) to a graceful drain."""
        if not self._started:
            raise RuntimeError("start() the broker before installing handlers")
        for sig in signals:
            self._loop.add_signal_handler(sig, self._on_signal, sig)
            self._signals.append(sig)

    def _on_signal(self, sig: int) -> None:
        self._event("serve.signal", signal=int(sig))
        if not self._draining:
            self._loop.create_task(self.drain(), name="serve-drain")

    async def drain(self) -> dict:
        """Graceful shutdown: finish in-flight work, persist the rest.

        Idempotent and awaitable from several places at once (the
        SIGTERM handler and an explicit caller); every caller gets the
        same summary dict.
        """
        if not self._started:
            return {}
        if self._draining:
            await self._drained.wait()
            return self._drain_summary
        self._draining = True
        t0 = time.monotonic()
        self._event("serve.drain_begin", queued=self._queued,
                    running=self._running)
        # unqueue everything not yet running; persist, then shed
        pending: list[_Inflight] = []
        for q in self._queues.values():
            while q:
                pending.append(q.popleft())
        self._queued = 0
        self._gauges()
        checkpointed = self._persist_pending(pending)
        for inf in pending:
            self._resolve_error(
                inf,
                ShedError(
                    "broker draining; job was not started",
                    cause="draining",
                    checkpointed=checkpointed,
                ),
            )
        # dispatchers finish their current job, then observe _draining
        async with self._cond:
            self._cond.notify_all()
        for task in self._dispatchers:
            await task
        for task in self._warm_tasks:
            if not task.done():
                await asyncio.wait({task})
        self._executor.shutdown(wait=True)
        for sig in self._signals:
            with contextlib.suppress(ValueError, RuntimeError):
                self._loop.remove_signal_handler(sig)
        self._signals.clear()
        self._drain_summary = {
            "drained_seconds": time.monotonic() - t0,
            "checkpointed_jobs": len(pending) if checkpointed else 0,
            "shed_jobs": 0 if checkpointed else len(pending),
            "completed_runs": self._runs,
        }
        self._event("serve.drain_end", **self._drain_summary)
        self._drained.set()
        return self._drain_summary

    async def close(self) -> dict:
        """Alias of :meth:`drain` (the only shutdown there is)."""
        return await self.drain()

    # -- submission --------------------------------------------------------

    async def submit(self, spec: JobSpec) -> JobResult:
        """Admit ``spec`` and wait (bounded by its deadline) for a result.

        Raises the typed :class:`~repro.serve.jobs.ServeError` family:
        :class:`AdmissionError`, :class:`ShedError`,
        :class:`DeadlineError`, :class:`RetriesExhaustedError`.
        """
        if not self._started:
            raise RuntimeError("start() the broker before submitting")
        t_submit = time.monotonic()
        if self._draining:
            self._count("serve.shed")
            raise ShedError("broker is draining", cause="draining",
                            checkpointed=False)
        cfg = replace(self.config.parallel, seed=spec.seed)
        if spec.verify is not None:
            cfg = replace(cfg, verify=spec.verify)
        try:
            job = admit(spec, cfg)
        except AdmissionError:
            self._count("serve.rejected")
            raise
        self._count("serve.admitted")
        deadline = (
            spec.deadline if spec.deadline is not None
            else self.config.default_deadline
        )
        deadline_abs = None if deadline is None else t_submit + deadline

        cached = self.cache.get(job.fingerprint)
        if cached is not None:
            self._count("serve.cache_hits")
            self._gauges()
            return self._result(job, cached, t_submit, cache_hit=True)
        self._count("serve.cache_misses")

        inf = self._inflight.get(job.fingerprint)
        if inf is not None:
            # single-flight: coalesce onto the identical in-flight run
            self._count("serve.coalesced")
            inf.deadlines.append(deadline_abs)
            cached = await self._wait(inf, deadline, deadline_abs)
            return self._result(job, cached, t_submit, coalesced=True)

        if self._queued >= self.config.queue_limit:
            self._count("serve.shed")
            raise ShedError(
                f"queue full ({self._queued}/{self.config.queue_limit} jobs)",
                cause="queue_full",
                depth=self._queued,
                limit=self.config.queue_limit,
            )
        inf = _Inflight(
            job,
            self._loop.create_future(),
            trace_t0=self._tr.clock() if self._tr is not None else 0.0,
        )
        inf.deadlines.append(deadline_abs)
        self._inflight[job.fingerprint] = inf
        self._queues[spec.priority].append(inf)
        self._queued += 1
        self._gauges()
        async with self._cond:
            self._cond.notify()
        cached = await self._wait(inf, deadline, deadline_abs)
        return self._result(job, cached, t_submit)

    async def _wait(self, inf: _Inflight, deadline: float | None,
                    deadline_abs: float | None) -> CachedResult:
        """Await the shared future; the deadline bounds only this wait."""
        try:
            if deadline_abs is None:
                return await asyncio.shield(inf.future)
            remaining = deadline_abs - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            return await asyncio.wait_for(asyncio.shield(inf.future), remaining)
        except TimeoutError:
            self._count("serve.deadline_exceeded")
            raise DeadlineError(
                f"deadline of {deadline}s elapsed before a result was ready "
                "(the run continues; an identical retry may hit the cache)",
                deadline=deadline,
                fingerprint=inf.job.fingerprint,
            ) from None

    def _result(self, job: Job, cached: CachedResult, t_submit: float, *,
                cache_hit: bool = False, coalesced: bool = False) -> JobResult:
        total = time.monotonic() - t_submit
        self._observe("serve.total_seconds", total)
        return JobResult(
            graph=cached.graph(),
            fingerprint=job.fingerprint,
            cache_hit=cache_hit,
            coalesced=coalesced,
            attempts=int(cached.stats.get("attempts", 0)),
            total_seconds=total,
            run=dict(cached.stats),
        )

    # -- dispatch / execution ----------------------------------------------

    def _pop(self) -> _Inflight | None:
        for p in PRIORITIES:
            q = self._queues[p]
            if q:
                self._queued -= 1
                return q.popleft()
        return None

    async def _dispatch(self, idx: int) -> None:
        """One dispatcher: pull highest-priority work, run it to resolution."""
        while True:
            async with self._cond:
                while self._queued == 0 and not self._draining:
                    await self._cond.wait()
                inf = self._pop()
            if inf is None:  # draining and empty
                return
            self._gauges()
            now = time.monotonic()
            if inf.expired(now):
                # nobody is waiting anymore: drop instead of burning a worker
                self._count("serve.expired")
                self._resolve_error(
                    inf,
                    DeadlineError(
                        "every waiter's deadline elapsed before the job started",
                        fingerprint=inf.job.fingerprint,
                    ),
                )
                continue
            self._observe("serve.queue_seconds", now - inf.enqueued)
            await self._execute(inf)

    async def _execute(self, inf: _Inflight) -> None:
        """Run one job with retries/backoff; resolve its shared future."""
        self._running += 1
        self._gauges()
        job = inf.job
        spec = job.spec
        cfg = replace(self.config.parallel, seed=spec.seed)
        if spec.verify is not None:
            cfg = replace(cfg, verify=spec.verify)
        budget = (
            spec.max_retries if spec.max_retries is not None
            else self.config.max_retries
        )
        jitter = np.random.default_rng(int(job.fingerprint[:12], 16))
        last: BaseException | None = None
        try:
            while True:
                inf.attempts += 1
                t0 = time.monotonic()
                try:
                    graph, stats = await self._loop.run_in_executor(
                        self._executor, self._run_job, job, cfg
                    )
                except RETRYABLE as exc:
                    last = exc
                    self._count("serve.attempt_failures")
                    if inf.attempts > budget:
                        self._count("serve.failed")
                        self._job_span(inf, outcome="failed")
                        self._resolve_error(
                            inf,
                            RetriesExhaustedError(
                                f"{inf.attempts} attempts failed; last: {exc}",
                                attempts=inf.attempts,
                                last=repr(exc),
                                fingerprint=job.fingerprint,
                            ),
                        )
                        return
                    self._count("serve.retries")
                    delay = min(
                        self.config.backoff_cap,
                        self.config.backoff_base * 2 ** (inf.attempts - 1),
                    ) * (0.5 + 0.5 * float(jitter.random()))
                    self._event(
                        "serve.retry", fingerprint=job.fingerprint[:12],
                        attempt=inf.attempts, delay=round(delay, 4),
                        error=type(exc).__name__,
                    )
                    await asyncio.sleep(delay)
                    continue
                except asyncio.CancelledError as exc:
                    # the dispatcher task itself is being cancelled (loop
                    # teardown): release the waiters, then keep cancelling
                    self._resolve_error(inf, exc)
                    raise
                except Exception as exc:  # non-retryable: fail fast
                    self._count("serve.failed")
                    self._job_span(inf, outcome="error")
                    self._resolve_error(inf, exc)
                    return
                run_seconds = time.monotonic() - t0
                stats.update(
                    attempts=inf.attempts,
                    run_seconds=run_seconds,
                    kind=job.kind,
                )
                self._runs += 1
                self._count("serve.runs")
                self._observe("serve.run_seconds", run_seconds)
                cached = self.cache.put(
                    CachedResult(
                        fingerprint=job.fingerprint,
                        u=graph.u, v=graph.v, n=graph.n, stats=stats,
                    )
                )
                self._job_span(inf, outcome="ok", edges=int(cached.graph().m))
                self._inflight.pop(job.fingerprint, None)
                if not inf.future.done():
                    inf.future.set_result(cached)
                return
        finally:
            self._running -= 1
            self._gauges()

    def _run_job(self, job: Job, cfg: ParallelConfig):
        """Worker-thread body: the actual pipeline call, tracing suppressed.

        Returns ``(EdgeList, stats_dict)``.
        """
        with obs_trace.suppressed():
            if self.config.run_fn is not None:
                out = self.config.run_fn(job, cfg)
                if isinstance(out, tuple):
                    graph, stats = out
                    return graph, dict(stats)
                return out, {"edges": int(out.m)}
            if job.kind == "generate":
                out, _ = generate_graph(
                    job.dist, swap_iterations=job.spec.swap_iterations,
                    config=cfg,
                )
            else:
                out = swap_edges(job.graph, job.spec.swap_iterations, cfg)
            return out, {"edges": int(out.m)}

    # -- drain persistence -------------------------------------------------

    def _persist_pending(self, pending: list[_Inflight]) -> bool:
        """Atomically write still-queued specs to the drain checkpoint."""
        if not pending or not self.config.drain_dir:
            return False
        drain_dir = Path(self.config.drain_dir)
        drain_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": 1,
            "jobs": [inf.job.spec.to_dict() for inf in pending],
        }
        target = drain_dir / PENDING_JOBS_FILE
        tmp = drain_dir / f".{PENDING_JOBS_FILE}.tmp-{os.getpid()}"
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, target)
        self._count("serve.drain_checkpointed", len(pending))
        return True

    def _resume_pending(self) -> None:
        """Resubmit specs a previous broker persisted at drain."""
        if not self.config.drain_dir:
            return
        target = Path(self.config.drain_dir) / PENDING_JOBS_FILE
        if not target.is_file():
            return
        try:
            payload = json.loads(target.read_text())
            specs = [JobSpec.from_dict(d) for d in payload.get("jobs", [])]
        except (ValueError, TypeError, AdmissionError):
            self._event("serve.resume_corrupt", path=str(target))
            return
        finally:
            with contextlib.suppress(OSError):
                target.unlink()
        for spec in specs:
            self._warm_tasks.append(
                self._loop.create_task(self._warm(spec), name="serve-warm")
            )
        if specs:
            self._count("serve.resumed_jobs", len(specs))
            self._event("serve.resume", jobs=len(specs))

    async def _warm(self, spec: JobSpec) -> None:
        """Run a resumed spec to completion; its result lands in the cache."""
        with contextlib.suppress(Exception):
            await self.submit(spec)

    # -- bookkeeping helpers (loop thread only) ----------------------------

    def _resolve_error(self, inf: _Inflight, exc: BaseException) -> None:
        self._inflight.pop(inf.job.fingerprint, None)
        if not inf.future.done():
            inf.future.set_exception(exc)
            # every waiter may have already abandoned this future (e.g.
            # all deadlines fired); mark the exception retrieved so the
            # loop doesn't log a phantom "never retrieved" warning
            inf.future.exception()

    def _job_span(self, inf: _Inflight, **attrs) -> None:
        if self._tr is not None:
            self._tr.span_record(
                "serve:job", inf.trace_t0,
                kind=inf.job.kind, priority=inf.priority,
                fingerprint=inf.job.fingerprint[:12],
                attempts=inf.attempts, **attrs,
            )

    def _count(self, name: str, value: float = 1.0) -> None:
        self.metrics.inc(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def _gauges(self) -> None:
        self.metrics.set_gauge("serve.queue_depth", self._queued)
        self.metrics.set_gauge("serve.inflight", self._running)
        self.metrics.set_gauge("serve.cache_entries", len(self.cache))
        self.metrics.set_gauge("serve.cache_bytes", self.cache.nbytes)

    def _event(self, name: str, **attrs) -> None:
        if self._tr is not None:
            self._tr.event(name, **attrs)

    def stats(self) -> dict:
        """Loop-thread snapshot of the broker's state and counters."""
        return {
            "queued": self._queued,
            "running": self._running,
            "runs": self._runs,
            "inflight": len(self._inflight),
            "draining": self._draining,
            "cache": self.cache.snapshot(),
            "counters": {
                k: v for k, v in self.metrics.counters.items()
                if k.startswith("serve.")
            },
        }
