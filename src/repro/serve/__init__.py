"""Resilient null-model serving (ROADMAP item 1).

The paper frames fast null-model generation as a statistical primitive;
real analyses draw *many* samples from the same ensemble — a workload
shaped like a service.  This package is the long-lived front-end over
the existing pipeline: an asyncio broker with admission control, bounded
priority queues, deadlines, retry budgets, graceful SIGTERM drain, and
a content-addressed single-flight result cache keyed by the checkpoint
run fingerprint.

Import explicitly (``from repro.serve import Broker``) — like
:mod:`repro.obs`, it is not pulled in by ``import repro``.

See ``docs/serving.md`` for the architecture and failure model.
"""

from repro.serve.broker import Broker, ServeConfig
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.client import Runner, RunnerConfig, RunnerStats, ServeClient
from repro.serve.jobs import (
    AdmissionError,
    DeadlineError,
    Job,
    JobResult,
    JobSpec,
    RetriesExhaustedError,
    ServeError,
    ShedError,
    admit,
)

__all__ = [
    "Broker",
    "ServeConfig",
    "CachedResult",
    "ResultCache",
    "ServeClient",
    "Runner",
    "RunnerConfig",
    "RunnerStats",
    "JobSpec",
    "Job",
    "JobResult",
    "admit",
    "ServeError",
    "AdmissionError",
    "ShedError",
    "DeadlineError",
    "RetriesExhaustedError",
]
