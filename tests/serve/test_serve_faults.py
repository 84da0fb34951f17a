"""Serving under a wedged pipeline run.

A job whose pipeline call hangs must resolve as a *typed*
:class:`~repro.serve.jobs.DeadlineError` bounded by its deadline, never
a stuck await, and the broker must still drain.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.graph.degree import DegreeDistribution
from repro.parallel.runtime import ParallelConfig
from repro.serve import (
    Broker,
    DeadlineError,
    JobSpec,
    ServeClient,
    ServeConfig,
)

DIST = DegreeDistribution([1, 2, 4], [30, 14, 6])
SWAPS = 2


def _spec(seed, **kw):
    return JobSpec(
        degrees=tuple(DIST.degrees), counts=tuple(DIST.counts),
        seed=seed, swap_iterations=SWAPS, **kw,
    )


class TestFaultDrill:
    def test_deadline_under_fault_is_typed_not_hung(self):
        """A hang fault must surface as DeadlineError, never a stuck await."""
        release = threading.Event()

        def run_fn(job, cfg):
            release.wait(10.0)  # simulate a wedged pipeline run
            from repro.graph.edgelist import EdgeList
            u = np.arange(4, dtype=np.int64)
            return EdgeList(u, (u + 1) % 5, 5)

        async def main():
            broker = Broker(ServeConfig(
                workers=1, run_fn=run_fn,
                parallel=ParallelConfig(threads=2, backend="vectorized"),
            ))
            await broker.start()
            client = ServeClient(broker)
            t0 = time.monotonic()
            with pytest.raises(DeadlineError) as err:
                await client.request(_spec(1, deadline=0.1))
            waited = time.monotonic() - t0
            release.set()
            await broker.drain()
            return err.value.to_dict(), waited

        info, waited = asyncio.run(main())
        assert info["reason"] == "deadline"
        assert waited < 5.0  # bounded by the deadline, not the hang
