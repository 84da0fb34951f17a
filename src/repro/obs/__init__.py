"""Run-scoped observability: tracing, metrics, and mixing diagnostics.

Three small, composable pieces (see ``docs/observability.md``):

- :mod:`repro.obs.trace` — :class:`RunTrace`, a context manager that
  records nested spans and point events into a bounded ring and an
  optional JSONL file.  Instrumentation sites are no-ops unless a trace
  is installed (:func:`current` returns ``None``).
- :mod:`repro.obs.metrics` — a per-run :class:`Metrics` registry of
  counters/gauges/histograms, fed once per phase from the hash table's
  contention counters.
- :mod:`repro.obs.mixing` — swap-chain mixing diagnostics (degree
  assortativity, clustering proxy, edge overlap with the start graph),
  sampled every ``k`` permutation rounds and bitwise-identical across
  backends.

Quickstart::

    from repro import DegreeDistribution, ParallelConfig, generate_graph
    from repro.obs import RunTrace

    dist = DegreeDistribution([1, 2, 3, 6], [400, 240, 100, 40])
    with RunTrace("run.jsonl") as trace:
        graph, report = generate_graph(
            dist, swap_iterations=10, mixing_every=2,
            config=ParallelConfig(threads=4, seed=7))
    print(trace.metrics.counters)
    print(report.swap_stats.mixing.to_dict())
"""

from repro.obs.metrics import Histogram, Metrics, SampledTimer, record_table_stats
from repro.obs.mixing import (
    MixingProbe,
    MixingSample,
    MixingTrajectory,
    clustering_proxy,
    edge_overlap,
)
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    TraceSchemaError,
    validate_trace,
    validate_trace_file,
)
from repro.obs.trace import RunTrace, current

__all__ = [
    "RunTrace",
    "current",
    "Metrics",
    "Histogram",
    "SampledTimer",
    "record_table_stats",
    "MixingProbe",
    "MixingSample",
    "MixingTrajectory",
    "clustering_proxy",
    "edge_overlap",
    "TRACE_SCHEMA_VERSION",
    "TraceSchemaError",
    "validate_trace",
    "validate_trace_file",
]
