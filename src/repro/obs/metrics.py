"""Counters, gauges, and histograms for a single run.

The registry is deliberately tiny: plain dicts keyed by metric name, no
label cardinality, no background threads.  Hot paths never touch it
directly — instrumentation sites ask :func:`repro.obs.trace.current`
first and skip everything when tracing is off, so the disabled cost is
one global read.  The hash table's contention counters are ingested
*once per phase* via :func:`record_table_stats`, not per operation.

Timers are sampled: a :class:`SampledTimer` counts every call but only
reads the clock on every ``sample_every``-th one, bounding overhead on
per-iteration sites while still estimating the latency distribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Histogram",
    "Metrics",
    "SampledTimer",
    "record_table_stats",
    "record_memory_stats",
]


@dataclass
class Histogram:
    """Streaming summary of observed values (count/total/min/max).

    Quantile sketches are out of scope; mean plus extremes is enough to
    spot pathological probe chains or batch latencies in a run summary.
    """

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        """Fold one value into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Fold an iterable of values into the summary."""
        for v in values:
            self.observe(float(v))

    @property
    def mean(self) -> float:
        """Arithmetic mean of observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        """JSON-safe summary (count/total/mean/min/max)."""
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class SampledTimer:
    """Times every ``sample_every``-th call; counts all of them.

    Usage (per-iteration hot path)::

        with metrics.timer("swap.iteration", sample_every=16):
            ...

    ``<name>.calls`` counts invocations; the histogram ``<name>``
    collects only sampled durations.
    """

    __slots__ = ("_metrics", "_name", "_every", "_t0")

    def __init__(self, metrics: "Metrics", name: str, sample_every: int):
        self._metrics = metrics
        self._name = name
        self._every = max(1, int(sample_every))
        self._t0: float | None = None

    def __enter__(self) -> "SampledTimer":
        n = self._metrics.inc(f"{self._name}.calls")
        if (n - 1) % self._every == 0:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._t0 is not None:
            self._metrics.observe(self._name, time.perf_counter() - self._t0)
            self._t0 = None


class Metrics:
    """A per-run registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> float:
        """Add ``value`` to counter ``name``; returns the new total."""
        total = self.counters.get(name, 0.0) + float(value)
        self.counters[name] = total
        return total

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Fold one value into histogram ``name`` (created on demand)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def observe_many(self, name: str, values) -> None:
        """Fold an iterable into histogram ``name`` (created on demand)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe_many(values)

    def timer(self, name: str, *, sample_every: int = 1) -> SampledTimer:
        """Context manager timing every ``sample_every``-th entry."""
        return SampledTimer(self, name, sample_every)

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of the whole registry."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }


def record_table_stats(metrics: Metrics, table, *, prefix: str = "swap.table") -> None:
    """Ingest a hash table's accumulated statistics into ``metrics``.

    The aggregate ``.stats`` of a
    :class:`~repro.parallel.hashtable.ConcurrentEdgeHashTable` become
    counters and its ``.max_probe`` a gauge.  Counters are *cumulative
    over the table's lifetime*; call this once when a phase ends, not
    per batch.
    """
    metrics.inc(f"{prefix}.attempts", float(table.stats.attempts))
    metrics.inc(f"{prefix}.failures", float(table.stats.failures))
    metrics.inc(f"{prefix}.rounds", float(table.stats.rounds))
    metrics.set_gauge(f"{prefix}.max_probe", float(table.max_probe))


def record_memory_stats(metrics: Metrics) -> None:
    """Record the process's memory gauges at a phase boundary.

    - ``mem.rss_peak`` — peak resident set size in bytes
      (``getrusage(RUSAGE_SELF).ru_maxrss``; the kernel reports KiB on
      Linux, bytes on macOS).  Monotone over the process lifetime, so
      repeated samples show which phase drove the peak.
    - ``store.bytes_mapped`` — bytes currently mapped by live
      out-of-core backing stores
      (:func:`repro.core.storage.total_bytes_mapped`); ``0`` for an
      all-RAM run, the spill footprint for an out-of-core one.

    Gauges overwrite, so the ``metrics.snapshot`` trace tail carries the
    last sample of each; intermediate samples are visible to any code
    reading the registry between phases.
    """
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":
            peak *= 1024  # Linux reports KiB
        metrics.set_gauge("mem.rss_peak", float(peak))
    except (ImportError, OSError):  # pragma: no cover - non-POSIX host
        pass
    try:
        from repro.core.storage import total_bytes_mapped

        mapped = float(total_bytes_mapped())
        metrics.set_gauge("store.bytes_mapped", mapped)
        # gauges keep only the last sample; the histogram retains the
        # peak across phase boundaries (max), which is what the scale
        # benchmark and the out-of-core CI smoke assert on
        metrics.observe("store.bytes_mapped", mapped)
    except ImportError:  # pragma: no cover - defensive
        pass
