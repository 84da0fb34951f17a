"""Content-addressed result cache for the serving broker.

Keys are run fingerprints (see :mod:`repro.serve.jobs`): the digest of
everything output-affecting — input digest, seed, iteration count,
logical thread count.  Because every execution path the broker can take
for a given fingerprint produces the same bits (a fresh run or a
checkpoint replay on the broker's one configured backend — the property
the golden tests defend), a cached result is *the* result: serving it is
indistinguishable from rerunning the pipeline, so the cache needs no
invalidation story beyond capacity.

Eviction is LRU, bounded both by entry count and by payload bytes —
a long-lived server must not grow without bound (the same discipline
the obs ring and the JSONL rotation apply to telemetry).  Cached arrays
are frozen (``writeable=False``); callers that want to mutate a served
graph copy it first.

Every entry carries an always-on content digest (chained CRC-32 over
both endpoint arrays, stamped at insert) in the same spirit as the
checkpoint SHA-256: a hit whose payload no longer matches — bitrot in a
long-lived server's heap, or a buggy consumer that unfroze and mutated
the shared arrays — is *evicted* instead of served, the lookup reports
a miss, and the broker's single-flight path recomputes the result from
scratch (bitwise-identical by the reproducibility contract, so the
eviction is invisible to callers beyond latency).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = ["CachedResult", "ResultCache"]


@dataclass
class CachedResult:
    """One cached run: frozen endpoint arrays + the producing run's stats."""

    fingerprint: str
    u: np.ndarray
    v: np.ndarray
    n: int
    #: producing-run stats (edges, attempts, run_seconds, …)
    stats: dict = field(default_factory=dict)
    #: content digest over ``u`` then ``v`` (stamped at construction)
    digest: int = 0

    def __post_init__(self) -> None:
        self.u = np.ascontiguousarray(self.u, dtype=np.int64)
        self.v = np.ascontiguousarray(self.v, dtype=np.int64)
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        self.n = int(self.n)
        self.digest = self._payload_digest()

    def _payload_digest(self) -> int:
        from repro.verify import chained_crc

        return chained_crc(self.v, chained_crc(self.u))

    def payload_intact(self) -> bool:
        """Whether the arrays still hash to the insert-time digest."""
        return self._payload_digest() == self.digest

    @property
    def nbytes(self) -> int:
        return int(self.u.nbytes + self.v.nbytes)

    def graph(self) -> EdgeList:
        """The cached graph as an :class:`EdgeList` over the frozen arrays."""
        return EdgeList(self.u, self.v, self.n)


class ResultCache:
    """Bounded LRU cache of :class:`CachedResult` keyed by fingerprint.

    Not thread-safe by design: the broker touches it only from the event
    loop thread.
    """

    def __init__(self, max_entries: int = 128, max_bytes: int = 256 << 20) -> None:
        if max_entries < 0 or max_bytes < 0:
            raise ValueError("cache bounds must be non-negative")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def get(self, fingerprint: str) -> CachedResult | None:
        """The cached result for ``fingerprint``, refreshed to most-recent.

        A hit is digest-verified before it is served; a corrupt entry is
        evicted, counted in ``corrupt_evictions``, and reported as a
        miss so the caller recomputes instead of serving garbage.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        if not entry.payload_intact():
            del self._entries[fingerprint]
            self._bytes -= entry.nbytes
            self.corrupt_evictions += 1
            self.misses += 1
            from repro.obs import trace as obs_trace

            tr = obs_trace.current()
            if tr is not None:
                tr.event(
                    "cache.corrupt_evict", fingerprint=fingerprint,
                    nbytes=entry.nbytes,
                )
                tr.metrics.inc("integrity.cache_evictions")
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def put(self, result: CachedResult) -> CachedResult:
        """Insert (or refresh) ``result``, evicting LRU entries over budget.

        Returns the entry actually held — on a racing duplicate insert,
        the already-cached one, so single-flight waiters share arrays.
        """
        existing = self._entries.get(result.fingerprint)
        if existing is not None:
            self._entries.move_to_end(result.fingerprint)
            return existing
        if self.max_entries == 0 or result.nbytes > self.max_bytes:
            # oversized payloads pass through uncached rather than
            # wiping the whole working set to make room
            return result
        self._entries[result.fingerprint] = result
        self._bytes += result.nbytes
        while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
            _, victim = self._entries.popitem(last=False)
            self._bytes -= victim.nbytes
            self.evictions += 1
        return result

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        self._entries.clear()
        self._bytes = 0

    def snapshot(self) -> dict:
        """Counters for metrics/stats endpoints."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_evictions": self.corrupt_evictions,
        }
