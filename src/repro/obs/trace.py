"""Run-scoped structured tracing.

A :class:`RunTrace` is a context manager that records *spans* (named,
nested intervals: phases, swap chains) and *events* (point-in-time
records: permutation rounds, checkpoint writes) into a
bounded in-memory ring, optionally mirrored line-by-line to a JSONL
file.  Exactly one trace is *current* per process at a time; the hot
paths ask :func:`current` and skip all bookkeeping when it returns
``None``, so a run without a trace pays one module-global read per
instrumentation site and nothing else.

Record shapes (schema version :data:`~repro.obs.schema.TRACE_SCHEMA_VERSION`)::

    {"kind": "meta",  "name": "run", "schema": 2, "run_id": ..., "pid": ..., "ts": 0.0}
    {"kind": "span",  "name": ..., "id": 7, "parent": 3, "ts": ..., "dur": ..., "attrs": {...}}
    {"kind": "event", "name": ..., "id": 8, "parent": 7, "ts": ..., "attrs": {...}}

``ts`` is seconds since the trace was entered (monotonic clock).  Span
records are emitted when the span *closes*, so in a JSONL file children
precede their parents; consumers that want the tree must buffer (see
:mod:`repro.obs.schema`).
"""

from __future__ import annotations

import collections
import json
import os
import time
import uuid
from typing import Any, Iterator

from repro.obs.metrics import Metrics
from repro.obs.schema import TRACE_SCHEMA_VERSION

__all__ = ["RunTrace", "current"]

#: the process-wide current trace (installed by ``RunTrace.__enter__``)
_CURRENT: "RunTrace | None" = None


def current() -> "RunTrace | None":
    """The installed :class:`RunTrace`, or ``None`` (tracing disabled)."""
    return _CURRENT


def _json_safe(value: Any) -> Any:
    """Coerce attribute values to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


class _Span:
    """Context manager handed out by :meth:`RunTrace.span`."""

    __slots__ = ("_trace", "name", "id", "parent", "ts", "attrs")

    def __init__(self, trace: "RunTrace", name: str, parent: int | None,
                 attrs: dict[str, Any]):
        self._trace = trace
        self.name = name
        self.id = trace._next_id()
        self.parent = parent
        self.ts = trace.clock()
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it was opened."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._trace._stack.append(self.id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._trace._stack
        # tolerate exception-unwound inner spans: pop back to this span
        while stack and stack[-1] != self.id:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._trace._record({
            "kind": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "ts": round(self.ts, 9),
            "dur": round(self._trace.clock() - self.ts, 9),
            "attrs": {k: _json_safe(v) for k, v in self.attrs.items()},
        })


class RunTrace:
    """A run-scoped trace: bounded in-memory ring + optional JSONL file.

    Its span stack belongs to the thread that entered it, so traced
    library calls must run on that thread.

    Parameters
    ----------
    path:
        Optional JSONL output path.  Records are appended as they are
        emitted (spans on close) and flushed when the trace exits, so a
        crashed run leaves every closed span on disk.
    ring_size:
        Maximum records retained in memory (oldest evicted first).  The
        JSONL file is never truncated.
    run_id:
        Stable identifier stamped into the meta record; defaults to a
        fresh UUID4 hex string.
    metrics:
        A :class:`~repro.obs.metrics.Metrics` registry to associate with
        the run; a fresh one is created when omitted.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 ring_size: int = 65536, run_id: str | None = None,
                 metrics: Metrics | None = None):
        self.path = os.fspath(path) if path is not None else None
        self.run_id = run_id or uuid.uuid4().hex
        self.metrics = metrics if metrics is not None else Metrics()
        self._ring: collections.deque[dict] = collections.deque(maxlen=ring_size)
        self._stack: list[int] = []
        self._ids = 0
        self._t0: float | None = None
        self._file = None
        self._previous: "RunTrace | None" = None

    # -- clock / ids -------------------------------------------------------

    def clock(self) -> float:
        """Seconds since the trace was entered (0.0 before entry)."""
        return 0.0 if self._t0 is None else time.perf_counter() - self._t0

    def _next_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- recording ---------------------------------------------------------

    def _record(self, rec: dict) -> None:
        self._ring.append(rec)
        if self._file is not None:
            self._file.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a nested span; use as ``with trace.span("phase:swap"): ...``."""
        parent = self._stack[-1] if self._stack else None
        return _Span(self, name, parent, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event under the innermost open span."""
        self._record({
            "kind": "event",
            "name": name,
            "id": self._next_id(),
            "parent": self._stack[-1] if self._stack else None,
            "ts": round(self.clock(), 9),
            "attrs": {k: _json_safe(v) for k, v in attrs.items()},
        })

    def records(self) -> list[dict]:
        """The retained records, oldest first (meta record included)."""
        return list(self._ring)

    def spans(self, name: str | None = None) -> list[dict]:
        """Closed spans retained in the ring, optionally filtered by name."""
        return [r for r in self._ring
                if r["kind"] == "span" and (name is None or r["name"] == name)]

    def events(self, name: str | None = None) -> list[dict]:
        """Events retained in the ring, optionally filtered by name."""
        return [r for r in self._ring
                if r["kind"] == "event" and (name is None or r["name"] == name)]

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "RunTrace":
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self
        self._t0 = time.perf_counter()
        if self.path is not None:
            self._file = open(self.path, "w", encoding="utf-8")
        self._record({
            "kind": "meta",
            "name": "run",
            "schema": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "ts": 0.0,
        })
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _CURRENT
        # snapshot the metrics registry into the trace tail so a JSONL
        # file is self-contained (counters, gauges, histogram summaries)
        self._record({
            "kind": "event",
            "name": "metrics.snapshot",
            "id": self._next_id(),
            "parent": None,
            "ts": round(self.clock(), 9),
            "attrs": {"metrics": self.metrics.snapshot()},
        })
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None
        _CURRENT = self._previous
        self._previous = None

    # -- convenience -------------------------------------------------------

    def walk(self) -> Iterator[dict]:
        """Iterate retained records oldest-first (alias of :meth:`records`)."""
        return iter(self._ring)
