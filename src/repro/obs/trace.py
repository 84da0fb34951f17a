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

Two server-shaped extensions (see :mod:`repro.serve`):

- the span stack is owned by one thread, so code that runs pipeline
  phases on *worker threads* (the serving broker) wraps them in
  :func:`suppressed` — inside that thread, :func:`current` answers
  ``None`` and the hot paths skip instrumentation, exactly as if
  tracing were off; the serving layer records one compact
  :meth:`RunTrace.span_record` per job from its own thread instead;
- a long-lived process would grow the JSONL mirror without bound, so
  :class:`RunTrace` accepts size/age rotation knobs (the in-memory ring
  was always bounded).
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import threading
import time
import uuid
from typing import Any, Iterator

from repro.obs.metrics import Metrics
from repro.obs.schema import TRACE_SCHEMA_VERSION

__all__ = ["RunTrace", "current", "suppressed"]

#: the process-wide current trace (installed by ``RunTrace.__enter__``)
_CURRENT: "RunTrace | None" = None

#: per-thread suppression flag (see :func:`suppressed`)
_TLS = threading.local()


def current() -> "RunTrace | None":
    """The installed :class:`RunTrace`, or ``None`` (tracing disabled).

    Answers ``None`` inside a :func:`suppressed` block on the calling
    thread, regardless of the installed trace.
    """
    if getattr(_TLS, "suppressed", 0):
        return None
    return _CURRENT


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Disable tracing for the calling thread while the block runs.

    The span stack and JSONL handle of a :class:`RunTrace` belong to the
    thread that entered it; a second thread emitting spans would
    interleave parents and children.  Code that executes traced library
    calls on worker threads (e.g. the serving broker running
    :func:`~repro.core.generate.generate_graph` in an executor) wraps
    them in this context — the hot paths then take their disabled
    fast path.  Re-entrant.
    """
    _TLS.suppressed = getattr(_TLS, "suppressed", 0) + 1
    try:
        yield
    finally:
        _TLS.suppressed -= 1


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
    rotate_bytes:
        When > 0, rotate the JSONL mirror once it exceeds this many
        bytes: the current file moves to ``<path>.1`` (older rotations
        shift up; at most ``rotate_keep`` are retained) and a fresh file
        opens with its own meta record, so every rotated file validates
        standalone against the schema.  ``0`` (default) never rotates —
        the pre-serving behavior.
    rotate_age:
        When > 0, also rotate once the open file is older than this many
        seconds — bounds the staleness window of ``<path>`` itself for
        log shippers that only pick up rotated files.
    rotate_keep:
        Rotated files retained (``<path>.1`` … ``<path>.N``); older ones
        are unlinked.  Total mirror footprint is therefore bounded by
        roughly ``(rotate_keep + 1) * rotate_bytes`` plus one record.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 ring_size: int = 65536, run_id: str | None = None,
                 metrics: Metrics | None = None, rotate_bytes: int = 0,
                 rotate_age: float = 0.0, rotate_keep: int = 3):
        self.path = os.fspath(path) if path is not None else None
        self.run_id = run_id or uuid.uuid4().hex
        self.metrics = metrics if metrics is not None else Metrics()
        self._ring: collections.deque[dict] = collections.deque(maxlen=ring_size)
        self._stack: list[int] = []
        self._ids = 0
        self._t0: float | None = None
        self._file = None
        self._previous: "RunTrace | None" = None
        self._rotate_bytes = max(0, int(rotate_bytes))
        self._rotate_age = max(0.0, float(rotate_age))
        self._rotate_keep = max(1, int(rotate_keep))
        self._file_bytes = 0
        self._file_opened = 0.0
        self._rotations = 0

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
            line = json.dumps(rec, separators=(",", ":")) + "\n"
            if self._should_rotate(len(line)):
                self._rotate()
            self._file.write(line)
            self._file_bytes += len(line)

    def _meta_record(self) -> dict:
        return {
            "kind": "meta",
            "name": "run",
            "schema": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "pid": os.getpid(),
            "ts": 0.0,
        }

    def _should_rotate(self, incoming: int) -> bool:
        if self._file is None or self._file_bytes == 0:
            return False
        if self._rotate_bytes and self._file_bytes + incoming > self._rotate_bytes:
            return True
        if self._rotate_age and (
            time.perf_counter() - self._file_opened > self._rotate_age
        ):
            return True
        return False

    def _rotate(self) -> None:
        """Shift ``<path>.k`` up, move the open file to ``<path>.1``, reopen.

        The fresh file starts with its own copy of the meta record
        (written directly, not through the ring — the in-memory record
        stream still carries exactly one meta record) so each file in
        the rotation set validates standalone.
        """
        self._file.flush()
        self._file.close()
        self._file = None
        try:
            os.unlink(f"{self.path}.{self._rotate_keep}")
        except OSError:
            pass
        for k in range(self._rotate_keep - 1, 0, -1):
            try:
                os.replace(f"{self.path}.{k}", f"{self.path}.{k + 1}")
            except OSError:
                pass
        try:
            os.replace(self.path, f"{self.path}.1")
        except OSError:
            pass
        self._open_file()
        self._rotations += 1

    def _open_file(self) -> None:
        self._file = open(self.path, "w", encoding="utf-8")
        line = json.dumps(self._meta_record(), separators=(",", ":")) + "\n"
        self._file.write(line)
        self._file_bytes = len(line)
        self._file_opened = time.perf_counter()

    @property
    def rotations(self) -> int:
        """How many times the JSONL mirror has rotated."""
        return self._rotations

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

    def span_record(self, name: str, started: float, **attrs: Any) -> None:
        """Emit a closed root span covering ``[started, now]`` directly.

        For concurrent servers: many jobs overlap in one event loop, so
        nesting them on the shared span *stack* would interleave
        parent/child attribution.  ``started`` is a :meth:`clock`
        reading taken when the interval began; the span is recorded with
        ``parent=None`` and never touches the stack.
        """
        now = self.clock()
        self._record({
            "kind": "span",
            "name": name,
            "id": self._next_id(),
            "parent": None,
            "ts": round(max(0.0, float(started)), 9),
            "dur": round(max(0.0, now - float(started)), 9),
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
        # the meta record reaches the file through _open_file (so every
        # rotated file leads with its own copy) and the ring directly
        # (so the in-memory stream carries it exactly once)
        if self.path is not None:
            self._open_file()
        self._ring.append(self._meta_record())
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
