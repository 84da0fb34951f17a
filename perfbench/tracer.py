"""Per-layer attribution by wrapping the library's layer entry points.

A :class:`Tracer` replaces the names that callers inside the library look
up (module attributes and class methods) with thin wrappers.  Each call
records a :class:`Span` — layer name, start, end, and the span that was
open when it began — plus the counts the call's arguments and return
value carry.  Spans stay in memory; :func:`layer_metrics` reduces one
sample's spans to the per-layer metrics the benchmark reports.  Nothing
in the library changes: uninstalling restores every original.

Layer names and the calls they cover:

==================  ==================================================
``generate``        the benchmark's ``generate_graph`` call (gen-hubs)
``probabilities``   ``repro.core.generate.generate_probabilities``
``edge_skip``       ``repro.core.generate.generate_edges``
``swap``            ``repro.core.generate.swap_edges`` and the
                    benchmark's own ``swap_edges`` call
``permutation``     ``repro.core.swap.parallel_permutation``
``pack``            ``repro.core.swap.pack_edges`` (hashtable layer)
``tas``             ``ConcurrentEdgeHashTable.test_and_set``
``storage.permute`` ``repro.core.swap.permute_into``
``storage.copy``    ``repro.core.swap.copy_into``
``storage.guard``   ``ChunkGuard.seal`` / ``ChunkGuard.check``
``checkpoint``      ``CheckpointStore.save``
``verify``          ``repro.verify.verify_graph`` (and its
                    ``repro.core.generate`` alias)
``datasets``        the benchmark's input synthesis
``havel_hakimi``    the benchmark's ``havel_hakimi_graph`` call
==================  ==================================================
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    """One wrapped call: layer, interval, parent span index, counts."""

    name: str
    parent: int
    t0: float = 0.0
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _spin(seconds: float) -> None:
    """Busy-wait ``seconds`` (an injected delay that occupies the core)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Tracer:
    """Records spans around wrapped calls; optionally injects delays.

    ``delays`` maps a layer name to a fraction: every call of that layer
    is followed, inside its span, by a busy-wait of that fraction of the
    call's own duration.  The attribution self-check uses it to slow one
    layer by a known share without touching the library.
    """

    def __init__(self, delays: dict | None = None) -> None:
        self.spans: list[Span] = []
        self.delays = dict(delays or {})
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, args=(), kwargs=None, *, before=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``before(args, kwargs)`` runs ahead of the span and its result is
        handed to ``after(state, args, kwargs, out)``, which runs once the
        span is closed and returns the span's counts.
        """
        kwargs = kwargs or {}
        state = before(args, kwargs) if before is not None else None
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            frac = self.delays.get(name)
            if frac:
                _spin(frac * (time.perf_counter() - span.t0))
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()
        if after is not None:
            span.attrs = after(state, args, kwargs, out)
        return out

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every name in :func:`_targets`; installing twice raises."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped name to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before=before, after=after)

        return wrapper


# -- count extractors ---------------------------------------------------------


def _probabilities_after(state, args, kwargs, out) -> dict:
    return {"classes": int(out.P.shape[0])}


def _edges_after(state, args, kwargs, out) -> dict:
    return {"edges": int(out.m)}


def _permutation_after(state, args, kwargs, out) -> dict:
    stats = kwargs.get("stats")
    if stats is None:
        return {}
    return {"rounds": stats.rounds, "attempts": stats.attempts, "n": stats.n}


def _tas_before(args, kwargs):
    table = args[0]
    return table.stats.attempts, table.stats.failures


def _tas_after(state, args, kwargs, out) -> dict:
    table = args[0]
    attempts0, failures0 = state
    return {
        "keys": int(len(out)),
        "present": int(np.count_nonzero(out)),
        "cas_attempts": table.stats.attempts - attempts0,
        "cas_failures": table.stats.failures - failures0,
    }


def _mapped_after(state, args, kwargs, out) -> dict:
    from repro.core.storage import total_bytes_mapped

    return {"bytes_mapped": total_bytes_mapped()}


def _save_after(state, args, kwargs, out) -> dict:
    from repro.core.storage import total_bytes_mapped

    arrays = kwargs.get("arrays") or {}
    return {
        "bytes": int(sum(np.asarray(a).nbytes for a in arrays.values())),
        "bytes_mapped": total_bytes_mapped(),
    }


def _targets():
    """``(owner, attribute, layer, before, after)`` for every wrapped name."""
    import repro.core.generate as generate
    import repro.core.swap as swap
    import repro.verify as verify
    from repro.core.checkpoint import CheckpointStore
    from repro.core.storage import ChunkGuard
    from repro.parallel.hashtable import ConcurrentEdgeHashTable

    return [
        (generate, "generate_probabilities", "probabilities", None, _probabilities_after),
        (generate, "generate_edges", "edge_skip", None, _edges_after),
        (generate, "swap_edges", "swap", None, None),
        (generate, "verify_graph", "verify", None, None),
        (swap, "parallel_permutation", "permutation", None, _permutation_after),
        (swap, "pack_edges", "pack", None, None),
        (swap, "permute_into", "storage.permute", None, _mapped_after),
        (swap, "copy_into", "storage.copy", None, _mapped_after),
        (ConcurrentEdgeHashTable, "test_and_set", "tas", _tas_before, _tas_after),
        (ChunkGuard, "seal", "storage.guard", None, _mapped_after),
        (ChunkGuard, "check", "storage.guard", None, _mapped_after),
        (CheckpointStore, "save", "checkpoint", None, _save_after),
        (verify, "verify_graph", "verify", None, None),
    ]


# -- reduction ------------------------------------------------------------------

#: per-layer metrics of one traced sample: name -> unit
SAMPLE_METRICS = {
    "generate.self_s": "s",
    "probabilities.busy_s": "s",
    "probabilities.classes": "count",
    "edge_skip.busy_s": "s",
    "edge_skip.spaces": "count",
    "edge_skip.edges": "count",
    "permutation.busy_s": "s",
    "permutation.calls": "count",
    "permutation.rounds": "count",
    "permutation.retry_overhead": "ratio",
    "hashtable.tas_busy_s": "s",
    "hashtable.tas_keys": "count",
    "hashtable.tas_present_frac": "ratio",
    "hashtable.cas_failures": "count",
    "hashtable.cas_failure_ratio": "ratio",
    "hashtable.pack_busy_s": "s",
    "swap.busy_s": "s",
    "swap.self_s": "s",
    "swap.proposed": "count",
    "swap.accept_rate": "ratio",
    "swap.rejected_duplicate": "count",
    "swap.rejected_self_loop": "count",
    "storage.permute_busy_s": "s",
    "storage.copy_busy_s": "s",
    "storage.guard_busy_s": "s",
    "storage.bytes_mapped_peak": "bytes",
    "checkpoint.save_busy_s": "s",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "bytes",
    "verify.busy_s": "s",
    "verify.calls": "count",
}

#: per-layer metrics of the traced run as a whole: name -> unit
RUN_METRICS = {
    "havel_hakimi.busy_s": "s",
    "datasets.busy_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(spans: list[Span]) -> dict:
    """Per-layer ``busy`` (inclusive), ``self`` and ``calls`` plus summed counts.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    busy: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        busy[s.name] += s.seconds
        own[s.name] += s.seconds - child[i]
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key == "bytes_mapped":
                counts["storage"][key] = max(counts["storage"][key], value)
            else:
                counts[s.name][key] += value
    return {"busy": busy, "self": own, "calls": calls, "counts": counts}


def class_pairs(P: np.ndarray) -> int:
    """Class pairs ``i <= j`` with ``P[i, j] > 0`` (edge-skip sample spaces)."""
    positive = np.asarray(P) > 0
    return int((np.count_nonzero(positive) + np.count_nonzero(positive.diagonal())) // 2)


def layer_metrics(spans: list[Span], swap_stats, report=None) -> dict:
    """One traced sample's :data:`SAMPLE_METRICS`.

    Times and most counts come from the spans; the swap counts from the
    sample's ``SwapStats``; the number of edge-skip sample spaces from the
    probability matrix in the sample's ``GenerationReport`` (counted here,
    after the sample, so the count costs the traced run nothing).
    """
    agg = aggregate(spans)
    busy, own, calls, counts = agg["busy"], agg["self"], agg["calls"], agg["counts"]
    perm, tas = counts["permutation"], counts["tas"]
    return {
        "generate.self_s": own["generate"],
        "probabilities.busy_s": busy["probabilities"],
        "probabilities.classes": counts["probabilities"]["classes"],
        "edge_skip.busy_s": busy["edge_skip"],
        "edge_skip.spaces": (
            class_pairs(report.probabilities.P)
            if report is not None and calls["edge_skip"] else 0
        ),
        "edge_skip.edges": counts["edge_skip"]["edges"],
        "permutation.busy_s": busy["permutation"],
        "permutation.calls": calls["permutation"],
        "permutation.rounds": perm["rounds"],
        "permutation.retry_overhead": _ratio(perm["attempts"] - perm["n"], perm["n"]),
        "hashtable.tas_busy_s": busy["tas"],
        "hashtable.tas_keys": tas["keys"],
        "hashtable.tas_present_frac": _ratio(tas["present"], tas["keys"]),
        "hashtable.cas_failures": tas["cas_failures"],
        "hashtable.cas_failure_ratio": _ratio(tas["cas_failures"], tas["cas_attempts"]),
        "hashtable.pack_busy_s": busy["pack"],
        "swap.busy_s": busy["swap"],
        "swap.self_s": own["swap"],
        "swap.proposed": swap_stats.proposed,
        "swap.accept_rate": swap_stats.acceptance_rate,
        "swap.rejected_duplicate": swap_stats.rejected_duplicate,
        "swap.rejected_self_loop": swap_stats.rejected_self_loop,
        "storage.permute_busy_s": busy["storage.permute"],
        "storage.copy_busy_s": busy["storage.copy"],
        "storage.guard_busy_s": busy["storage.guard"],
        "storage.bytes_mapped_peak": counts["storage"]["bytes_mapped"],
        "checkpoint.save_busy_s": busy["checkpoint"],
        "checkpoint.saves": calls["checkpoint"],
        "checkpoint.bytes": counts["checkpoint"]["bytes"],
        "verify.busy_s": busy["verify"],
        "verify.calls": calls["verify"],
    }


#: agreement required between a traced layer and the program's own timer
PHASE_RTOL = 0.02
PHASE_ATOL_S = 0.002


def phase_check(layers: dict, report) -> dict:
    """Compare traced layer busy time with ``GenerationReport.phase_seconds``.

    The program times each phase of ``generate_graph`` around the very
    call the tracer wraps, so the two must agree to within the wrapper's
    own cost; a disagreement means a wrapper sits on the wrong name.
    """
    pairs = {
        "probabilities": ("probabilities.busy_s", "probabilities"),
        "edge_skip": ("edge_skip.busy_s", "edge_generation"),
        "swap": ("swap.busy_s", "swap"),
    }
    out = {"ok": True}
    for layer, (metric, phase) in pairs.items():
        traced = float(layers[metric])
        reported = float(report.phase_seconds[phase])
        ok = abs(traced - reported) <= PHASE_RTOL * reported + PHASE_ATOL_S
        out[layer] = {"traced_s": traced, "phase_s": reported, "ok": ok}
        out["ok"] = out["ok"] and ok
    return out
