"""Tiered integrity verification for every artifact class.

The paper's output contract is exact: a *simple* graph (no self loops,
no multi-edges — the whole reason the TestAndSet hash table exists)
realizing the prescribed degree sequence bit for bit.  The checkpoint
layer makes the stack survive crashes, but a crash is the *benign*
failure mode: a silently flipped bit in the hash table, a spill file, a
checkpoint payload, or a cached result produces a structurally wrong
graph that every downstream null-model inference then trusts.  This
module is the detection side of the integrity story; the repair side
reuses the checkpoint resume machinery (every resumed run reproduces
the fault-free output exactly, so "repair" means "recompute from a
validated state").

Three tiers, selected by ``ParallelConfig.verify`` (and per-job by
``JobSpec.verify``):

- ``"off"`` (default) — no checks beyond the ones that were always on
  (checkpoint SHA-256, cached-result digests);
- ``"cheap"`` — O(m) invariant checks at phase boundaries (endpoint
  bounds, no self loops, realized degree sequence == target) plus
  per-window CRC checks on spill-backed arrays;
- ``"full"`` — everything above plus the O(m log m) checks: duplicate
  edges via sorted packed keys and table-vs-edge-array consistency
  after every registration.

Detection raises a member of the typed :class:`IntegrityError` family —
never a silently wrong graph — and every check/violation flows through
:mod:`repro.obs` as ``verify:*`` spans and ``integrity.*`` metrics.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.obs import trace as obs_trace

__all__ = [
    "VERIFY_TIERS",
    "IntegrityError",
    "GraphIntegrityError",
    "ChecksumError",
    "check_tier",
    "chained_crc",
    "verify_graph",
    "verify_table_registration",
]

#: Verification tiers, in increasing cost order.
VERIFY_TIERS = ("off", "cheap", "full")


class IntegrityError(RuntimeError):
    """Base of the typed corruption family.

    Every detector in the data plane raises a subclass of this, so
    callers can quarantine-and-repair (reload a checkpoint, evict a
    cache entry) with one ``except`` clause while
    ordinary programming errors still propagate as themselves.
    """


class GraphIntegrityError(IntegrityError):
    """An edge-array invariant is violated (bounds, loops, degrees,
    duplicates, or table-vs-edge-array consistency)."""


class ChecksumError(IntegrityError):
    """A framed digest does not match its data (spill window, cached
    result)."""


def check_tier(tier: str) -> str:
    """Validate a verification tier name; returns it unchanged."""
    if tier not in VERIFY_TIERS:
        raise ValueError(f"verify must be one of {VERIFY_TIERS}, got {tier!r}")
    return tier


def chained_crc(data, prev: int = 0) -> int:
    """CRC-32 of ``data`` chained onto ``prev`` (a 32-bit int).

    ``zlib.crc32`` (the CRC-32/ISO-HDLC polynomial) rather than CRC32C:
    it is the only CRC with a C implementation in the standard library,
    and a pure-Python Castagnoli loop would dominate the hot paths the
    frames protect.  Detection strength is equivalent for random bitrot.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return zlib.crc32(data, prev) & 0xFFFFFFFF


def _violation(label: str, detail: str, *, metric: str) -> GraphIntegrityError:
    tr = obs_trace.current()
    if tr is not None:
        tr.event("verify:violation", label=label, detail=detail)
        tr.metrics.inc("integrity.violations")
        tr.metrics.inc(metric)
    return GraphIntegrityError(f"{label}: {detail}")


def verify_graph(
    u: np.ndarray,
    v: np.ndarray,
    n: int,
    *,
    degrees: np.ndarray | None = None,
    tier: str = "cheap",
    check_loops: bool = True,
    check_duplicates: bool = True,
    label: str = "graph",
) -> None:
    """Assert the paper's output invariants over an edge array.

    ``"cheap"`` checks endpoint bounds, self loops (when the null-model
    space forbids them), and — when ``degrees`` is given — that the
    realized degree sequence equals the target exactly.  ``"full"``
    additionally sorts the packed edge keys to prove no duplicate edge
    exists (when the space forbids multi-edges).  Raises
    :class:`GraphIntegrityError` on the first violation; ``"off"``
    returns immediately.
    """
    if check_tier(tier) == "off":
        return
    u = np.asarray(u)
    v = np.asarray(v)
    with _span("verify:graph", tier=tier, label=label, m=int(len(u))):
        tr = obs_trace.current()
        if tr is not None:
            tr.metrics.inc("integrity.checks")
        if len(u) != len(v):
            raise _violation(
                label, f"endpoint arrays differ in length ({len(u)} != {len(v)})",
                metric="integrity.graph_violations",
            )
        if len(u) == 0:
            return
        if int(u.min()) < 0 or int(v.min()) < 0 or int(u.max()) >= n or int(v.max()) >= n:
            raise _violation(
                label, f"endpoint out of range [0, {n})",
                metric="integrity.graph_violations",
            )
        if check_loops:
            loops = int(np.count_nonzero(u == v))
            if loops:
                raise _violation(
                    label, f"{loops} self loop(s) in a loop-free space",
                    metric="integrity.graph_violations",
                )
        if degrees is not None:
            realized = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
            target = np.asarray(degrees, dtype=realized.dtype)
            if len(target) < n:
                target = np.pad(target, (0, n - len(target)))
            if not np.array_equal(realized[:n], target[:n]):
                bad = int(np.flatnonzero(realized[:n] != target[:n])[0])
                raise _violation(
                    label,
                    f"degree of vertex {bad} is {int(realized[bad])}, "
                    f"target {int(target[bad])}",
                    metric="integrity.graph_violations",
                )
        if tier == "full" and check_duplicates:
            from repro.parallel.hashtable import pack_edges

            keys = np.sort(pack_edges(u, v))
            dups = int(np.count_nonzero(keys[1:] == keys[:-1]))
            if dups:
                raise _violation(
                    label, f"{dups} duplicate edge(s) in a multi-edge-free space",
                    metric="integrity.graph_violations",
                )


def verify_table_registration(table, keys: np.ndarray, *, label: str = "table") -> None:
    """Assert a freshly registered table holds exactly ``keys``.

    Immediately after an iteration's clear + registration the hash
    table is a pure function of the edge array: its live slots must be
    exactly the set of maintained packed keys.  A flipped slot bit —
    which would otherwise surface only as a *phantom-present* TestAndSet
    verdict that silently rejects a valid swap and shifts the whole
    verdict stream — fails this multiset comparison.  Full tier only
    (it sorts the live slots).  Raises :class:`GraphIntegrityError`.
    """
    from repro.parallel.hashtable import EMPTY_KEY

    with _span("verify:table", label=label):
        tr = obs_trace.current()
        if tr is not None:
            tr.metrics.inc("integrity.checks")
        slots = np.asarray(table._slots).reshape(-1)
        live = np.sort(slots[slots != EMPTY_KEY])
        # the maintained keys of a simple graph are distinct; registration
        # inserts each exactly once
        want = np.sort(np.asarray(keys, dtype=np.int64))
        if live.shape != want.shape or not np.array_equal(live, want):
            raise _violation(
                label,
                f"table holds {len(live)} key(s) but the edge array packs "
                f"{len(want)}; contents diverge — table corrupted",
                metric="integrity.table_violations",
            )


def _span(name: str, **attrs):
    """A trace span when tracing is on, else a no-op context manager."""
    import contextlib

    tr = obs_trace.current()
    return tr.span(name, **attrs) if tr is not None else contextlib.nullcontext()
