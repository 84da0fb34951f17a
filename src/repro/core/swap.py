"""Parallel double-edge swaps (Algorithm III.1).

A *double-edge swap* takes two edges ``e = {u,v}``, ``f = {x,y}`` and
rewires them to ``{u,x}, {v,y}`` or ``{u,y}, {v,x}`` (chosen by coin
flip).  Swaps preserve every vertex degree; performing many randomly
chosen swaps as an MCMC walk samples (after mixing) uniformly from the
simple-graph space of the degree sequence — the only practical route to
unbiased simple null models [2].

The parallel procedure per iteration:

1. insert every current edge into the concurrent hash table
   (thread-safe ``TestAndSet``);
2. permute the edge list with the reservation-based parallel permutation
   (Shun et al.);
3. each adjacent pair ``(E[i], E[i+1])`` (i even) proposes one swap:
   flip the orientation coin, then ``TestAndSet(g)``, ``TestAndSet(h)``
   (short-circuit: h is only attempted when g was absent) and a
   self-loop check; on any failure the pair keeps its original edges;
4. clear the table.

Two fidelity details are preserved exactly:

- **no rollback** — keys inserted by failed proposals stay in the table
  for the rest of the iteration, so a later pair proposing the same edge
  fails conservatively (this never violates simplicity; it only wastes a
  proposal, which is why the paper counts "failed" swaps);
- **the table is a superset of the live edge set** — vacated originals
  are never deleted within an iteration, again conservative.

The vectorized engine executes one legal concurrent schedule: all g
insertions as one batch round, then all surviving h insertions.  Batched
``TestAndSet`` resolves same-slot races exactly like the lock-free table
would (lowest index wins deterministically).

Multigraph inputs are legal: the O(m) Chung-Lu output is "simplified" by
repeated swap iterations (Section VIII-A) because duplicate copies and
self loops can only be swapped *away* (any proposal that would create an
existing edge or loop fails).  :class:`SwapStats` tracks exactly the
quantities the paper reports — per-iteration success rates, the fraction
of edges successfully swapped at least once, and the remaining
multi-edge/self-loop counts.

:func:`serial_swap_chain` is the textbook sequential MCMC (uniform random
edge pairs, one at a time) used for the Milo et al. uniformity
validation, where its simple reversible-chain structure makes the
stationary distribution provably uniform.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.checkpoint import (
    Checkpoint,
    CheckpointMismatchError,
    as_store,
    run_fingerprint,
)
from repro.core.storage import (
    ChunkGuard,
    MmapStore,
    copy_into,
    permute_into,
    spill_window,
    swap_working_set_bytes,
)
from repro.graph.edgelist import EdgeList
from repro.obs import trace as obs_trace
from repro.obs.metrics import record_memory_stats, record_table_stats
from repro.obs.mixing import MixingProbe, MixingTrajectory
from repro.parallel.cost_model import CostModel
from repro.parallel.hashtable import ConcurrentEdgeHashTable, pack_edges
from repro.parallel.permutation import (
    PermutationStats,
    fisher_yates_permutation,
    parallel_permutation,
)
from repro.parallel.rng import generator_from_seed
from repro.parallel.runtime import ParallelConfig

__all__ = ["SwapStats", "swap_edges", "serial_swap_chain"]


def _open_swap_store(config, m):
    """Open the swap phase's spill store when the budget says so.

    Returns ``(store, window)``; ``store`` is ``None`` (and ``window``
    0) when the arrays stay in RAM.  A spill is recorded as a
    ``tune.replan`` trace event with ``phase="storage"`` so traced runs
    document it.
    """
    budget = int(config.memory_budget_bytes)
    window = spill_window(budget, m)
    if not window:
        return None, 0
    tr = obs_trace.current()
    if tr is not None:
        tr.event(
            "tune.replan", phase="storage", store="mmap", window=window,
            edges=m, reason=(
                f"swap: working_set={swap_working_set_bytes(m)} "
                f"budget={budget} -> mmap window={window}"
            ),
        )
    return MmapStore(), window


def _store_working_arrays(store, window, u_src, v_src, swapped_src, m):
    """Allocate the loop's persistent arrays from a store (windowed fill).

    ``swapped_src`` is ``None`` on a fresh run (no edge has swapped yet):
    a fresh spill file already reads as all ``False``.
    """
    u = store.empty(m, np.int64)
    v = store.empty(m, np.int64)
    swapped = store.empty(m, np.bool_)
    copy_into(u, u_src, window)
    copy_into(v, v_src, window)
    if swapped_src is not None:
        copy_into(swapped, swapped_src, window)
    return u, v, swapped


@dataclass
class SwapStats:
    """Execution statistics of a :func:`swap_edges` run."""

    iterations: int = 0
    proposed: int = 0
    accepted: int = 0
    #: proposals rejected because a new edge already existed (multi-edge)
    rejected_duplicate: int = 0
    #: proposals rejected because a new edge was a self loop
    rejected_self_loop: int = 0
    #: per-iteration acceptance counts
    accepted_per_iteration: list[int] = field(default_factory=list)
    #: per-iteration fraction of edges that have swapped at least once
    swapped_fraction_per_iteration: list[float] = field(default_factory=list)
    #: hash-table contention across iterations — execution observability,
    #: not part of the result contract: attempt/failure counts depend on
    #: batch grouping (serial probes key-at-a-time, vectorized in
    #: rounds), while the verdict stream they produce is identical.
    #: Excluded from equality, like ``mixing``
    table_failures: int = field(default=0, compare=False)
    table_attempts: int = field(default=0, compare=False)
    permutation_rounds: int = 0
    #: mixing trajectory sampled along the chain (``mixing_every > 0``);
    #: a derived observation of the edge stream, excluded from equality
    mixing: MixingTrajectory | None = field(default=None, compare=False)

    def merge_from(self, other: "SwapStats") -> None:
        """Accumulate ``other`` into this instance (run-local merge).

        Checkpointed and resumed runs count into a scratch ``SwapStats``
        and merge it into the caller's at the end, so snapshots carry
        exactly one run's cumulative counts.
        """
        for name in _COUNTED_FIELDS:
            mine = getattr(self, name)
            if isinstance(mine, list):
                mine.extend(getattr(other, name))
            else:
                setattr(self, name, mine + getattr(other, name))
        if other.mixing is not None:
            self.mixing = other.mixing

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted."""
        return self.accepted / self.proposed if self.proposed else 0.0

    @property
    def swapped_fraction(self) -> float:
        """Final fraction of edges successfully swapped at least once."""
        if not self.swapped_fraction_per_iteration:
            return 0.0
        return self.swapped_fraction_per_iteration[-1]


#: every :class:`SwapStats` field but ``mixing``: the counters a merge sums
#: (lists concatenate) and a snapshot persists under the field's name
_COUNTED_FIELDS = tuple(f.name for f in fields(SwapStats) if f.name != "mixing")


# -- checkpoint/resume plumbing -------------------------------------------
#
# Snapshots are taken at iteration boundaries, where the hash table is a
# pure function of the edge array (every iteration begins with clear +
# re-registration), so the durable state is exactly: the edge arrays, the
# swapped-at-least-once mask, the driver RNG stream, and the accumulated
# statistics.  Restoring those four and re-entering the loop at the saved
# round reproduces the remaining iterations bit for bit — on either
# backend, because the TestAndSet verdict stream is backend-invariant.


def _stats_to_meta(stats: SwapStats | None) -> dict | None:
    """JSON-safe snapshot of a :class:`SwapStats` (mixing excluded)."""
    if stats is None:
        return None
    meta = {}
    for name in _COUNTED_FIELDS:
        value = getattr(stats, name)
        # tolist() turns numpy scalars into the Python ints/floats json takes
        meta[name] = (
            np.asarray(value).tolist() if isinstance(value, list) else int(value)
        )
    return meta


def _stats_from_meta(meta: dict | None) -> SwapStats:
    """Rebuild a :class:`SwapStats` from :func:`_stats_to_meta` output."""
    stats = SwapStats()
    for name in _COUNTED_FIELDS:
        if meta and name in meta:
            value = meta[name]
            default = getattr(stats, name)
            setattr(stats, name, list(value) if isinstance(default, list) else int(value))
    return stats


@dataclass
class _SwapResume:
    """Restored mid-chain state: arrays + RNG + stats + round cursor."""

    start_iteration: int
    u: np.ndarray
    v: np.ndarray
    swapped: np.ndarray
    rng_state: dict
    stats: SwapStats
    #: cumulative per-phase seconds of the run(s) that wrote the snapshot
    phase_seconds: dict = field(default_factory=dict)


def _restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Set ``rng``'s bit-generator stream to a snapshotted state."""
    name = state.get("bit_generator") if isinstance(state, dict) else None
    bg = rng.bit_generator
    if name != type(bg).__name__:
        raise CheckpointMismatchError(
            f"checkpoint recorded RNG {name!r} but this run uses "
            f"{type(bg).__name__!r}"
        )
    bg.state = state


def _swap_fingerprint(graph, iterations, config, space, probing) -> str:
    """Resume-compatibility fingerprint of a :func:`swap_edges` run.

    Hashes the input edge list plus every parameter that pins the output
    bits (seed, logical threads, iteration budget, space, probing) —
    and nothing that doesn't (the backend), so a checkpoint taken on one
    backend resumes on the other.
    """
    h = hashlib.sha256()
    h.update(np.int64(graph.n).tobytes())
    h.update(np.ascontiguousarray(graph.u).tobytes())
    h.update(np.ascontiguousarray(graph.v).tobytes())
    return run_fingerprint(
        kind="swap",
        edges_sha256=h.hexdigest(),
        m=int(graph.m),
        iterations=int(iterations),
        seed=repr(config.seed),
        threads=int(config.threads),
        space=space,
        probing=probing,
    )


def _load_swap_resume(source, fingerprint: str, m: int) -> _SwapResume | None:
    """Decode mid-swap state from a snapshot/store; ``None`` = start fresh.

    ``source`` may be a :class:`~repro.core.checkpoint.Checkpoint`
    already loaded by a caller, a :class:`CheckpointStore`, or a path.
    Snapshots of earlier phases (``probabilities``/``edges``) yield
    ``None`` — the chain simply starts at round 0.  A swap snapshot that
    does not fit the input graph raises
    :class:`~repro.core.checkpoint.CheckpointMismatchError`.
    """
    if isinstance(source, Checkpoint):
        snap = source
        if fingerprint and snap.fingerprint != fingerprint:
            raise CheckpointMismatchError(
                "checkpoint belongs to a different run; refusing to resume"
            )
    else:
        store = as_store(source)
        snap = store.load_latest(fingerprint=fingerprint or None)
    if snap is None or snap.phase != "swap":
        return None
    u = snap.arrays.get("u")
    v = snap.arrays.get("v")
    swapped = snap.arrays.get("swapped")
    rng_state = snap.meta.get("rng_state")
    if u is None or v is None or swapped is None or rng_state is None:
        raise CheckpointMismatchError("swap snapshot is missing required state")
    if len(u) != m or len(v) != m or len(swapped) != m:
        raise CheckpointMismatchError(
            f"swap snapshot holds {len(u)} edges but the input graph has {m}"
        )
    return _SwapResume(
        start_iteration=int(snap.swap_round),
        u=np.ascontiguousarray(u, dtype=np.int64),
        v=np.ascontiguousarray(v, dtype=np.int64),
        swapped=np.ascontiguousarray(swapped, dtype=bool),
        rng_state=rng_state,
        stats=_stats_from_meta(snap.meta.get("stats")),
        phase_seconds={
            str(k): float(s)
            for k, s in (snap.meta.get("phase_seconds") or {}).items()
        },
    )


class _SwapCheckpointer:
    """Writes iteration-boundary snapshots into a checkpoint store.

    ``timing_base`` is the cumulative per-phase seconds accrued *before*
    this chain entered its loop — earlier phases of the current run plus
    everything a resumed snapshot had already banked.  Every snapshot
    persists ``timing_base + {swap: elapsed-since-construction}`` so a
    later resume can report honest cumulative timings
    (see :class:`~repro.core.generate.GenerationReport`).

    With ``verify != "off"`` every snapshot is validated *before* it is
    written (bounds + degree preservation at cheap-tier cost — loops and
    duplicates are legal mid-chain for multigraph inputs, so structural
    simplicity is not asserted here).  A corrupt in-memory state then
    raises instead of poisoning the durable history the repair paths
    roll back to.
    """

    def __init__(self, store, every: int, fingerprint: str, total: int,
                 *, timing_base: dict | None = None, verify: str = "off",
                 n_vertices: int = 0, degrees=None) -> None:
        self.store = store
        self.every = int(every)
        self.fingerprint = fingerprint
        self.total = int(total)
        self.timing_base = {k: float(s) for k, s in (timing_base or {}).items()}
        self.verify = verify
        self.n_vertices = int(n_vertices)
        self.degrees = degrees
        self._t0 = time.perf_counter()

    def cumulative_phase_seconds(self) -> dict:
        """``timing_base`` plus the swap seconds elapsed so far."""
        phase_seconds = dict(self.timing_base)
        phase_seconds["swap"] = (
            phase_seconds.get("swap", 0.0) + time.perf_counter() - self._t0
        )
        return phase_seconds

    def after_round(self, it, u, v, swapped, rng, stats) -> None:
        """Snapshot after iteration ``it`` when the cadence says so.

        The final round is always snapshotted so a resumed-after-finish
        run short-circuits; intermediate rounds follow ``every``.
        """
        done = it + 1
        if done % self.every and done != self.total:
            return
        if self.verify != "off":
            from repro.verify import verify_graph

            verify_graph(
                u, v, self.n_vertices, degrees=self.degrees, tier="cheap",
                check_loops=False, check_duplicates=False,
                label="checkpoint",
            )
        self.store.save(
            "swap",
            swap_round=done,
            arrays={"u": u, "v": v, "swapped": swapped},
            meta={
                "rng_state": rng.bit_generator.state,
                "stats": _stats_to_meta(stats),
                "phase_seconds": self.cumulative_phase_seconds(),
            },
            fingerprint=self.fingerprint,
        )


def _maybe_span(name: str, **attrs):
    """A trace span when tracing is on, else a no-op context manager."""
    tr = obs_trace.current()
    return tr.span(name, **attrs) if tr is not None else contextlib.nullcontext()


def swap_edges(
    graph: EdgeList,
    iterations: int,
    config: ParallelConfig | None = None,
    *,
    probing: str = "linear",
    space: str = "simple",
    stats: SwapStats | None = None,
    cost: CostModel | None = None,
    callback=None,
    mixing_every: int = 0,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume_from=None,
    _fingerprint: str | None = None,
    _timing_base: dict | None = None,
) -> EdgeList:
    """Run ``iterations`` full parallel swap iterations over ``graph``.

    Parameters
    ----------
    graph:
        Input edge list (may contain self loops / multi-edges; they can
        only be destroyed, never created — in the default space).
    iterations:
        Number of full passes (each pass proposes ~m/2 swaps).
    probing:
        Hash-table probing scheme, ``"linear"`` or ``"quadratic"``.
    space:
        The null-model space [16] the chain walks in:

        - ``"simple"`` (default) — no self loops, no multi-edges; the
          paper's setting.
        - ``"loopy"`` — self loops allowed, multi-edges rejected.
        - ``"multigraph"`` — multi-edges allowed, self loops rejected.
        - ``"loopy_multigraph"`` — every proposal accepted (the chain
          mixes over all stub matchings; no hash table needed).
    stats:
        Optional :class:`SwapStats` accumulator.
    cost:
        Optional cost model; receives per-iteration ``"permutation"`` and
        ``"swap"`` phases.
    callback:
        Optional ``callback(iteration, edge_list)`` invoked after every
        iteration — used by the mixing experiments to snapshot
        convergence without re-running.
    mixing_every:
        When > 0, sample mixing diagnostics (degree assortativity,
        clustering proxy, edge overlap with the start graph — see
        :mod:`repro.obs.mixing`) every ``mixing_every`` iterations; the
        trajectory lands in ``stats.mixing``.  Requires ``stats``.
    checkpoint_dir:
        Directory (or :class:`~repro.core.checkpoint.CheckpointStore`)
        receiving crash-consistent snapshots.  Requires
        ``checkpoint_every > 0``.
    checkpoint_every:
        Snapshot cadence in iterations.  Snapshots land at iteration
        boundaries — the only points where the hash table is a pure
        function of the edge array — so no table state is ever
        serialized, and a snapshot taken on one backend resumes on the
        other.
    resume_from:
        A checkpoint store/directory (or an already-loaded
        :class:`~repro.core.checkpoint.Checkpoint`) to resume from.  The
        snapshot's fingerprint must match this run's input + seed +
        parameters; mismatches raise
        :class:`~repro.core.checkpoint.CheckpointMismatchError`.  A
        store with no swap snapshot starts from round 0.  The resumed
        run is bitwise-identical to an uninterrupted one.

    Returns
    -------
    EdgeList
        A new edge list with the same degree sequence.
    """
    config = config or ParallelConfig()
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    spaces = ("simple", "loopy", "multigraph", "loopy_multigraph")
    if space not in spaces:
        raise ValueError(f"space must be one of {spaces}, got {space!r}")
    check_duplicates = space in ("simple", "loopy")
    check_loops = space in ("simple", "multigraph")
    m = len(graph.u)

    probe = None
    if mixing_every:
        if stats is None:
            raise ValueError("mixing_every requires a stats accumulator")
        probe = MixingProbe(graph, every=mixing_every)
        callback = probe.callback(callback)
        stats.mixing = probe.trajectory

    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if checkpoint_every and checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    if checkpoint_dir is not None and not checkpoint_every:
        raise ValueError("checkpoint_dir requires checkpoint_every > 0")
    store = as_store(checkpoint_dir) if checkpoint_dir is not None else None
    # the degree sequence every swap preserves: the checkpointer validates
    # each snapshot against it and the loop the final output
    target_degrees = None
    if config.verify != "off" and m:
        target_degrees = np.bincount(graph.u, minlength=graph.n) + np.bincount(
            graph.v, minlength=graph.n
        )
    ckpt = None
    resume_state = None
    fingerprint = ""
    if store is not None or resume_from is not None:
        fingerprint = _fingerprint or _swap_fingerprint(
            graph, iterations, config, space, probing
        )
        if resume_from is not None:
            resume_state = _load_swap_resume(resume_from, fingerprint, m)
        if store is not None:
            # snapshots persist cumulative timings: the caller's base
            # (generate_graph threads earlier phases + any resumed prior
            # through ``_timing_base``) or, standalone, whatever the
            # resumed snapshot had already banked
            if _timing_base is not None:
                base = _timing_base
            elif resume_state is not None:
                base = resume_state.phase_seconds
            else:
                base = None
            ckpt = _SwapCheckpointer(
                store, checkpoint_every, fingerprint, iterations,
                timing_base=base, verify=config.verify,
                n_vertices=graph.n, degrees=target_degrees,
            )

    rng = config.generator()
    # the working arrays start from the resumed snapshot, else the input
    if resume_state is not None:
        u_src, v_src = resume_state.u, resume_state.v
        swapped_src = resume_state.swapped
    else:
        u_src, v_src, swapped_src = graph.u, graph.v, None
    run_store, window = _open_swap_store(config, m)
    if run_store is not None:
        u, v, swapped = _store_working_arrays(
            run_store, window, u_src, v_src, swapped_src, m
        )
    else:
        u = u_src.copy()
        v = v_src.copy()
        swapped = (
            np.zeros(m, dtype=bool) if swapped_src is None else swapped_src.copy()
        )
    n_pairs = m // 2
    start_it = 0
    # with checkpointing active, run against a run-local SwapStats so
    # snapshots carry exactly this run's cumulative counts even when the
    # caller reuses one accumulator across multiple swap_edges calls
    local = SwapStats() if ckpt is not None or resume_state is not None else None
    loop_stats = local if local is not None else stats
    if resume_state is not None:
        _restore_rng(rng, resume_state.rng_state)
        start_it = resume_state.start_iteration
        if loop_stats is not None:
            loop_stats.merge_from(resume_state.stats)
    # Both backends produce identical TestAndSet verdicts (set membership
    # with first-occurrence semantics), so outputs are bitwise identical
    # for a fixed seed: "vectorized" runs the flat table's batched round
    # protocol, "serial" its one-key-at-a-time reference.
    table = ConcurrentEdgeHashTable(2 * m + 16, probing=probing)
    tas = (
        table.test_and_set_serial
        if config.backend == "serial"
        else table.test_and_set
    )
    with _maybe_span("swap:chain", backend=config.backend,
                     iterations=iterations, m=m):
        u, v = _swap_loop(
            u, v, swapped, iterations, m, n_pairs, rng, config, table, tas,
            check_duplicates, check_loops, loop_stats, cost, callback, graph.n,
            start_iteration=start_it, checkpointer=ckpt,
            store=run_store, window=window, target_degrees=target_degrees,
        )
    tr = obs_trace.current()
    if tr is not None:
        record_table_stats(tr.metrics, table)
    if local is not None and stats is not None:
        stats.merge_from(local)
    if run_store is not None and tr is not None:
        # sample the mapped footprint while the store still owns it
        record_memory_stats(tr.metrics)
    return EdgeList(u, v, graph.n)


def _swap_loop(
    u, v, swapped, iterations, m, n_pairs, rng, config, table, tas,
    check_duplicates, check_loops, stats, cost, callback, n_vertices,
    *,
    start_iteration: int = 0,
    checkpointer=None,
    store=None,
    window: int = 0,
    target_degrees=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-iteration body of :func:`swap_edges` (backend-agnostic).

    ``start_iteration > 0`` re-enters the loop mid-chain from restored
    checkpoint state; the first resumed iteration always clears and
    re-registers, which reconstructs the hash table exactly.

    The registration keys are *maintained*, not recomputed: ``keys``
    holds ``pack_edges(u, v)`` from its first use onward, permuted
    alongside the edge arrays and patched per accepted swap (whose g/h
    keys the proposal phase already packed), so each iteration's
    registration reuses the array instead of re-packing all ``m`` edges.

    With a spill ``store``, the permutation runs *windowed*: instead of
    one whole-array fancy-index copy per array, each array is gathered
    window by window into a store-backed twin and the references are
    swapped (ping-pong), so at most one destination window's pages are
    dirtied at a time and the OS can evict everything else.  The
    gathered values are exactly ``arr[order]`` and the PCG64 stream that
    produced ``order`` is untouched, so windowed rounds are
    bitwise-identical to in-RAM rounds.  The proposal phase stays
    whole-batch — its TestAndSet ordering (all g keys, then the
    surviving h keys) is what pins the verdict stream — so its O(m/2)
    temporaries are a transient RAM cost per iteration, by design.
    """
    windowed = store is not None
    pong: dict[str, np.ndarray] = {}  # spare twin per array name

    # Integrity tier (repro.verify): the output must keep
    # ``target_degrees``, and it must be loop/duplicate-free when the
    # *input* already was — swaps preserve degrees unconditionally but
    # can only destroy loops and duplicates.
    tier = config.verify
    clean_loops = False
    clean_dups = False
    if tier != "off" and m:
        clean_loops = check_loops and not bool((u == v).any())
        if tier == "full" and check_duplicates:
            k0 = np.sort(pack_edges(u, v))
            clean_dups = not bool((k0[1:] == k0[:-1]).any())
            del k0
    guard = None
    guard_sealed = False
    if windowed and tier != "off":
        guard = ChunkGuard(window=window)

    def _permuted(name: str, arr: np.ndarray, order: np.ndarray) -> np.ndarray:
        if not windowed:
            return arr[order]
        spare = pong.get(name)
        if spare is None:
            spare = store.empty(m, arr.dtype)
        permute_into(spare, arr, order, window)
        pong[name] = arr  # the source becomes next round's gather target
        return spare

    keys = None  # maintained pack_edges(u, v); built lazily at first use
    for it in range(start_iteration, iterations):
        t0 = time.perf_counter()
        if guard is not None and guard_sealed:
            # spill-resident rounds: re-verify the windows sealed at the
            # end of the previous round before trusting their contents
            for name, arr in (("u", u), ("v", v), ("swapped", swapped), ("keys", keys)):
                if arr is not None:
                    guard.check(name, arr)
        table.clear()
        attempts_before = table.stats.attempts
        failures_before = table.stats.failures
        # Phase 1: register all current edges (duplicate-checked spaces).
        if check_duplicates:
            if keys is None:
                if windowed:
                    # build the maintained keys store-backed, one window
                    # at a time (pack_edges is elementwise, so the values
                    # match a whole-array pack exactly)
                    keys = store.empty(m, np.int64)
                    for lo in range(0, m, window):
                        hi = min(lo + window, m)
                        keys[lo:hi] = pack_edges(u[lo:hi], v[lo:hi])
                else:
                    keys = pack_edges(u, v)
            tas(keys)
            if tier == "full" and clean_dups:
                # immediately post-registration is the only point where
                # the table is exactly the current edge set (failed
                # proposals accrete stale keys later on); clean_dups
                # gates the multiset compare: a multigraph input still
                # being simplified registers duplicate keys the table
                # rightly stores once
                from repro.verify import verify_table_registration

                verify_table_registration(table, keys)

        # Phase 2: parallel permutation of the edge list.
        t_perm = time.perf_counter()
        perm_stats = PermutationStats()
        order = parallel_permutation(
            np.arange(m, dtype=np.int64),
            config.with_seed(int(rng.integers(0, 2**63))),
            stats=perm_stats,
        )
        u = _permuted("u", u, order)
        v = _permuted("v", v, order)
        swapped = _permuted("swapped", swapped, order)
        if keys is not None:
            keys = _permuted("keys", keys, order)
        perm_seconds = time.perf_counter() - t_perm

        # Phase 3: propose swaps on adjacent pairs.
        accepted = 0
        if n_pairs:
            eu, ev = u[0 : 2 * n_pairs : 2], v[0 : 2 * n_pairs : 2]
            fu, fv = u[1 : 2 * n_pairs : 2], v[1 : 2 * n_pairs : 2]
            coin = rng.random(n_pairs) < 0.5
            # g = {u, x}, h = {v, y}  or  g = {u, y}, h = {v, x}
            # (materialized copies: eu/ev are views into the arrays the
            # apply step mutates below)
            gu, gv = eu.copy(), np.where(coin, fu, fv)
            hu, hv = ev.copy(), np.where(coin, fv, fu)

            loop_g = gu == gv
            loop_h = hu == hv

            gk = None
            if check_duplicates:
                gk = pack_edges(gu, gv)
                g_present = tas(gk)
                # short-circuit: h only attempted when g was absent
                h_try = ~g_present
                h_present = np.ones(n_pairs, dtype=bool)
                if h_try.any():
                    h_present[h_try] = tas(pack_edges(hu[h_try], hv[h_try]))
            else:
                g_present = np.zeros(n_pairs, dtype=bool)
                h_present = np.zeros(n_pairs, dtype=bool)
            ok = ~g_present & ~h_present
            if check_loops:
                ok &= ~loop_g & ~loop_h

            idx = np.flatnonzero(ok)
            u[2 * idx] = gu[idx]
            v[2 * idx] = gv[idx]
            u[2 * idx + 1] = hu[idx]
            v[2 * idx + 1] = hv[idx]
            swapped[2 * idx] = True
            swapped[2 * idx + 1] = True
            if keys is not None and len(idx):
                # patch the maintained keys for accepted pairs only: the
                # g key is already packed; the accepted h keys (a subset
                # of h_try) are re-packed at O(accepted), not O(m)
                keys[2 * idx] = gk[idx]
                keys[2 * idx + 1] = pack_edges(hu[idx], hv[idx])
            accepted = len(idx)

            if stats is not None:
                stats.proposed += n_pairs
                stats.accepted += accepted
                # classify rejections: self loops take precedence in the
                # report; remaining failures are duplicate edges
                rej = ~ok
                if check_loops:
                    loops = rej & (loop_g | loop_h)
                else:
                    loops = np.zeros(n_pairs, dtype=bool)
                stats.rejected_self_loop += int(loops.sum())
                stats.rejected_duplicate += int((rej & ~loops).sum())

        if stats is not None:
            stats.iterations += 1
            stats.accepted_per_iteration.append(accepted)
            stats.swapped_fraction_per_iteration.append(
                float(swapped.mean()) if m else 0.0
            )
            # delta accumulation: a SwapStats object reused across
            # multiple swap_edges calls keeps the earlier runs' counts
            stats.table_attempts += table.stats.attempts - attempts_before
            stats.table_failures += table.stats.failures - failures_before
            stats.permutation_rounds += perm_stats.rounds
        if cost is not None:
            # the permutation and its gathers are timed on their own; the
            # rest of the round (registration, proposals, apply) is "swap"
            elapsed = time.perf_counter() - t0
            cost.add("permutation", work=float(perm_stats.attempts * 2), depth=float(perm_stats.rounds), seconds=perm_seconds)
            # the O(1) proposal span can exceed 2m ops only on degenerate
            # near-empty inputs; the span is capped by the work by definition
            swap_depth = min(float(2 * m), float(4 + (table.stats.failures - failures_before > 0)))
            cost.add("swap", work=float(2 * m), depth=swap_depth, seconds=elapsed - perm_seconds)
        tr = obs_trace.current()
        if tr is not None:
            tr.event(
                "swap.round",
                iteration=it,
                proposed=n_pairs,
                accepted=accepted,
                permutation_rounds=perm_stats.rounds,
                seconds=round(time.perf_counter() - t0, 9),
            )
            tr.metrics.inc("swap.rounds")
            tr.metrics.inc("swap.proposed", n_pairs)
            tr.metrics.inc("swap.accepted", accepted)
        if callback is not None:
            callback(it, EdgeList(u.copy(), v.copy(), n_vertices))
        if checkpointer is not None:
            checkpointer.after_round(it, u, v, swapped, rng, stats)
        if guard is not None:
            for name, arr in (("u", u), ("v", v), ("swapped", swapped), ("keys", keys)):
                if arr is not None:
                    guard.seal(name, arr)
            guard_sealed = True

    if tier != "off" and m:
        from repro.verify import verify_graph

        verify_graph(
            u, v, n_vertices, degrees=target_degrees, tier=tier,
            check_loops=clean_loops, check_duplicates=clean_dups,
            label="swap",
        )
    return u, v


def _pack_key(a: int, b: int) -> int:
    """Scalar :func:`pack_edges` on Python ints (smaller endpoint high).

    The MCMC inner loop packs four keys per step; going through
    single-element numpy arrays dominates its runtime, so the scalar hot
    path uses plain integer arithmetic with identical semantics.
    """
    return (a << 32) | b if a <= b else (b << 32) | a


def serial_swap_chain(
    graph: EdgeList,
    steps: int,
    rng=None,
    *,
    on_step=None,
) -> EdgeList:
    """Textbook sequential double-edge-swap MCMC.

    Each step draws an ordered pair of distinct edge slots uniformly,
    flips the orientation coin, and applies the swap iff both new edges
    are absent and loop-free (otherwise the chain *stays*, keeping the
    transition matrix symmetric and hence the stationary distribution
    uniform over the connected state space).  Used by the uniformity
    validation tests (Milo et al. [22] style).

    ``on_step(step, u, v)`` is called after every step when given.
    """
    rng = generator_from_seed(rng)
    u = graph.u.copy()
    v = graph.v.copy()
    m = len(u)
    if m < 2:
        return EdgeList(u, v, graph.n)
    edge_set = set(pack_edges(u, v).tolist())

    for step in range(steps):
        i = int(rng.integers(0, m))
        j = int(rng.integers(0, m - 1))
        if j >= i:
            j += 1
        a, b = int(u[i]), int(v[i])
        c, d = int(u[j]), int(v[j])
        if rng.random() < 0.5:
            g = (a, c)
            h = (b, d)
        else:
            g = (a, d)
            h = (b, c)
        if g[0] != g[1] and h[0] != h[1]:
            gk = _pack_key(g[0], g[1])
            hk = _pack_key(h[0], h[1])
            if gk != hk and gk not in edge_set and hk not in edge_set:
                edge_set.discard(_pack_key(a, b))
                edge_set.discard(_pack_key(c, d))
                edge_set.add(gk)
                edge_set.add(hk)
                u[i], v[i] = g
                u[j], v[j] = h
        if on_step is not None:
            on_step(step, u, v)

    return EdgeList(u, v, graph.n)
