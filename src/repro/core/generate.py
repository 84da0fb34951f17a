"""End-to-end generation from a degree distribution (Algorithm IV.1).

``GenerateGraph({D, N})`` composes the three phases:

1. ``P  ← GenerateProbabilities({D, N})``   (Section IV-A)
2. ``E  ← GenerateEdges(P, {D, N})``        (Section IV-B)
3. ``E' ← SwapEdges(E)``                    (Section III-A)

Each phase is a plain call; ``swap_edges`` ingests the generated edge
list into a fresh hash table.

:func:`generate_graph` returns the final edge list together with a
:class:`GenerationReport` carrying per-phase wall times (Figure 6), the
work/span cost model (scaling studies), and the swap statistics
(Section VIII-C).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import as_store, run_fingerprint
from repro.core.edge_skip import generate_edges
from repro.core.probabilities import ProbabilityResult, generate_probabilities
from repro.core.swap import (
    SwapStats,
    _maybe_span,
    _stats_from_meta,
    _stats_to_meta,
    swap_edges,
)
from repro.graph.degree import (
    DegreeDistribution,
    NonGraphicalError,
    graphicality_violation,
)
from repro.graph.edgelist import EdgeList
from repro.obs import trace as obs_trace
from repro.obs.metrics import record_memory_stats
from repro.parallel.cost_model import CostModel
from repro.parallel.runtime import ParallelConfig
from repro.verify import IntegrityError, verify_graph

__all__ = ["GenerationReport", "generate_graph", "generation_fingerprint"]


def generation_fingerprint(
    dist, swap_iterations, config, probability_kwargs=None
) -> str:
    """Resume-compatibility fingerprint of a :func:`generate_graph` run.

    One fingerprint covers every phase's snapshots: it pins the degree
    distribution, seed, logical thread count, swap budget, and the
    probability-heuristic options — but not the backend, so a run
    checkpointed on one backend resumes on the other.
    The serving layer (:mod:`repro.serve`) uses the same digest as its
    content-addressed result-cache key: two requests share a fingerprint
    exactly when an uninterrupted run would produce bitwise-identical
    output for both.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dist.degrees).tobytes())
    h.update(np.ascontiguousarray(dist.counts).tobytes())
    return run_fingerprint(
        kind="generate",
        dist_sha256=h.hexdigest(),
        swap_iterations=int(swap_iterations),
        seed=repr(config.seed),
        threads=int(config.threads),
        probability_kwargs=repr(sorted((probability_kwargs or {}).items())),
    )


def _merge_phase_seconds(base: dict, tail: dict) -> dict:
    """Per-phase sum of two timing dicts (cumulative accounting)."""
    out = {str(k): float(s) for k, s in base.items()}
    for k, s in tail.items():
        out[str(k)] = out.get(str(k), 0.0) + float(s)
    return out


def _sample_memory() -> None:
    """Sample the memory gauges at a phase boundary (traced runs only).

    ``mem.rss_peak`` and ``store.bytes_mapped`` land in the run's metrics
    registry and hence in the ``metrics.snapshot`` trace tail.
    """
    tr = obs_trace.current()
    if tr is not None:
        record_memory_stats(tr.metrics)


@dataclass
class GenerationReport:
    """Everything measured during one :func:`generate_graph` run."""

    dist: DegreeDistribution
    probabilities: ProbabilityResult
    swap_stats: SwapStats
    cost: CostModel
    #: wall seconds per phase — of *this process's* execution only; on a
    #: resumed run that is the replayed tail (see
    #: :attr:`prior_phase_seconds` / :attr:`cumulative_phase_seconds`)
    phase_seconds: dict = field(default_factory=dict)
    edges_generated: int = 0
    #: true end-to-end wall time measured around this :func:`generate_graph`
    #: call — on a resumed run, the tail only
    wall_seconds: float | None = None
    #: cumulative per-phase seconds banked by the interrupted run(s) this
    #: one resumed from (restored from the checkpoint); empty on a fresh run
    prior_phase_seconds: dict = field(default_factory=dict)
    #: the swap phase detected corruption (an ``IntegrityError``) and was
    #: replayed from the newest validated checkpoint; the replay is
    #: bitwise-identical — the output is unaffected, only the execution path
    degraded: bool = False
    #: this run resumed from a crash-consistent checkpoint (its
    #: ``phase_seconds``/``wall_seconds``/``cost`` cover only the replayed
    #: tail; ``cumulative_*`` fold in the interrupted attempts' spend; the
    #: edge list and swap statistics are those of the full run)
    resumed: bool = False

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of this call (the tail, when resumed)."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        return sum(self.phase_seconds.values())

    @property
    def cumulative_phase_seconds(self) -> dict:
        """Per-phase seconds summed over every attempt of this run.

        Prior attempts' spend (restored from the checkpoint) plus this
        call's tail.  A resumed process re-executes some work — e.g. it
        recomputes probabilities before loading a swap snapshot — and
        that spend is real, so phases may be counted once per attempt.
        """
        return _merge_phase_seconds(self.prior_phase_seconds, self.phase_seconds)

    @property
    def cumulative_seconds(self) -> float:
        """Total seconds across every attempt: banked prior + this call."""
        return sum(self.prior_phase_seconds.values()) + self.total_seconds


def generate_graph(
    dist: DegreeDistribution,
    *,
    swap_iterations: int = 10,
    config: ParallelConfig | None = None,
    probabilities: ProbabilityResult | None = None,
    probability_kwargs: dict | None = None,
    callback=None,
    mixing_every: int = 0,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> tuple[EdgeList, GenerationReport]:
    """Generate a simple uniformly random graph from ``{D, N}``.

    Parameters
    ----------
    dist:
        Target degree distribution.
    swap_iterations:
        Full double-edge-swap passes after generation.  The paper
        observes ~10 iterations suffice for all edges to swap and the
        attachment probabilities to reach steady state; 0 returns the
        biased (but simple) edge-skip output directly.
    probabilities:
        Pre-computed :class:`ProbabilityResult` to reuse across runs.
    probability_kwargs:
        Forwarded to :func:`~repro.core.probabilities.generate_probabilities`.
    callback:
        Forwarded to :func:`~repro.core.swap.swap_edges` (per-iteration
        snapshots for mixing studies).
    mixing_every:
        When > 0, sample swap-chain mixing diagnostics every that many
        iterations (see :mod:`repro.obs.mixing`); the trajectory lands in
        ``report.swap_stats.mixing`` and is bitwise-identical across
        backends for a fixed seed.
    checkpoint_dir:
        Directory (or :class:`~repro.core.checkpoint.CheckpointStore`)
        receiving crash-consistent snapshots at phase boundaries
        (probabilities → edges → swap → done) and, with
        ``checkpoint_every > 0``, every that-many swap iterations.
    checkpoint_every:
        Mid-swap snapshot cadence in iterations (0 = phase boundaries
        only).
    resume_from:
        Checkpoint store/directory of an interrupted run with the same
        inputs and seed; completed phases are skipped and the swap chain
        re-enters at the snapshotted round.  The resumed output is
        bitwise-identical to an uninterrupted run; fingerprint
        mismatches raise
        :class:`~repro.core.checkpoint.CheckpointMismatchError`.

    Raises
    ------
    NonGraphicalError
        If the degree distribution fails the Erdős–Gallai test — no
        simple graph realizes it, so the request is rejected at the
        boundary with the first violated prefix named instead of
        failing obscurely mid-sampling.

    Returns
    -------
    (EdgeList, GenerationReport)
    """
    config = config or ParallelConfig()
    tr = obs_trace.current()
    if tr is None:
        return _generate(
            dist, swap_iterations, config, probabilities, probability_kwargs,
            callback, mixing_every, checkpoint_dir, checkpoint_every,
            resume_from,
        )
    with tr.span(
        "generate", backend=config.backend, threads=config.threads,
        n=dist.n, swap_iterations=swap_iterations,
    ) as root:
        out, report = _generate(
            dist, swap_iterations, config, probabilities, probability_kwargs,
            callback, mixing_every, checkpoint_dir, checkpoint_every,
            resume_from,
        )
        root.set(
            degraded=report.degraded, resumed=report.resumed,
            edges=report.edges_generated,
        )
        tr.metrics.set_gauge("generate.edges", report.edges_generated)
        return out, report


def _generate(
    dist: DegreeDistribution,
    swap_iterations: int,
    config: ParallelConfig,
    probabilities: ProbabilityResult | None,
    probability_kwargs: dict | None,
    callback,
    mixing_every: int,
    checkpoint_dir,
    checkpoint_every: int,
    resume_from,
) -> tuple[EdgeList, GenerationReport]:
    """The untraced body of :func:`generate_graph` (same contract)."""
    violation = graphicality_violation(dist.expand())
    if violation is not None:
        raise NonGraphicalError(
            f"degree distribution is not graphical: {violation}"
        )
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    store = as_store(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_every and store is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    fingerprint = ""
    resume_snap = None
    if store is not None or resume_from is not None:
        fingerprint = generation_fingerprint(
            dist, swap_iterations, config, probability_kwargs
        )
        if resume_from is not None:
            resume_snap = as_store(resume_from).load_latest(
                fingerprint=fingerprint
            )
    cost = CostModel()
    phase_seconds: dict[str, float] = {}
    # cumulative spend the interrupted run(s) banked in the snapshot; the
    # tail's own timings stay separate so the report can show both
    prior_phase_seconds: dict[str, float] = {}
    if resume_snap is not None:
        prior_phase_seconds = {
            str(k): float(s)
            for k, s in (resume_snap.meta.get("phase_seconds") or {}).items()
        }
    wall0 = time.perf_counter()

    t0 = time.perf_counter()
    with _maybe_span("phase:probabilities"):
        if probabilities is None:
            probabilities = generate_probabilities(
                dist, cost=cost, **(probability_kwargs or {})
            )
    phase_seconds["probabilities"] = time.perf_counter() - t0
    if cost.phases and cost.phases[-1].name == "probabilities":
        cost.phases[-1].seconds = phase_seconds["probabilities"]
    _sample_memory()

    if resume_snap is not None and resume_snap.phase == "done":
        # the interrupted run had already finished and snapshotted its
        # result; hand it back without regenerating anything
        out = EdgeList(
            np.ascontiguousarray(resume_snap.arrays["u"], dtype=np.int64),
            np.ascontiguousarray(resume_snap.arrays["v"], dtype=np.int64),
            dist.n,
        )
        swap_stats = _stats_from_meta(resume_snap.meta.get("stats"))
        return out, GenerationReport(
            dist=dist,
            probabilities=probabilities,
            swap_stats=swap_stats,
            cost=cost,
            phase_seconds=phase_seconds,
            edges_generated=int(resume_snap.meta.get("edges_generated", out.m)),
            wall_seconds=time.perf_counter() - wall0,
            prior_phase_seconds=prior_phase_seconds,
            resumed=True,
        )

    if store is not None and resume_snap is None:
        # phase snapshots are written only on a fresh run: a resumed run
        # must never let an earlier-phase snapshot outrank (and prune)
        # the later-phase one it is resuming from.  This one records the
        # phase marker and timings only: every run recomputes P
        store.save(
            "probabilities",
            meta={"phase_seconds": dict(phase_seconds)},
            fingerprint=fingerprint,
        )

    degraded = False
    resuming = resume_snap is not None and resume_snap.phase in ("edges", "swap")
    t0 = time.perf_counter()
    with _maybe_span("phase:edge_generation", resumed=resuming):
        if resuming:
            edges = EdgeList(
                np.ascontiguousarray(resume_snap.arrays["u"], dtype=np.int64),
                np.ascontiguousarray(resume_snap.arrays["v"], dtype=np.int64),
                dist.n,
            )
        else:
            edges = generate_edges(probabilities.P, dist, config, cost=cost)
    phase_seconds["edge_generation"] = time.perf_counter() - t0
    if cost.phases and cost.phases[-1].name == "edge_generation":
        cost.phases[-1].seconds = phase_seconds["edge_generation"]
    _sample_memory()
    if config.verify != "off" and edges.m:
        # phase-boundary check: endpoint bounds only — the edge-skip
        # output's simplicity and the degree contract are the swap
        # phase's invariants, asserted there
        verify_graph(
            edges.u, edges.v, dist.n, tier=config.verify,
            check_loops=False, check_duplicates=False, label="edges",
        )
    if store is not None and not resuming:
        store.save(
            "edges",
            arrays={"u": edges.u, "v": edges.v},
            meta={"phase_seconds": dict(phase_seconds)},
            fingerprint=fingerprint,
        )

    t0 = time.perf_counter()
    swap_stats = SwapStats()
    with _maybe_span("phase:swap"):
        swap_kwargs = dict(
            cost=cost,
            callback=callback,
            mixing_every=mixing_every,
            # mid-swap snapshots need a cadence; the phase snapshots
            # around the swap go to the store either way
            checkpoint_dir=store if checkpoint_every else None,
            checkpoint_every=checkpoint_every,
            _fingerprint=fingerprint or None,
            # mid-swap snapshots bank cumulative spend: the prior runs'
            # plus this tail's earlier phases
            _timing_base=_merge_phase_seconds(prior_phase_seconds, phase_seconds),
        )
        try:
            out = swap_edges(
                edges,
                swap_iterations,
                config,
                stats=swap_stats,
                resume_from=(
                    resume_snap
                    if resume_snap is not None and resume_snap.phase == "swap"
                    else None
                ),
                **swap_kwargs,
            )
        except IntegrityError:
            if store is None:
                raise
            # quarantine-and-repair: the whole attempt's in-memory state
            # is suspect, but its durable snapshots were validated before
            # being written (and are digest-checked at load) — replay
            # once from the newest one.  A second detection propagates.
            tr = obs_trace.current()
            if tr is not None:
                tr.event("integrity.swap_retry", fingerprint=fingerprint)
                tr.metrics.inc("integrity.repairs")
            degraded = True
            swap_stats = SwapStats()
            out = swap_edges(
                edges,
                swap_iterations,
                config,
                stats=swap_stats,
                resume_from=store,
                **swap_kwargs,
            )
    phase_seconds["swap"] = time.perf_counter() - t0
    _sample_memory()
    if store is not None:
        store.save(
            "done",
            arrays={"u": out.u, "v": out.v},
            meta={
                "stats": _stats_to_meta(swap_stats),
                "edges_generated": edges.m,
                "phase_seconds": _merge_phase_seconds(
                    prior_phase_seconds, phase_seconds
                ),
            },
            fingerprint=fingerprint,
        )

    report = GenerationReport(
        dist=dist,
        probabilities=probabilities,
        swap_stats=swap_stats,
        cost=cost,
        phase_seconds=phase_seconds,
        edges_generated=edges.m,
        wall_seconds=time.perf_counter() - wall0,
        prior_phase_seconds=prior_phase_seconds,
        degraded=degraded,
        resumed=resume_snap is not None,
    )
    return out, report
