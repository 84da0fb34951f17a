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
from repro.core.swap import SwapStats, _checkpoint_store, _maybe_span, swap_edges
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
    dist, swap_iterations, config, probabilities=None
) -> str:
    """Resume-compatibility fingerprint of a :func:`generate_graph` run.

    It pins the degree distribution, seed, swap budget, and the bytes of
    the class-pair probabilities ``P``: those of ``probabilities`` (a
    :class:`~repro.core.probabilities.ProbabilityResult`), or of the
    default heuristic's when it is ``None``.  The logical thread count
    changes no output, so it is left out.  Two runs share a fingerprint
    exactly when an uninterrupted run would produce bitwise-identical
    output for both.

    Raises ``ValueError`` for ``config.seed=None`` or a
    ``numpy.random.Generator`` seed: the first draws fresh entropy and
    the second a stream that every call advances, so no other run
    reproduces either.
    """
    _require_seed(config)
    if probabilities is None:
        probabilities = generate_probabilities(dist)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dist.degrees).tobytes())
    h.update(np.ascontiguousarray(dist.counts).tobytes())
    return run_fingerprint(
        kind="generate",
        dist_sha256=h.hexdigest(),
        p_sha256=hashlib.sha256(
            np.ascontiguousarray(probabilities.P, dtype=np.float64).tobytes()
        ).hexdigest(),
        swap_iterations=int(swap_iterations),
        seed=repr(config.seed),
    )


def _require_seed(config: ParallelConfig) -> None:
    """Refuse a run no other run reproduces where its output must be."""
    if config.seed is None:
        raise ValueError(
            "an unseeded generate_graph run has no fingerprint: with "
            "seed=None every call draws fresh entropy, so no other run, "
            "a resume included, reproduces it"
        )
    if isinstance(config.seed, np.random.Generator):
        raise ValueError(
            "a generate_graph run seeded with a Generator has no "
            "fingerprint: every call advances its stream, so no other "
            "run, a resume included, reproduces it"
        )


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
    #: wall seconds per phase of this call; on a resumed run the swap
    #: phase covers only the rounds after the snapshot
    phase_seconds: dict = field(default_factory=dict)
    edges_generated: int = 0
    #: true end-to-end wall time measured around this :func:`generate_graph`
    #: call
    wall_seconds: float | None = None
    #: the swap phase detected corruption (an ``IntegrityError``) and was
    #: replayed from the newest validated checkpoint; the replay is
    #: bitwise-identical — the output is unaffected, only the execution path
    degraded: bool = False
    #: the swap chain re-entered from a crash-consistent checkpoint (its
    #: ``phase_seconds``/``wall_seconds``/``cost`` cover this call only;
    #: the edge list and swap statistics are those of the full run)
    resumed: bool = False

    @property
    def total_seconds(self) -> float:
        """End-to-end wall time of this call."""
        if self.wall_seconds is not None:
            return self.wall_seconds
        return sum(self.phase_seconds.values())


def generate_graph(
    dist: DegreeDistribution,
    *,
    swap_iterations: int = 10,
    config: ParallelConfig | None = None,
    probabilities: ProbabilityResult | None = None,
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
        Pre-computed :class:`ProbabilityResult` to reuse across runs, or
        one computed with non-default heuristic options, e.g.
        ``generate_probabilities(dist, passes=2)``.
    callback:
        Forwarded to :func:`~repro.core.swap.swap_edges` (per-iteration
        snapshots for mixing studies).
    mixing_every:
        When > 0, sample swap-chain mixing diagnostics every that many
        iterations (see :mod:`repro.obs.mixing`); the trajectory lands in
        ``report.swap_stats.mixing`` and is a pure function of the
        swap chain's graphs.
    checkpoint_dir:
        Directory (or :class:`~repro.core.checkpoint.CheckpointStore`)
        receiving the swap chain's crash-consistent snapshots.  Requires
        ``checkpoint_every > 0`` and a seed.
    checkpoint_every:
        Swap snapshot cadence in iterations; the final iteration is
        always snapshotted.
    resume_from:
        Checkpoint store/directory of an interrupted run with the same
        inputs, probabilities and seed (see
        :func:`generation_fingerprint`).  Probabilities and edges are
        recomputed (they are a pure function of the inputs) and the swap
        chain re-enters at the snapshotted round.  The resumed output is
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
    ValueError
        If only one of ``checkpoint_dir`` and ``checkpoint_every`` is
        given, or if ``checkpoint_dir`` or ``resume_from`` is given
        without a seed (both checked before any phase runs).

    Returns
    -------
    (EdgeList, GenerationReport)
    """
    config = config or ParallelConfig()
    tr = obs_trace.current()
    if tr is None:
        return _generate(
            dist, swap_iterations, config, probabilities, callback,
            mixing_every, checkpoint_dir, checkpoint_every, resume_from,
        )
    with tr.span(
        "generate", threads=config.threads, n=dist.n,
        swap_iterations=swap_iterations,
    ) as root:
        out, report = _generate(
            dist, swap_iterations, config, probabilities, callback,
            mixing_every, checkpoint_dir, checkpoint_every, resume_from,
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
    store = _checkpoint_store(checkpoint_dir, checkpoint_every)
    durable = store is not None or resume_from is not None
    if durable:
        _require_seed(config)
    cost = CostModel()
    phase_seconds: dict[str, float] = {}
    wall0 = time.perf_counter()

    t0 = time.perf_counter()
    with _maybe_span("phase:probabilities"):
        if probabilities is None:
            probabilities = generate_probabilities(dist, cost=cost)
    phase_seconds["probabilities"] = time.perf_counter() - t0
    if cost.phases and cost.phases[-1].name == "probabilities":
        cost.phases[-1].seconds = phase_seconds["probabilities"]
    _sample_memory()

    fingerprint = None
    resume_snap = None
    if durable:
        fingerprint = generation_fingerprint(
            dist, swap_iterations, config, probabilities
        )
        if resume_from is not None:
            resume_snap = as_store(resume_from).load_latest(
                fingerprint=fingerprint
            )

    t0 = time.perf_counter()
    with _maybe_span("phase:edge_generation"):
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

    degraded = False
    t0 = time.perf_counter()
    swap_stats = SwapStats()
    with _maybe_span("phase:swap"):
        swap_kwargs = dict(
            cost=cost,
            callback=callback,
            mixing_every=mixing_every,
            checkpoint_dir=store,
            checkpoint_every=checkpoint_every,
            _fingerprint=fingerprint,
        )
        try:
            out = swap_edges(
                edges,
                swap_iterations,
                config,
                stats=swap_stats,
                resume_from=resume_snap,
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

    report = GenerationReport(
        dist=dist,
        probabilities=probabilities,
        swap_stats=swap_stats,
        cost=cost,
        phase_seconds=phase_seconds,
        edges_generated=edges.m,
        wall_seconds=time.perf_counter() - wall0,
        degraded=degraded,
        resumed=resume_snap is not None,
    )
    return out, report
