"""Job specifications, admission validation, and typed serving errors.

A serving request is a :class:`JobSpec`: a pure-data description of one
null-model generation — either ``kind="generate"`` (a degree
distribution to realize, Algorithm IV.1 end-to-end) or ``kind="swap"``
(an existing edge list to randomize, Algorithm III.1).  Specs are
JSON-round-trippable (:meth:`JobSpec.to_dict` /
:meth:`JobSpec.from_dict`) so a draining broker can checkpoint its
pending queue to disk and a restarted broker can resubmit it.

Admission (:func:`admit`) runs *every* input guard the pipeline already
has, before the job can touch a queue or a pool:

- degree inputs go through :class:`~repro.graph.degree.DegreeDistribution`
  construction and the Erdős–Gallai gate
  (:func:`~repro.graph.degree.graphicality_violation`), so an impossible
  distribution is rejected naming the first violated prefix;
- edge-list text goes through the tolerant line-numbered parser
  (:func:`~repro.graph.io.parse_edge_list_text`), so a malformed payload
  is rejected with its offending line number.

Every rejection is an :class:`AdmissionError` — one of the typed
:class:`ServeError` family, each carrying a machine-readable ``reason``
and a ``to_dict()`` rendering, so clients branch on structure instead of
parsing messages.

The admitted :class:`Job` carries the run's **content-addressed
fingerprint**: for generate jobs this is exactly
:func:`~repro.core.generate.generation_fingerprint` — the digest the
checkpoint subsystem stamps into snapshots — so the broker's result
cache and single-flight table key the same identity: under the broker's
fixed backend, two requests share a fingerprint precisely when their
uninterrupted runs would be bitwise-identical.  (The digest deliberately
excludes the backend, matching the checkpoint-resume semantic; a broker
runs every job on its one configured backend.)
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.checkpoint import run_fingerprint
from repro.core.generate import generation_fingerprint
from repro.graph.degree import DegreeDistribution, graphicality_violation
from repro.graph.edgelist import EdgeList, EdgeListFormatError
from repro.graph.io import parse_edge_list_text

__all__ = [
    "PRIORITIES",
    "KINDS",
    "ServeError",
    "AdmissionError",
    "ShedError",
    "DeadlineError",
    "RetriesExhaustedError",
    "JobSpec",
    "Job",
    "JobResult",
    "admit",
]

#: Queue priorities, highest first; dispatchers always drain in this order.
PRIORITIES = ("high", "normal", "low")

#: Supported job kinds.
KINDS = ("generate", "swap")


class ServeError(Exception):
    """Base of every typed serving failure.

    ``reason`` is a stable machine-readable tag; ``details`` carries
    structured context (queue depth, deadline, offending line number).
    """

    reason = "error"

    def __init__(self, message: str, **details) -> None:
        super().__init__(message)
        self.details = details

    def to_dict(self) -> dict:
        """JSON-safe rendering clients can branch on."""
        return {
            "error": type(self).__name__,
            "reason": self.reason,
            "message": str(self),
            **self.details,
        }


class AdmissionError(ServeError):
    """The request failed validation and was rejected at admission.

    Wraps the library's own input guards: a non-graphical degree
    distribution (``details["violation"]`` names the failed Erdős–Gallai
    prefix), a malformed edge-list payload (``details["line"]`` is the
    1-based offending line), or a structurally invalid spec.
    """

    reason = "invalid"


class ShedError(ServeError):
    """The request was refused without being run (backpressure).

    ``details["cause"]`` is ``"queue_full"`` (the bounded priority queue
    is at capacity — retry later, ideally with backoff) or
    ``"draining"`` (the broker is shutting down; with a drain directory
    configured the job spec was checkpointed for resubmission,
    ``details["checkpointed"]``).
    """

    reason = "shed"


class DeadlineError(ServeError):
    """The caller's deadline elapsed before a result was available.

    The *wait* is what the deadline bounds: a run already in flight for
    the same fingerprint continues and its result still lands in the
    cache, so an identical retry is typically a cache hit.
    """

    reason = "deadline"


class RetriesExhaustedError(ServeError):
    """Every attempt within the job's retry budget failed.

    ``details["attempts"]`` counts tries; ``details["last"]`` reproduces
    the final attempt's error.
    """

    reason = "retries"


@dataclass
class JobSpec:
    """One serving request, as pure JSON-safe data.

    Exactly one input form must be populated: ``degrees``+``counts`` or
    ``degree_sequence`` for ``kind="generate"``; ``edges_text`` or
    ``u``+``v`` for ``kind="swap"``.
    """

    kind: str = "generate"
    #: generate inputs — unique degrees + vertex counts, or a raw
    #: per-vertex degree sequence (collapsed at admission)
    degrees: tuple = ()
    counts: tuple = ()
    degree_sequence: tuple = ()
    #: swap inputs — a text edge list (SNAP interchange format, parsed
    #: with the tolerant line-numbered parser) or endpoint arrays
    edges_text: str | None = None
    u: tuple = ()
    v: tuple = ()
    n: int | None = None
    #: run parameters (output-affecting: part of the fingerprint)
    seed: int = 0
    swap_iterations: int = 10
    #: serving parameters (scheduling only: not part of the fingerprint)
    priority: str = "normal"
    deadline: float | None = None  #: seconds; None = broker default
    max_retries: int | None = None  #: None = broker default
    #: integrity tier for this job's run ("off"/"cheap"/"full"); None =
    #: the broker config's tier.  Verification never changes the output
    #: bits — it only detects when they are wrong — so the tier is a
    #: scheduling parameter, deliberately outside the fingerprint: a
    #: verified run and an unverified one share a cache entry.
    verify: str | None = None

    def __post_init__(self) -> None:
        self.degrees = tuple(int(d) for d in self.degrees)
        self.counts = tuple(int(c) for c in self.counts)
        self.degree_sequence = tuple(int(d) for d in self.degree_sequence)
        self.u = tuple(int(x) for x in self.u)
        self.v = tuple(int(x) for x in self.v)

    def to_dict(self) -> dict:
        """JSON-safe dump (the drain checkpoint format)."""
        out = asdict(self)
        for key in ("degrees", "counts", "degree_sequence", "u", "v"):
            out[key] = list(out[key])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        if not isinstance(data, dict):
            raise AdmissionError(f"job spec must be an object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise AdmissionError(f"unknown job spec fields {sorted(unknown)}")
        return cls(**data)


@dataclass
class Job:
    """An admitted request: validated payload + content-addressed identity."""

    spec: JobSpec
    fingerprint: str
    #: validated payload — exactly one is set, matching ``spec.kind``
    dist: DegreeDistribution | None = None
    graph: EdgeList | None = None

    @property
    def kind(self) -> str:
        return self.spec.kind


@dataclass
class JobResult:
    """What a completed submission hands back to the caller."""

    graph: EdgeList
    fingerprint: str
    #: served straight from the result cache (no queueing at all)
    cache_hit: bool = False
    #: coalesced onto an identical in-flight run (single-flight)
    coalesced: bool = False
    #: attempts the producing run took (1 = first try; 0 for pure cache
    #: hits whose producing run predates this broker's bookkeeping)
    attempts: int = 1
    #: end-to-end seconds this caller waited
    total_seconds: float = 0.0
    #: producing run's stats (edges, attempts, run_seconds, kind)
    run: dict = field(default_factory=dict)


def _require(condition: bool, message: str, **details) -> None:
    if not condition:
        raise AdmissionError(message, **details)


def _admit_generate(spec: JobSpec) -> DegreeDistribution:
    """Validate generate inputs; the Erdős–Gallai gate runs *here*."""
    has_classes = bool(spec.degrees or spec.counts)
    has_sequence = bool(spec.degree_sequence)
    _require(
        has_classes != has_sequence,
        "generate jobs need exactly one of degrees+counts or degree_sequence",
    )
    try:
        if has_sequence:
            dist = DegreeDistribution.from_degree_sequence(spec.degree_sequence)
        else:
            dist = DegreeDistribution(spec.degrees, spec.counts)
    except ValueError as exc:
        raise AdmissionError(f"invalid degree distribution: {exc}") from exc
    violation = graphicality_violation(dist.expand())
    if violation is not None:
        # same gate generate_graph applies at its own boundary — fired at
        # admission so the request never occupies a queue slot or pool
        raise AdmissionError(
            f"degree distribution is not graphical: {violation}",
            violation=violation,
        )
    return dist


def _admit_swap(spec: JobSpec) -> EdgeList:
    """Validate swap inputs via the tolerant line-numbered parser."""
    has_text = spec.edges_text is not None
    has_arrays = bool(spec.u or spec.v)
    _require(
        has_text != has_arrays,
        "swap jobs need exactly one of edges_text or u+v arrays",
    )
    try:
        if has_text:
            graph = parse_edge_list_text(spec.edges_text, path="<request>")
        else:
            graph = EdgeList(
                np.asarray(spec.u, dtype=np.int64),
                np.asarray(spec.v, dtype=np.int64),
                spec.n,
            )
    except EdgeListFormatError as exc:
        raise AdmissionError(
            f"malformed edge list: {exc}", line=exc.line
        ) from exc
    except ValueError as exc:
        raise AdmissionError(f"invalid edge list: {exc}") from exc
    _require(graph.m > 0, "swap jobs need a non-empty edge list")
    return graph


def _edges_sha256(graph: EdgeList) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.u).tobytes())
    h.update(np.ascontiguousarray(graph.v).tobytes())
    h.update(str(int(graph.n)).encode())
    return h.hexdigest()


def admit(spec: JobSpec, config) -> Job:
    """Validate ``spec`` and stamp its content-addressed fingerprint.

    ``config`` is the run's :class:`~repro.parallel.runtime.ParallelConfig`
    — already carrying the job's seed — because the fingerprint pins the
    output-affecting fields (seed, logical thread count) and nothing
    else.  Raises :class:`AdmissionError` on any invalid input.
    """
    _require(
        spec.kind in KINDS, f"unknown job kind {spec.kind!r}; expected {KINDS}"
    )
    _require(
        spec.priority in PRIORITIES,
        f"unknown priority {spec.priority!r}; expected {PRIORITIES}",
    )
    _require(
        isinstance(spec.swap_iterations, int) and spec.swap_iterations >= 0,
        f"swap_iterations must be a non-negative int, got {spec.swap_iterations!r}",
    )
    _require(
        spec.deadline is None or spec.deadline > 0,
        f"deadline must be positive or None, got {spec.deadline!r}",
    )
    _require(
        spec.max_retries is None
        or (isinstance(spec.max_retries, int) and spec.max_retries >= 0),
        f"max_retries must be a non-negative int or None, got {spec.max_retries!r}",
    )
    _require(
        spec.verify in (None, "off", "cheap", "full"),
        f"verify must be one of ('off', 'cheap', 'full') or None, "
        f"got {spec.verify!r}",
    )
    if spec.kind == "generate":
        dist = _admit_generate(spec)
        fingerprint = generation_fingerprint(
            dist, spec.swap_iterations, config, None
        )
        return Job(spec=spec, fingerprint=fingerprint, dist=dist)
    graph = _admit_swap(spec)
    fingerprint = run_fingerprint(
        kind="swap",
        edges_sha256=_edges_sha256(graph),
        iterations=int(spec.swap_iterations),
        seed=repr(config.seed),
        threads=int(config.threads),
        space="simple",
    )
    return Job(spec=spec, fingerprint=fingerprint, graph=graph)
