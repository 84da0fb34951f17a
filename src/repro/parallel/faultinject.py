"""Deterministic fault injection for the durability and integrity drills.

Checkpoint/resume and the integrity tiers are only trustworthy if every
recovery path is exercised deterministically by tests.  This module is
that harness.

A *fault plan* is a comma-separated spec string, read from
``ParallelConfig.faults`` or the ``REPRO_FAULTS`` environment variable:

``parentkill:checkpoint:1``
    SIGKILL the driver process itself immediately after its 2nd durable
    checkpoint write — the resume drill: the suite relaunches the run
    with ``resume`` and asserts the output is bitwise-identical to an
    uninterrupted run.
``bitflip:table:0``
    flip one bit of the named artifact at its 1st flip opportunity —
    the bitrot drill for the integrity layer (see :mod:`repro.verify`).
    Artifacts: ``table`` (hash-table slots), ``spill`` (a spill-backed
    array window), ``checkpoint`` (a durable snapshot payload),
    ``cache`` (a served result's arrays).  The drill suite asserts every
    injected flip is either repaired (output bitwise-equal to the
    fault-free run) or surfaced as a typed ``IntegrityError`` — never a
    silently wrong graph.
``bitflip:spill:0:x3``
    fire three times (the ``:xN`` suffix repeats any spec).
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

__all__ = [
    "FAULT_ENV",
    "FaultSpec",
    "FaultPlan",
    "FaultEvent",
    "parse_plan",
    "plan_from",
    "arm_parent_faults",
    "disarm_parent_faults",
    "fire_parent",
    "BITFLIP_ARTIFACTS",
    "arm_bitflip_faults",
    "disarm_bitflip_faults",
    "consume_bitflip",
    "maybe_flip_array",
    "maybe_flip_file",
]

#: Environment variable holding a fault-plan string.
FAULT_ENV = "REPRO_FAULTS"

#: Fault kinds executed inside the driver process.
PARENT_FAULT_KINDS = ("parentkill",)

#: Artifact classes a ``bitflip`` spec may target.
BITFLIP_ARTIFACTS = ("table", "spill", "checkpoint", "cache")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *kind* at the *index*-th *op*."""

    kind: str
    op: str  #: a parent op (``"checkpoint"``) or a bitflip artifact
    index: int  #: fire at the index-th matching op
    times: int = 1  #: remaining firings

    def matches(self, op: str, seen: int) -> bool:
        """Whether this spec fires for the *seen*-th *op*."""
        return self.times > 0 and self.op == op and seen == self.index


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault-plan: parent specs and bitrot specs."""

    #: specs executed by the driver process itself (``parentkill``)
    parent_specs: tuple = ()
    #: bitrot-injection specs (``bitflip``)
    bitflip_specs: tuple = ()

    def __bool__(self) -> bool:
        return bool(self.parent_specs) or bool(self.bitflip_specs)


def parse_plan(spec: str | None) -> FaultPlan | None:
    """Parse a fault-plan string; ``None``/empty input yields ``None``."""
    if not spec:
        return None
    parent_specs = []
    bitflip_specs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        kind = parts[0]
        if kind not in PARENT_FAULT_KINDS + ("bitflip",):
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{PARENT_FAULT_KINDS + ('bitflip',)}"
            )
        if len(parts) not in (3, 4):
            raise ValueError(
                f"malformed fault {token!r}; expected {kind}:op:index[:xT]"
            )
        op = parts[1]
        if kind == "bitflip" and op not in BITFLIP_ARTIFACTS:
            raise ValueError(
                f"unknown bitflip artifact {op!r}; expected one of "
                f"{BITFLIP_ARTIFACTS}"
            )
        index = int(parts[2])
        if index < 0:
            raise ValueError(f"fault index must be >= 0 in {token!r}")
        times = 1
        if len(parts) == 4:
            if not parts[3].startswith("x"):
                raise ValueError(f"malformed repeat field {parts[3]!r} in {token!r}")
            times = int(parts[3][1:])
        target = bitflip_specs if kind == "bitflip" else parent_specs
        target.append(FaultSpec(kind, op, index, times))
    plan = FaultPlan(tuple(parent_specs), tuple(bitflip_specs))
    return plan if plan else None


def plan_from(config) -> FaultPlan | None:
    """The active fault plan for a run: config field, else environment."""
    spec = getattr(config, "faults", "") if config is not None else ""
    return parse_plan(spec or os.environ.get(FAULT_ENV, ""))


@dataclass
class FaultEvent:
    """One repair record (see ``GenerationReport.faults``)."""

    kind: str  #: what was repaired: ``"integrity"``


# -- driver-process (parent) fault firing ---------------------------------
#
# parentkill specs drill the checkpoint/resume path: the driver SIGKILLs
# *itself* right after the matching durable event (today: the index-th
# "checkpoint" write), and the test harness relaunches with resume.  The
# firing state is process-local.

_parent_specs: tuple = ()
_parent_seen: dict[str, int] = {}


def arm_parent_faults(plan: "FaultPlan | None") -> None:
    """Arm the driver-side specs of ``plan`` (idempotent for same plan).

    Re-arming with an identical spec tuple keeps the op counters — the
    checkpoint layer arms at every durable entry point (``generate_graph``
    then ``swap_edges``), and resetting counters mid-run would shift
    which write the fault fires on.
    """
    global _parent_specs, _parent_seen
    specs = plan.parent_specs if plan is not None else ()
    if specs == _parent_specs:
        return
    _parent_specs = specs
    _parent_seen = {}


def disarm_parent_faults() -> None:
    """Clear driver-side specs."""
    global _parent_specs, _parent_seen
    _parent_specs = ()
    _parent_seen = {}


def fire_parent(op: str) -> None:
    """Count a driver-side op and SIGKILL this process on a match.

    Called by :meth:`repro.core.checkpoint.CheckpointStore.save` after a
    snapshot becomes durable; a no-op unless a ``parentkill`` spec is
    armed for this ``op`` at this index.
    """
    if not _parent_specs:
        return
    seen = _parent_seen.get(op, 0)
    _parent_seen[op] = seen + 1
    for spec in _parent_specs:
        if spec.kind == "parentkill" and spec.matches(op, seen):
            os.kill(os.getpid(), signal.SIGKILL)


def arm_from(config) -> None:
    """Arm driver-local faults (parent kills, bitrot)."""
    plan = plan_from(config)
    arm_parent_faults(plan)
    arm_bitflip_faults(plan)


# -- driver-process bitrot injection ---------------------------------------
#
# bitflip specs drill the integrity layer: at the index-th flip
# opportunity for an artifact class, one bit of that artifact is XORed
# in place (or in file).  Firing state is process-local to the driver.
# Crucially the seen-counter keeps advancing across repair attempts, so a
# consumed flip does not re-fire on the replay — which is exactly what
# lets the drill suite assert the repaired output is bitwise-equal to the
# fault-free run.

_bitflip_specs: tuple = ()
_bitflip_seen: dict[str, int] = {}


def arm_bitflip_faults(plan: "FaultPlan | None") -> None:
    """Arm the bitrot specs of ``plan`` (idempotent for same plan).

    Re-arming with an identical spec tuple keeps the opportunity
    counters — the pipeline arms at every durable entry point, and a
    reset mid-run would shift which opportunity the flip fires on.
    """
    global _bitflip_specs, _bitflip_seen
    specs = plan.bitflip_specs if plan is not None else ()
    if specs == _bitflip_specs:
        return
    _bitflip_specs = specs
    _bitflip_seen = {}


def disarm_bitflip_faults() -> None:
    """Clear bitrot specs."""
    global _bitflip_specs, _bitflip_seen
    _bitflip_specs = ()
    _bitflip_seen = {}


def consume_bitflip(artifact: str) -> bool:
    """Count a flip opportunity for ``artifact``; True when one fires."""
    if not _bitflip_specs:
        return False
    seen = _bitflip_seen.get(artifact, 0)
    _bitflip_seen[artifact] = seen + 1
    return any(
        spec.kind == "bitflip" and spec.matches(artifact, seen)
        for spec in _bitflip_specs
    )


def maybe_flip_array(artifact: str, arr) -> bool:
    """Flip one bit of ``arr``'s middle element if a spec fires now.

    Deterministic by construction: same plan, same call sites, same
    element, same bit.  Restores the ``writeable`` flag afterwards so
    frozen (served) arrays can be corrupted in place by the drill.
    """
    if not consume_bitflip(artifact):
        return False
    if arr.size == 0:
        return False
    was_writeable = arr.flags.writeable
    if not was_writeable:
        arr.flags.writeable = True
    try:
        flat = arr.reshape(-1)
        idx = len(flat) // 2
        flat[idx] = flat[idx] ^ type(flat[idx])(1 << 17)
    finally:
        if not was_writeable:
            arr.flags.writeable = False
    return True


def maybe_flip_file(artifact: str, path) -> bool:
    """Flip one bit of the file's middle byte if a spec fires now."""
    if not consume_bitflip(artifact):
        return False
    with open(path, "r+b") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return False
        fh.seek(size // 2)
        byte = fh.read(1)[0]
        fh.seek(size // 2)
        fh.write(bytes([byte ^ 0x20]))
    return True
