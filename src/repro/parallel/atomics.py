"""Contention counters for the simulated atomic primitives.

The lock-free structures in this library (the edge hash table, the
reservation-based permutation) are built on one primitive: a batch of
"threads" each attempt a compare-and-swap on some memory slot, exactly one
attempt per slot succeeds, and the rest observe failure and retry.  In a
real multithreaded execution the winner among simultaneous CAS attempts is
arbitrary; the kernels resolve it deterministically (lowest attempt index
wins, by scatter-min) so that runs are reproducible for a fixed seed.
:class:`ContentionStats` counts the attempts, the contended ones and the
rounds, so experiments can report how rare collisions are (the paper
notes they are "rather rare as each key is initially guaranteed to be
unique").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ContentionStats"]


@dataclass
class ContentionStats:
    """Counters describing simulated lock-free contention."""

    attempts: int = 0
    #: CAS attempts that lost to another attempt targeting the same slot
    #: in the same round (would have spun/retried on real hardware).
    failures: int = 0
    rounds: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of CAS attempts that were contended."""
        return self.failures / self.attempts if self.attempts else 0.0
