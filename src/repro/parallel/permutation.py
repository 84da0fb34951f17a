"""Parallel random permutation (Shun et al.) and baselines.

Algorithm III.1 permutes the edge list every swap iteration.  The paper
uses the *deterministic reservations* technique of Shun, Gu, Blelloch,
Fineman and Gibbons ("Sequential random permutation, list contraction and
tree contraction are highly parallel", SODA 2015): draw the classic
Knuth-shuffle swap targets ``H[i] ∈ [i, n)`` up front, then repeatedly,
in parallel rounds, let every uncommitted step *i* reserve the two array
slots it touches (``i`` and ``H[i]``) with an atomic-min write and commit
iff it won both reservations.  A committed step can then swap safely, and
the final permutation is **identical to the sequential Fisher–Yates
shuffle run on the same H array** — which is exactly what our tests
assert.  The number of rounds is O(log n) w.h.p., giving the
O(m log m) work / O(log m) depth budget quoted in the paper's Section V.

:func:`sort_permutation` (permute by sorting random keys) is the
"other existing libraries" baseline the paper reports an order of
magnitude of speedup over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.rng import generator_from_seed
from repro.parallel.runtime import ParallelConfig

__all__ = [
    "parallel_permutation",
    "fisher_yates_permutation",
    "sort_permutation",
    "knuth_targets",
    "PermutationStats",
]


@dataclass
class PermutationStats:
    """Execution statistics of one reservation-based permutation."""

    n: int = 0
    rounds: int = 0
    #: total step-commit attempts summed over rounds (≥ n; the excess is
    #: work wasted on reservation conflicts)
    attempts: int = 0

    @property
    def retry_overhead(self) -> float:
        """Wasted attempts per element, 0.0 for a conflict-free run."""
        return (self.attempts - self.n) / self.n if self.n else 0.0


def knuth_targets(n: int, rng) -> np.ndarray:
    """Draw the Fisher–Yates swap targets ``H[i] ∈ [i, n)``.

    ``H[i] = i + trunc(U[i] * (n - i))``, built in place.  Every
    ``n - i`` is exact in float64, so the products are the ones an int64
    factor would be promoted to, bit for bit.
    """
    rng = generator_from_seed(rng)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(n)
    u *= np.arange(n, 0, -1, dtype=np.float64)
    h = u.astype(np.int64)
    del u
    h += np.arange(n, dtype=np.int64)
    return h


def fisher_yates_permutation(
    array: np.ndarray, rng=None, *, targets: np.ndarray | None = None
) -> np.ndarray:
    """Sequential Knuth shuffle; the serial reference for the parallel one.

    ``targets`` may be supplied to replay a specific H array (used by the
    equivalence tests); otherwise it is drawn from ``rng``.
    """
    out = np.array(array, copy=True)
    n = len(out)
    h = knuth_targets(n, rng) if targets is None else np.asarray(targets, dtype=np.int64)
    if len(h) != n:
        raise ValueError("targets must have the same length as array")
    for i in range(n):
        j = h[i]
        out[i], out[j] = out[j], out[i]
    return out


def sort_permutation(array: np.ndarray, rng=None) -> np.ndarray:
    """Permute by sorting random keys — the slower library baseline."""
    rng = generator_from_seed(rng)
    order = np.argsort(rng.random(len(array)), kind="stable")
    return np.asarray(array)[order]


def parallel_permutation(
    array: np.ndarray,
    config: ParallelConfig | None = None,
    *,
    targets: np.ndarray | None = None,
    stats: PermutationStats | None = None,
) -> np.ndarray:
    """Reservation-based parallel random permutation.

    Returns a permuted copy of ``array``.  Output is bitwise identical to
    :func:`fisher_yates_permutation` with the same ``targets`` (or the
    same seed), per the determinism guarantee of Shun et al.

    ``stats`` (optional) receives the round/attempt counts, which the cost
    model uses to charge the O(log n) span of this phase.
    """
    config = config or ParallelConfig()
    rng = config.generator()
    out = np.array(array, copy=True)
    n = len(out)
    h = knuth_targets(n, rng) if targets is None else np.asarray(targets, dtype=np.int64)
    if len(h) != n:
        raise ValueError("targets must have the same length as array")
    if n and (h.min() < 0 or h.max() >= n):
        raise ValueError("targets out of range")
    if stats is not None:
        stats.n = n

    reservation = np.empty(n, dtype=np.int64)
    remaining = np.arange(n, dtype=np.int64)
    # The smallest uncommitted step always wins both its reservations, so
    # every round commits at least one step; n+1 rounds is an absolute
    # bound while typical runs take O(log n) rounds.
    for _ in range(n + 1):
        if len(remaining) == 0:
            break
        if stats is not None:
            stats.rounds += 1
            stats.attempts += len(remaining)
        # Reservation phase: each uncommitted step atomically min-writes
        # its id into both slots it will touch.  Its own slot takes a
        # plain store: ``remaining`` is unique and ascending, and every
        # slot was just reset to n, above any step id.
        reservation.fill(n)
        reservation[remaining] = remaining
        np.minimum.at(reservation, h, remaining)
        # Commit phase: step i proceeds iff it holds both reservations.
        # Committed steps touch disjoint slots, so their swaps can be
        # written one side at a time.
        ok = (reservation[remaining] == remaining) & (reservation[h] == remaining)
        commit = np.flatnonzero(ok)
        idx = remaining[commit]
        tgt = h[commit]
        a_i = out[idx]
        out[idx] = out[tgt]
        out[tgt] = a_i
        # free the commit arrays before the compaction allocates
        del commit, idx, tgt, a_i
        # compact: h stays aligned with remaining (h[i] of each step i)
        retry = np.flatnonzero(~ok)
        remaining = remaining[retry]
        h = h[retry]
    if len(remaining):
        raise RuntimeError("reservation permutation failed to converge")
    return out
