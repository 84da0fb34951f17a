"""Parallel execution configuration and loop partitioning.

Every parallel entry point in the library accepts a
:class:`ParallelConfig`.  Two of its fields reach every one of them:

- ``threads`` — the logical thread count *p*.  The engine uses it to
  partition iteration spaces exactly as a static OpenMP schedule would,
  and the cost model uses it to turn work accounting into simulated
  p-thread time.
- ``seed`` — base seed for reproducible per-thread streams.

The module also provides the static chunk partitioner shared by all
parallel loops, equivalent to OpenMP's ``schedule(static)``, and
:func:`chunk_map`, which runs a kernel over that partition with one
random stream per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.parallel.rng import generator_from_seed, spawn_generators

__all__ = [
    "ParallelConfig",
    "chunk_bounds",
    "chunk_map",
]


@dataclass(frozen=True)
class ParallelConfig:
    """Execution configuration threaded through all parallel algorithms.

    Parameters
    ----------
    threads:
        Logical thread count *p* (≥ 1).  Partitions iteration spaces and
        parameterizes the cost model.  Defaults to 16, matching the
        single-node core count used throughout the paper's evaluation.
    seed:
        Base seed; ``None`` draws fresh entropy.
    memory_budget_bytes:
        Approximate RAM budget for the swap phase's persistent arrays
        (edge endpoints, packed table keys, swapped flags).  ``0``
        (default) means unlimited.  A positive budget below
        :func:`repro.core.storage.swap_working_set_bytes` moves them to
        spill files, permuted one bounded window at a time (see
        :func:`repro.core.storage.spill_window`).  Spilling only moves
        bytes — outputs are bitwise-identical for the same seed/config.
    verify:
        Integrity-verification tier (see :mod:`repro.verify`): ``"off"``
        (default; no added checks), ``"cheap"`` (O(m) invariant checks at
        phase boundaries, spill-window CRCs), or ``"full"``
        (additionally proves simplicity via sorted packed keys and
        table-vs-edge-array consistency after every registration).
        Verification never changes outputs — it only detects corruption
        and triggers the typed quarantine/repair paths.
    """

    threads: int = 16
    seed: object = None
    memory_budget_bytes: int = 0
    verify: str = "off"

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.memory_budget_bytes < 0:
            raise ValueError(
                f"memory_budget_bytes must be >= 0, got {self.memory_budget_bytes}"
            )
        # literal tuple rather than repro.verify's VERIFY_TIERS: this
        # module must stay importable without the verification layer
        if self.verify not in ("off", "cheap", "full"):
            raise ValueError(
                f"verify must be one of ('off', 'cheap', 'full'), got {self.verify!r}"
            )

    def generator(self) -> np.random.Generator:
        """A single generator derived from :attr:`seed`."""
        return generator_from_seed(self.seed)

    def with_seed(self, seed) -> "ParallelConfig":
        """Copy of this config with a different seed."""
        return replace(self, seed=seed)


def chunk_bounds(n: int, chunks: int) -> np.ndarray:
    """Boundaries of a static partition of ``range(n)`` into ``chunks``.

    Returns an int64 array of length ``chunks + 1`` with
    ``bounds[k] <= bounds[k+1]``; chunk ``k`` owns
    ``range(bounds[k], bounds[k+1])``.  The first ``n % chunks`` chunks get
    one extra element, matching OpenMP's static schedule.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    base, extra = divmod(n, chunks)
    sizes = np.full(chunks, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(chunks + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def chunk_map(
    kernel: Callable[..., np.ndarray],
    n: int,
    config: ParallelConfig,
    *shared_args,
) -> list[np.ndarray]:
    """Run ``kernel(lo, hi, seed, *shared_args)`` over a static partition.

    The index range ``[0, n)`` is split into ``config.threads`` chunks
    and each chunk gets a seed spawned from ``config.seed``, so the
    output depends on the logical thread count and the seed only.
    Returns the per-chunk result arrays in chunk order; empty chunks are
    skipped.
    """
    p = config.threads
    bounds = chunk_bounds(n, p)
    seeds = [int(g.integers(0, 2**63)) for g in spawn_generators(config.seed, p)]
    return [
        kernel(int(bounds[k]), int(bounds[k + 1]), seeds[k], *shared_args)
        for k in range(p)
        if bounds[k + 1] > bounds[k]
    ]
