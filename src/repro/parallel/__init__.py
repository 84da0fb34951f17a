"""Shared-memory parallel substrate.

This subpackage is the reproduction's stand-in for the paper's C++/OpenMP
runtime.  It provides:

- :mod:`repro.parallel.rng` — reproducible per-thread random streams;
- :mod:`repro.parallel.runtime` — the :class:`ParallelConfig` object and
  chunk partitioning used by every parallel entry point;
- :mod:`repro.parallel.prefix` — parallel (Blelloch) prefix sums;
- :mod:`repro.parallel.permutation` — the reservation-based parallel random
  permutation of Shun et al. plus baselines;
- :mod:`repro.parallel.hashtable` — the packed-key open-addressing hash
  table with ``TestAndSet`` semantics used for edge-simplicity checks;
- :mod:`repro.parallel.atomics` — contention counters of the simulated
  atomic primitives;
- :mod:`repro.parallel.cost_model` — work/span accounting that converts
  measured work into simulated p-thread wall-clock for scaling studies.

The default engine executes each parallel algorithm's *round structure*
with vectorized numpy kernels: conflicts (hash-table slot collisions,
permutation reservation failures) are detected exactly as a lock-free
multithreaded execution would produce them, with deterministic
lowest-index-wins resolution so results are reproducible for a fixed seed.
The ``serial`` backend runs straight-line reference implementations of
the same algorithms, which the tests compare against bit for bit.
"""

from repro.parallel.runtime import ParallelConfig, chunk_bounds, chunk_views
from repro.parallel.rng import spawn_generators, generator_from_seed
from repro.parallel.prefix import prefix_sum, blocked_prefix_sum
from repro.parallel.permutation import (
    parallel_permutation,
    fisher_yates_permutation,
    sort_permutation,
)
from repro.parallel.hashtable import ConcurrentEdgeHashTable, pack_edges, unpack_edges
from repro.parallel.cost_model import CostModel, PhaseCost

__all__ = [
    "ParallelConfig",
    "chunk_bounds",
    "chunk_views",
    "spawn_generators",
    "generator_from_seed",
    "prefix_sum",
    "blocked_prefix_sum",
    "parallel_permutation",
    "fisher_yates_permutation",
    "sort_permutation",
    "ConcurrentEdgeHashTable",
    "pack_edges",
    "unpack_edges",
    "CostModel",
    "PhaseCost",
]
