"""The benchmark's workloads: inputs, one sample, and its output checks.

Every workload builds its inputs from the workload seed and derives each
sample's seed from it (:func:`sample_seed`), so the same ``--seed`` gives
the same inputs and the same sample stream.  Samples go through the
public API only (``generate_graph``, ``swap_edges``) on the default
vectorized backend with the default logical ``threads``.

- ``gen-hubs`` — Algorithm IV.1 with one swap pass on the hub-heavy
  Twitter twin (n = 39,000, m ≈ 1.4e6, d_max = n-1): the only workload
  whose probability sweep and edge-skip sampling do work, and the one
  where ~40% of swap proposals hit keys already in the table.
- ``swap-sparse`` — Algorithm III.1 alone, three passes over a
  Havel–Hakimi graph of ``scale_dataset(650_000)`` (m ≈ 9.7e5,
  d_max ≈ sqrt(n)): permutation and TestAndSet dominate, ~99% accepted.
- ``swap-spill`` — the same chain and seeds as ``swap-sparse`` with the
  arrays in spill files (1 MiB memory budget), the cheap verify tier and
  a snapshot every pass, all on disk inside the checkout: the only
  workload where storage, checkpoint and verify do work.  Its outputs
  must equal ``swap-sparse``'s bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from perfbench import WORK

SWAP_ITERATIONS = 3
SPILL_BUDGET_BYTES = 1 << 20


def sample_seed(workload_seed: int, k: int) -> int:
    """Seed of sample ``k`` (``k = 0`` is the warm-up) of a workload run."""
    ss = np.random.SeedSequence(int(workload_seed), spawn_key=(int(k),))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass
class Sample:
    """One sample's output, what it reported, and its wall time."""

    k: int
    u: np.ndarray
    v: np.ndarray
    n: int
    swap_stats: object
    report: object = None
    seconds: float = 0.0


def digest(u: np.ndarray, v: np.ndarray) -> str:
    """SHA-256 of the endpoint arrays (int64, in edge order)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(u, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(v, dtype=np.int64).tobytes())
    return h.hexdigest()


def degrees(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex degree of an edge list over ``n`` vertices."""
    return np.bincount(u, minlength=n) + np.bincount(v, minlength=n)


def graph_problems(u: np.ndarray, v: np.ndarray, n: int) -> list[str]:
    """Simple-graph violations: ids out of range, self loops, duplicates.

    Duplicates are found on sorted packed keys ``min * n + max``, a packing
    of the benchmark's own so the check does not trust the library's.
    """
    if len(u) != len(v):
        return [f"endpoint arrays differ in length ({len(u)} != {len(v)})"]
    if len(u) == 0:
        return ["empty edge list"]
    problems = []
    if min(int(u.min()), int(v.min())) < 0 or max(int(u.max()), int(v.max())) >= n:
        return [f"vertex id outside [0, {n})"]
    loops = int(np.count_nonzero(u == v))
    if loops:
        problems.append(f"{loops} self loop(s)")
    keys = np.sort(np.minimum(u, v) * np.int64(n) + np.maximum(u, v))
    dups = int(np.count_nonzero(keys[1:] == keys[:-1]))
    if dups:
        problems.append(f"{dups} duplicate edge(s)")
    return problems


def degree_err(realized: np.ndarray, target: np.ndarray) -> float:
    """Relative L1 distance between sorted realized and target degrees."""
    a = np.sort(realized)
    b = np.sort(target)
    return float(np.abs(a - b).sum() / b.sum())


def _call(tracer, name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, args, kwargs)


class Workload:
    """Inputs from a workload seed, one sample, and the sample's checks."""

    name = ""

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = int(seed)
        self.tracer = tracer

    def setup(self) -> None:
        """Synthesize the inputs (timed as part of ``setup_s``)."""
        raise NotImplementedError

    def config(self, k: int):
        """The ``ParallelConfig`` of sample ``k``."""
        from repro import ParallelConfig

        return ParallelConfig(seed=sample_seed(self.seed, k))

    def sample(self, k: int) -> Sample:
        """Run sample ``k`` and time it."""
        raise NotImplementedError

    def check(self, s: Sample) -> tuple[list[str], float]:
        """``(problems, degree_err)`` of a sample's output."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload keeps on disk."""


class GenHubs(Workload):
    name = "gen-hubs"

    def setup(self) -> None:
        from repro.datasets import SPECS

        self.dist = _call(self.tracer, "datasets", SPECS["Twitter"].synthesize, 0.001)
        self.target = self.dist.expand()

    def sample(self, k: int) -> Sample:
        from repro import generate_graph

        config = self.config(k)
        t0 = time.perf_counter()
        g, report = _call(
            self.tracer, "generate", generate_graph, self.dist,
            swap_iterations=1, config=config,
        )
        dt = time.perf_counter() - t0
        return Sample(k, g.u, g.v, g.n, report.swap_stats, report, dt)

    def check(self, s: Sample) -> tuple[list[str], float]:
        problems = graph_problems(s.u, s.v, s.n)
        if s.n != len(self.target):
            problems.append(f"{s.n} vertices, target has {len(self.target)}")
            return problems, float("nan")
        return problems, degree_err(degrees(s.u, s.v, s.n), self.target)


class SwapSparse(Workload):
    name = "swap-sparse"

    def setup(self) -> None:
        from repro.bench.scale import scale_dataset
        from repro.generators.havel_hakimi import havel_hakimi_graph

        dist = _call(self.tracer, "datasets", scale_dataset, 650_000, seed=self.seed)
        self.graph = _call(self.tracer, "havel_hakimi", havel_hakimi_graph, dist)
        self.input_degrees = degrees(self.graph.u, self.graph.v, self.graph.n)

    def _swap(self, config, **kwargs):
        from repro import SwapStats, swap_edges

        stats = SwapStats()
        out = _call(
            self.tracer, "swap", swap_edges, self.graph, SWAP_ITERATIONS, config,
            stats=stats, **kwargs,
        )
        return out, stats

    def sample(self, k: int) -> Sample:
        config = self.config(k)
        t0 = time.perf_counter()
        out, stats = self._swap(config)
        dt = time.perf_counter() - t0
        return Sample(k, out.u, out.v, out.n, stats, None, dt)

    def check(self, s: Sample) -> tuple[list[str], float]:
        problems = graph_problems(s.u, s.v, s.n)
        if s.n != self.graph.n or len(s.u) != self.graph.m:
            problems.append("vertex or edge count differs from the input")
            return problems, float("nan")
        realized = degrees(s.u, s.v, s.n)
        if not np.array_equal(realized, self.input_degrees):
            bad = int(np.flatnonzero(realized != self.input_degrees)[0])
            problems.append(
                f"vertex {bad} has degree {int(realized[bad])}, "
                f"input {int(self.input_degrees[bad])}"
            )
        return problems, degree_err(realized, self.input_degrees)


class SwapSpill(SwapSparse):
    """``swap-sparse`` with spill-file arrays, cheap verify and snapshots.

    Spill files go to a benchmark-owned directory on disk (not tmpfs), and
    every sample checkpoints into its own directory, which the check then
    inspects and removes.
    """

    name = "swap-spill"

    def setup(self) -> None:
        self.spill = WORK / f"spill-{os.getpid()}"
        self.snapshots = WORK / f"snapshots-{os.getpid()}"
        for d in (self.spill, self.snapshots):
            d.mkdir(parents=True, exist_ok=True)
        self._saved_spill_env = os.environ.get("REPRO_SPILL_DIR")
        os.environ["REPRO_SPILL_DIR"] = str(self.spill)
        super().setup()

    def config(self, k: int):
        return replace(
            super().config(k), memory_budget_bytes=SPILL_BUDGET_BYTES, verify="cheap"
        )

    def sample(self, k: int) -> Sample:
        config = self.config(k)
        directory = self.snapshots / f"sample-{k}"
        t0 = time.perf_counter()
        out, stats = self._swap(config, checkpoint_dir=directory, checkpoint_every=1)
        dt = time.perf_counter() - t0
        return Sample(k, out.u, out.v, out.n, stats, None, dt)

    def in_ram_digest(self, k: int) -> str:
        """Digest of sample ``k`` run as ``swap-sparse`` (in RAM, no snapshots)."""
        out, _ = self._swap(SwapSparse.config(self, k))
        return digest(out.u, out.v)

    def check(self, s: Sample) -> tuple[list[str], float]:
        problems, err = super().check(s)
        leftovers = sorted(os.listdir(self.spill))
        if leftovers:
            problems.append(f"spill files left behind: {leftovers[:3]}")
        problems += _snapshot_problems(self.snapshots / f"sample-{s.k}")
        if os.listdir(self.snapshots):
            problems.append("snapshot directory could not be removed")
        return problems, err

    def close(self) -> None:
        for d in (self.spill, self.snapshots):
            shutil.rmtree(d, ignore_errors=True)
        if self._saved_spill_env is None:
            os.environ.pop("REPRO_SPILL_DIR", None)
        else:
            os.environ["REPRO_SPILL_DIR"] = self._saved_spill_env


def _snapshot_problems(directory: Path) -> list[str]:
    """Check a sample's snapshot directory, then remove it.

    The run must leave complete snapshots only — no ``.tmp-`` writes —
    and its newest snapshot must be the final pass.
    """
    problems = []
    names = sorted(os.listdir(directory)) if directory.is_dir() else []
    if any(fn.startswith(".tmp-") for fn in names):
        problems.append(f"temporary snapshot files left in {directory.name}")
    manifests = [fn for fn in names if fn.startswith("snap-") and fn.endswith(".json")]
    if not manifests:
        problems.append("no snapshot written")
    else:
        with open(directory / manifests[-1]) as fh:
            last = json.load(fh)
        if last.get("phase") != "swap" or last.get("swap_round") != SWAP_ITERATIONS:
            problems.append(f"newest snapshot is not the final pass: {manifests[-1]}")
    shutil.rmtree(directory, ignore_errors=True)
    return problems


WORKLOADS = {w.name: w for w in (GenHubs, SwapSparse, SwapSpill)}
