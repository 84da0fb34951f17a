"""Test-side fault injection for the integrity and resume drills.

The library carries no fault hooks.  A drill corrupts an artifact, or
kills the driver, by wrapping the library function that sits at the
point under test, the same way the benchmark tracer wraps boundary
functions.  Each wrapper replaces the attribute the library looks up at
call time, so everything it does not replace runs unchanged.
:func:`durable_run` is the resume drills' driver, shared by the driver
processes and the in-process references they are compared with.
:func:`use_reference_engine` swaps the swap chain's two kernels for
their straight-line references the same way.
"""

import os
import signal

import numpy as np

from repro.core import swap as swap_module
from repro.core.checkpoint import CheckpointStore, _tmp_name
from repro.core.generate import generate_graph
from repro.core.swap import SwapStats, swap_edges
from repro.graph.degree import DegreeDistribution
from repro.graph.edgelist import EdgeList
from repro.parallel.hashtable import ConcurrentEdgeHashTable
from repro.parallel.permutation import fisher_yates_permutation, knuth_targets
from repro.parallel.runtime import ParallelConfig


def use_reference_engine(monkeypatch) -> None:
    """Run the swap chain on its reference kernels until ``monkeypatch``
    undoes the patches.

    The permutation becomes the sequential Knuth shuffle over the same
    targets ``H`` the reservation rounds would commit, and TestAndSet
    the one-key-at-a-time loop.  Both are bitwise-identical to the
    default kernels, so every swap output is too; only the table and
    permutation-round counters, which the references do not keep, read
    zero.
    """

    def knuth_shuffle(array, config, *, stats=None):
        h = knuth_targets(len(array), config.generator())
        if stats is not None:
            stats.n = len(array)
        return fisher_yates_permutation(array, targets=h)

    monkeypatch.setattr(swap_module, "parallel_permutation", knuth_shuffle)
    monkeypatch.setattr(ConcurrentEdgeHashTable, "test_and_set",
                        ConcurrentEdgeHashTable.test_and_set_serial)


def flip_bit(arr) -> None:
    """Flip one bit of ``arr``'s middle element in place."""
    flat = arr.reshape(-1)
    flat[len(flat) // 2] ^= flat.dtype.type(1 << 17)


def flip_middle_byte(path) -> None:
    """Flip one bit of the middle byte of the file at ``path``."""
    with open(path, "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(size // 2)
        byte = fh.read(1)[0]
        fh.seek(size // 2)
        fh.write(bytes([byte ^ 0x20]))


def corrupt_first_call(monkeypatch, owner, name, corrupt) -> None:
    """Wrap ``owner.name`` so its first call runs ``corrupt`` beforehand.

    ``corrupt`` receives the call's arguments; later calls, such as the
    ones a checkpoint replay makes, pass straight through.
    """
    real = getattr(owner, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 1:
            corrupt(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def kill_after_save(n: int) -> None:
    """SIGKILL this process right after its ``n + 1``-th snapshot is durable.

    For drill driver processes only: the wrap is never undone, because
    the process does not outlive it.
    """
    save = CheckpointStore.save
    done = [0]

    def save_then_die(self, *args, **kwargs):
        seq = save(self, *args, **kwargs)
        done[0] += 1
        if done[0] > n:
            os.kill(os.getpid(), signal.SIGKILL)
        return seq

    CheckpointStore.save = save_then_die


def tear_write_and_die(n: int) -> None:
    """SIGKILL this process halfway through its ``n + 1``-th payload write.

    The wrapped ``CheckpointStore._write_raw`` leaves what a writer killed
    mid-write leaves: a temporary holding the first half of the payload,
    never renamed into place.  For drill driver processes only, like
    :func:`kill_after_save`.
    """
    write_raw = CheckpointStore._write_raw
    done = [0]

    def write_half_then_die(self, final, arr):
        if done[0] < n:
            done[0] += 1
            return write_raw(self, final, arr)
        data = memoryview(np.ascontiguousarray(arr)).cast("B")
        with open(_tmp_name(self.directory, final.suffix), "wb") as fh:
            fh.write(data[: len(data) // 2])
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    CheckpointStore._write_raw = write_half_then_die


def durable_run(driver: str, store=None):
    """One resume-drill run: six swap passes, snapshotted after every
    pass into ``store`` and resumed from it; without ``store``, the
    uninterrupted reference.

    ``driver`` is ``"swap"`` (``swap_edges`` on a random 360-edge
    multigraph, seed 42) or ``"generate"`` (``generate_graph`` on
    degrees [1, 2, 3, 6] × [400, 240, 100, 40], seed 11).  Returns the
    output edge list and its :class:`~repro.core.swap.SwapStats`.
    """
    durable = {}
    if store is not None:
        durable = dict(checkpoint_dir=store, checkpoint_every=1,
                       resume_from=store)
    if driver == "generate":
        dist = DegreeDistribution([1, 2, 3, 6], [400, 240, 100, 40])
        cfg = ParallelConfig(seed=11, threads=2)
        out, report = generate_graph(dist, swap_iterations=6, config=cfg,
                                     **durable)
        return out, report.swap_stats
    rng = np.random.default_rng(0)
    n, m = 120, 360
    graph = EdgeList(
        rng.integers(0, n, m).astype(np.int64),
        rng.integers(0, n, m).astype(np.int64),
        n,
    )
    stats = SwapStats()
    cfg = ParallelConfig(seed=42, threads=2)
    out = swap_edges(graph, 6, cfg, stats=stats, **durable)
    return out, stats
