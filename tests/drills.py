"""Test-side fault injection for the integrity and resume drills.

The library carries no fault hooks.  A drill corrupts an artifact, or
kills the driver, by wrapping the library function that sits at the
point under test, the same way the benchmark tracer wraps boundary
functions.  Each wrapper replaces the attribute the library looks up at
call time, so everything it does not replace runs unchanged.
"""

import os
import signal

import numpy as np

from repro.core.checkpoint import CheckpointStore, _tmp_name


def flip_bit(arr) -> None:
    """Flip one bit of ``arr``'s middle element in place.

    Frozen (``writeable=False``) arrays are unfrozen for the write and
    frozen again, so served cache entries can be corrupted too.
    """
    was_writeable = arr.flags.writeable
    arr.flags.writeable = True
    try:
        flat = arr.reshape(-1)
        idx = len(flat) // 2
        flat[idx] ^= flat.dtype.type(1 << 17)
    finally:
        arr.flags.writeable = was_writeable


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
