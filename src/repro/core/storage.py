"""Spill files for the swap phase's big per-run arrays (out-of-core engine).

The swap phase (Algorithm III.1) is the one step that keeps m-sized
arrays alive across passes: edge endpoints, packed table keys and the
swapped-at-least-once flags.  When
:attr:`~repro.parallel.runtime.ParallelConfig.memory_budget_bytes` is
positive and below :func:`swap_working_set_bytes`, ``swap_edges`` puts
them in an :class:`MmapStore` instead: arrays mapped over *spill files*
with ``np.memmap``.  :func:`spill_window` is that decision.  Only those
arrays and their ping-pong twins move: the hash table (8 bytes × the
power of two ≥ 2·(2m + 16) slots), the permutation's working set and
each round's O(m/2) proposal arrays stay in private memory, so a
spilled run's memory still grows linearly in m.  Spilling lowers the
private memory a run needs by 18–23% (``RLIMIT_DATA`` bisection,
docs/scale.md).

Spilling only changes *where* array bytes live, never what they hold: a
spilled run is bitwise-identical to its in-RAM twin for the same seed
and config (enforced by the cross-store differential tests).

Spill files are anonymous: each is created already unlinked in the
spill directory (``$REPRO_SPILL_DIR`` or ``<tempdir>/repro-spill``) and
only its mapping keeps it alive.  The kernel frees its blocks when the
last array over it goes, whether the run returns, exits or is killed,
so no spill file can outlive its process and nothing needs collecting.
"""

from __future__ import annotations

import os
import tempfile
import weakref
import zlib

import numpy as np

__all__ = [
    "MmapStore",
    "ChunkGuard",
    "spill_window",
    "spill_dir",
    "copy_into",
    "permute_into",
    "swap_working_set_bytes",
    "total_bytes_mapped",
    "DEFAULT_WINDOW",
]

#: largest window (elements) of a spilled swap phase, and the default of
#: the windowed kernels
DEFAULT_WINDOW = 1 << 20

#: minimum windowed-permutation window (elements); smaller windows pay
#: one python-level loop iteration per handful of rows for no residency
#: benefit
_MIN_WINDOW = 1 << 14

#: live mmap stores, for the ``store.bytes_mapped`` gauge (weak so a
#: leaked store never keeps itself alive through the registry)
_LIVE_STORES: "weakref.WeakSet[MmapStore]" = weakref.WeakSet()


def spill_dir() -> str:
    """Directory holding the (anonymous) spill files (created on first use)."""
    d = os.environ.get("REPRO_SPILL_DIR") or os.path.join(
        tempfile.gettempdir(), "repro-spill"
    )
    os.makedirs(d, exist_ok=True)
    return d


# -- byte-budget estimate --------------------------------------------------
#
# The estimate counts the *persistent* swap-phase arrays a store backs;
# transient proposal temporaries (O(m/2) per swap iteration, required
# whole-batch for bitwise-identical TestAndSet ordering) stay in RAM and
# are excluded.


def swap_working_set_bytes(m: int) -> int:
    """Bytes the swap phase's store-backed arrays hold for ``m`` edges.

    Edge endpoints, packed keys, and swapped flags — each double-buffered
    for the windowed permutation's gather target.
    """
    per_edge = 2 * 8 + 8 + 1  # u+v, keys, swapped
    return int(m) * per_edge * 2  # ping-pong twins


def spill_window(memory_budget_bytes: int, m: int) -> int:
    """Window (elements) of a spilled swap phase over ``m`` edges, or 0.

    0 means the arrays stay in RAM: the budget is zero (unlimited) or
    holds :func:`swap_working_set_bytes`.  Otherwise the window is sized
    so one permutation step — about four int64 windows (source,
    destination, the order slice and the gathered source pages) — takes
    about 1/8 of the budget, clamped to ``[2**14, DEFAULT_WINDOW]``.
    """
    budget = int(memory_budget_bytes)
    if budget <= 0 or swap_working_set_bytes(m) <= budget:
        return 0
    return max(_MIN_WINDOW, min(DEFAULT_WINDOW, budget // (8 * 4 * 8)))


# -- stores ----------------------------------------------------------------


class MmapStore:
    """Arrays mapped over anonymous spill files.

    Every :meth:`empty` maps a fresh file that has no name from the
    moment it is created, so the store owns no paths and needs no
    cleanup: each file lives exactly as long as the arrays over it.
    """

    def __init__(self) -> None:
        self._maps: list[np.memmap] = []
        _LIVE_STORES.add(self)

    def empty(self, shape, dtype) -> np.ndarray:
        """A zero-filled ``r+`` memmap over a fresh anonymous spill file.

        ``TemporaryFile`` opens it with ``O_TMPFILE`` on Linux (unlinked
        right after creation elsewhere); the mapping holds its own
        descriptor, so the file object is closed at once.
        """
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        dtype = np.dtype(dtype)
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        with tempfile.TemporaryFile(dir=spill_dir()) as fh:
            # a zero-length file cannot be mapped; one spare byte can
            os.ftruncate(fh.fileno(), max(nbytes, 1))
            arr = np.memmap(fh, dtype=dtype, mode="r+", shape=shape)
        self._maps.append(arr)
        return arr

    @property
    def bytes_mapped(self) -> int:
        return int(sum(a.nbytes for a in self._maps))


class ChunkGuard:
    """Per-window CRC ledger for store-backed arrays.

    Spill files sit on disk for whole swap phases; a bit that rots there
    comes back through the next windowed read as a silently different
    edge.  The guard seals an array after a phase writes it (one CRC-32
    per ``window`` elements, computed windowed so nothing out-of-core is
    ever fully resident) and checks it before the next phase trusts it,
    raising :class:`repro.verify.ChecksumError` on the first divergent
    window.  The ledger lives in memory only.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.window = max(int(window), 1)
        self._crcs: dict[str, list[int]] = {}

    def _window_crcs(self, arr: np.ndarray) -> list[int]:
        flat = arr.reshape(-1)
        return [
            zlib.crc32(flat[lo : lo + self.window].tobytes()) & 0xFFFFFFFF
            for lo in range(0, len(flat), self.window)
        ]

    def seal(self, name: str, arr: np.ndarray) -> None:
        """Record ``arr``'s current per-window CRCs under ``name``."""
        self._crcs[name] = self._window_crcs(arr)

    def check(self, name: str, arr: np.ndarray) -> None:
        """Verify ``arr`` against its seal; no-op for unsealed names."""
        want = self._crcs.get(name)
        if want is None:
            return
        got = self._window_crcs(arr)
        if got == want:
            return
        from repro.verify import ChecksumError

        if len(got) != len(want):
            detail = f"window count changed ({len(want)} -> {len(got)})"
        else:
            bad = next(i for i, (a, b) in enumerate(zip(want, got)) if a != b)
            detail = (
                f"window {bad} CRC mismatch "
                f"(sealed {want[bad]:#010x}, read {got[bad]:#010x})"
            )
        raise ChecksumError(f"store-backed array {name!r} corrupt: {detail}")


# -- windowed kernels ------------------------------------------------------


def copy_into(dst: np.ndarray, src: np.ndarray, window: int = DEFAULT_WINDOW) -> None:
    """``dst[:] = src`` one window at a time (bounded resident writes)."""
    n = len(src)
    if len(dst) != n:
        raise ValueError(f"length mismatch: dst={len(dst)} src={n}")
    window = max(int(window), 1)
    for lo in range(0, n, window):
        hi = min(lo + window, n)
        dst[lo:hi] = src[lo:hi]


def permute_into(
    dst: np.ndarray, src: np.ndarray, order: np.ndarray, window: int = DEFAULT_WINDOW
) -> None:
    """``dst[:] = src[order]``, gathering one destination window at a time.

    The windowed gather writes each mapped destination window exactly
    once and reads source pages on demand, so the permutation of an
    out-of-core array never needs both full copies resident.  Values are
    exactly ``src[order]`` — the permutation itself (and therefore the
    PCG64 stream that produced ``order``) is untouched, which is what
    keeps windowed swap rounds bitwise-identical to in-RAM rounds.
    """
    n = len(order)
    if len(dst) != n or len(src) != n:
        raise ValueError("dst, src, and order must have equal length")
    window = max(int(window), 1)
    for lo in range(0, n, window):
        hi = min(lo + window, n)
        dst[lo:hi] = src[order[lo:hi]]


def total_bytes_mapped() -> int:
    """Bytes currently mapped by every live :class:`MmapStore`.

    Feeds the ``store.bytes_mapped`` gauge sampled at phase boundaries
    (see :func:`repro.obs.metrics.record_memory_stats`).
    """
    return int(sum(s.bytes_mapped for s in list(_LIVE_STORES)))
