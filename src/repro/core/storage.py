"""Backing stores for the big per-run arrays (out-of-core scale engine).

The three arrays that grow with the graph — edge endpoints, packed table
keys, and swapped-at-least-once flags — historically lived in process
RAM, which silently caps the reproduction at graphs that fit in memory.
This module puts a *backing store* underneath them:

- :class:`RamStore` — plain ``np.empty`` arrays (the historical layout);
- :class:`MmapStore` — arrays mapped over *spill files* with
  ``np.memmap``, so the OS pages windows of the working set in and out
  and the resident footprint is bounded by the touched window, not the
  graph size.

The store is selected per run from
:attr:`~repro.parallel.runtime.ParallelConfig.store` (``"ram"`` /
``"mmap"`` explicit, or ``"auto"``: spill exactly when the estimated
working set exceeds
:attr:`~repro.parallel.runtime.ParallelConfig.memory_budget_bytes`).
Stores only change *where* array bytes live, never what they hold: an
mmap-backed run is bitwise-identical to its in-RAM twin for the same
seed and config (enforced by the cross-store differential tests and the
out-of-core CI smoke job).

Spill-file lifecycle is pid-stamped: every file is named
``repro-spill-<owner-pid>-<seq>-<hex>.bin`` inside the spill directory
(``$REPRO_SPILL_DIR`` or ``<tempdir>/repro-spill``), every
:class:`MmapStore` writes a pidfile-stamped JSON manifest of its files,
and :func:`reap_stale_spill` unlinks files whose owning process is gone.
A store's :meth:`~MmapStore.release` unlinks its files while keeping the
mappings alive (POSIX deleted-but-open semantics), so arrays that escape
a phase — the final :class:`~repro.graph.edgelist.EdgeList` — stay valid
while the disk debt is already settled; only a SIGKILL mid-run leaves
files for the reaper.
"""

from __future__ import annotations

import itertools
import json
import os
import secrets
import tempfile
import time
import weakref
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STORE_KINDS",
    "BackingStore",
    "RamStore",
    "MmapStore",
    "ArrayAppender",
    "ChunkGuard",
    "StoragePlan",
    "open_store",
    "select_store",
    "plan_storage",
    "spill_dir",
    "reap_stale_spill",
    "report_stale_spill",
    "create_spill_file",
    "copy_into",
    "permute_into",
    "swap_working_set_bytes",
    "generation_working_set_bytes",
    "total_bytes_mapped",
    "DEFAULT_WINDOW",
]

#: store kinds a :class:`~repro.parallel.runtime.ParallelConfig` may name
STORE_KINDS = ("auto", "ram", "mmap")

#: filename prefix of every spill artifact (files and manifests); the
#: reaper only ever touches names carrying it
SPILL_PREFIX = "repro-spill-"

#: default window (elements) for windowed copies/permutations when no
#: memory budget constrains it
DEFAULT_WINDOW = 1 << 20

#: minimum windowed-permutation window (elements); smaller windows pay
#: one python-level loop iteration per handful of rows for no residency
#: benefit
_MIN_WINDOW = 1 << 14

_SPILL_SEQ = itertools.count()
_MANIFEST_SEQ = itertools.count()

#: live mmap stores, for the ``store.bytes_mapped`` gauge (weak so a
#: leaked store never keeps itself alive through the registry)
_LIVE_STORES: "weakref.WeakSet[MmapStore]" = weakref.WeakSet()


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def _stale_entry(path, pid: int, kind: str, now: float) -> dict | None:
    """One stale-artifact report entry; ``None`` if the path is gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return {
        "path": str(path),
        "pid": pid,
        "bytes": int(st.st_size),
        "age_seconds": max(0.0, now - st.st_mtime),
        "kind": kind,
    }


def _unlink_reported(entries: list[dict]) -> list[str]:
    """Unlink every reported path; returns the ones actually removed."""
    removed: list[str] = []
    for entry in entries:
        try:
            os.unlink(entry["path"])
        except OSError:  # racing reaper
            continue
        removed.append(entry["path"])
    return removed


def spill_dir() -> str:
    """Directory holding spill files and manifests (created on first use)."""
    d = os.environ.get("REPRO_SPILL_DIR") or os.path.join(
        tempfile.gettempdir(), "repro-spill"
    )
    os.makedirs(d, exist_ok=True)
    return d


def create_spill_file(nbytes: int, *, directory: str | None = None) -> str:
    """Create a pid-stamped spill file of ``nbytes`` and return its path.

    The owner pid embedded in the name is what lets
    :func:`reap_stale_spill` decide staleness without a manifest.
    """
    d = directory or spill_dir()
    pid = os.getpid()
    for _ in range(8):
        path = os.path.join(
            d, f"{SPILL_PREFIX}{pid}-{next(_SPILL_SEQ)}-{secrets.token_hex(2)}.bin"
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        except FileExistsError:  # pragma: no cover - astronomically unlikely
            continue
        try:
            os.ftruncate(fd, max(int(nbytes), 1))
        finally:
            os.close(fd)
        return path
    raise OSError(f"cannot create a unique spill file under {d}")


# -- byte-budget estimates -------------------------------------------------
#
# Closed-form working-set estimates the storage planner consumes (see
# :func:`plan_storage`).  They count the
# *persistent* per-run arrays a store backs; transient proposal
# temporaries (O(m/2) per swap iteration, required whole-batch for
# bitwise-identical TestAndSet ordering) stay in RAM and are excluded.


def generation_working_set_bytes(m: int) -> int:
    """Bytes the edge-generation phase keeps resident for ``m`` edges."""
    return int(m) * 2 * 8  # u + v, int64


def swap_working_set_bytes(m: int) -> int:
    """Bytes the swap phase's store-backed arrays hold for ``m`` edges.

    Edge endpoints, packed keys, and swapped flags — each double-buffered
    for the windowed permutation's gather target.
    """
    per_edge = 2 * 8 + 8 + 1  # u+v, keys, swapped
    return int(m) * per_edge * 2  # ping-pong twins


def select_store(kind: str, working_set_bytes: int, budget_bytes: int) -> str:
    """Resolve a configured store kind to ``"ram"`` or ``"mmap"``.

    ``"auto"`` spills exactly when a positive ``budget_bytes`` cannot
    hold the estimated working set; a zero budget means unlimited RAM.
    """
    if kind not in STORE_KINDS:
        raise ValueError(f"store must be one of {STORE_KINDS}, got {kind!r}")
    if kind != "auto":
        return kind
    if budget_bytes > 0 and int(working_set_bytes) > int(budget_bytes):
        return "mmap"
    return "ram"


@dataclass(frozen=True)
class StoragePlan:
    """A memory-budget-aware storage decision for one phase.

    Attributes
    ----------
    store:
        Resolved backing store for the phase's persistent arrays:
        ``"ram"`` or ``"mmap"`` (never ``"auto"``).
    window:
        Elements per windowed copy/permutation step.  Sized so one
        window of every simultaneously-touched array fits comfortably in
        the budget; ``0`` when the store is ``"ram"`` (fancy indexing
        stays whole-array).
    reason:
        Human-readable decision record, mirrored into the ``tune.replan``
        trace event (``compare=False`` so plans compare on substance).
    """

    store: str
    window: int
    reason: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.store not in ("ram", "mmap"):
            raise ValueError(f"store must be 'ram' or 'mmap', got {self.store!r}")
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")


def plan_storage(config, *, working_set_bytes: int, phase: str = "run") -> StoragePlan:
    """Choose the store and window size for one phase.

    Deterministic in its inputs: ``config.store`` and
    ``config.memory_budget_bytes`` plus the phase's estimated persistent
    working set.  The plan only moves bytes — outputs are
    bitwise-identical whichever plan comes back.
    """
    budget = int(config.memory_budget_bytes)
    working_set_bytes = int(working_set_bytes)
    store = select_store(config.store, working_set_bytes, budget)
    if store == "ram":
        window = 0
    elif budget > 0:
        # a permutation step touches ~4 arrays (src window, dst window,
        # the order slice, and the gathered source pages), int64 rows;
        # aim each step at ~1/8 of the budget
        window = max(_MIN_WINDOW, min(DEFAULT_WINDOW, budget // (8 * 4 * 8)))
    else:
        window = DEFAULT_WINDOW
    return StoragePlan(
        store=store,
        window=int(window),
        reason=(
            f"{phase}: working_set={working_set_bytes} budget={budget} "
            f"store={config.store!r} -> {store} window={window}"
        ),
    )


# -- stores ----------------------------------------------------------------


class BackingStore:
    """Interface shared by :class:`RamStore` and :class:`MmapStore`.

    ``kind`` is ``"ram"`` or ``"mmap"``; call sites branch on it only for
    the windowed-vs-fancy-index choice — array contents are identical.
    """

    kind = "ram"

    def empty(self, name: str, shape, dtype) -> np.ndarray:
        """Allocate an uninitialized array named ``name`` in this store."""
        raise NotImplementedError

    def appender(self, name: str, dtype) -> "ArrayAppender":
        """A streaming 1-D builder whose result lands in this store."""
        return ArrayAppender(self, name, dtype)

    @property
    def bytes_mapped(self) -> int:
        return 0

    def release(self) -> None:
        """Settle disk debt early (no-op for RAM)."""

    def close(self) -> None:
        """Release and drop every tracked array."""


class RamStore(BackingStore):
    """The historical layout: plain process-RAM arrays."""

    kind = "ram"

    def empty(self, name: str, shape, dtype) -> np.ndarray:
        """Plain ``np.empty`` — the name is accepted for interface parity."""
        return np.empty(shape, dtype=dtype)


class MmapStore(BackingStore):
    """Arrays mapped over pid-stamped spill files.

    Every :meth:`empty` creates one spill file and maps it ``r+``; the
    store's manifest (``repro-spill-<pid>-<seq>.json``) lists the live
    files so :func:`reap_stale_spill` can collect them after a crash.
    :meth:`release` unlinks the files while keeping the maps usable —
    call it once no code needs the *paths* anymore (checkpoint-by-copy
    reads them); the arrays themselves stay valid until garbage
    collected.
    """

    kind = "mmap"

    def __init__(self, *, directory: str | None = None) -> None:
        self._dir = directory or spill_dir()
        self._maps: dict[str, np.memmap] = {}
        self._paths: dict[str, str] = {}
        self._digests: dict[str, list[int]] = {}
        self._manifest_path: str | None = None
        self._released = False
        _LIVE_STORES.add(self)
        # unlink at GC/exit, gated on the creating pid so forked children
        # never collect parent files
        self._finalizer = weakref.finalize(
            self, _unlink_files, dict(self._paths), None, os.getpid()
        )

    def empty(self, name: str, shape, dtype) -> np.ndarray:
        """Allocate ``name`` as an ``r+`` memmap over a fresh spill file."""
        if self._released:
            raise RuntimeError("store was released; no further allocations")
        if name in self._maps:
            raise ValueError(f"store already holds an array named {name!r}")
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        dtype = np.dtype(dtype)
        nbytes = int(dtype.itemsize * int(np.prod(shape, dtype=np.int64)))
        path = create_spill_file(nbytes, directory=self._dir)
        arr = np.memmap(path, dtype=dtype, mode="r+", shape=shape)
        self._maps[name] = arr
        self._paths[name] = path
        self._refresh_manifest()
        return arr

    def adopt_file(self, name: str, path: str, shape, dtype) -> np.ndarray:
        """Map an already-written spill file (an appender's output)."""
        if name in self._maps:
            raise ValueError(f"store already holds an array named {name!r}")
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        arr = np.memmap(path, dtype=np.dtype(dtype), mode="r+", shape=shape)
        self._maps[name] = arr
        self._paths[name] = path
        self._refresh_manifest()
        return arr

    def path_of(self, name: str) -> str | None:
        """Spill-file path backing ``name`` (``None`` after release)."""
        return None if self._released else self._paths.get(name)

    @property
    def bytes_mapped(self) -> int:
        return int(sum(a.nbytes for a in self._maps.values()))

    def flush(self) -> None:
        """Flush every mapping's dirty pages to its file."""
        for arr in self._maps.values():
            arr.flush()

    def _refresh_manifest(self) -> None:
        """Pidfile-stamped manifest of live spill files (best-effort)."""
        try:
            if self._manifest_path is None:
                self._manifest_path = os.path.join(
                    self._dir,
                    f"{SPILL_PREFIX}{os.getpid()}-{next(_MANIFEST_SEQ)}.json",
                )
            payload = {"pid": os.getpid(), "files": list(self._paths.values())}
            if self._digests:
                payload["digests"] = self._digests
            with open(self._manifest_path, "w") as fh:
                json.dump(payload, fh)
        except OSError:  # pragma: no cover - manifest is best-effort
            self._manifest_path = None
        # keep the GC fallback in sync with what is actually on disk
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, _unlink_files, dict(self._paths), self._manifest_path,
            os.getpid(),
        )

    def set_digests(self, name: str, crcs: list[int]) -> None:
        """Record ``name``'s per-window CRCs in the manifest (best-effort).

        Written by :class:`ChunkGuard` at seal time so a post-mortem (or
        the reaper's dry-run report) can tell an intact orphaned spill
        file from a torn one.  Verification on the hot path reads the
        guard's in-memory ledger, never the manifest.
        """
        if self._released:
            return
        self._digests[name] = [int(c) for c in crcs]
        self._refresh_manifest()

    def release(self) -> None:
        """Unlink every spill file and the manifest; maps stay usable."""
        if self._released:
            return
        self._released = True
        self._finalizer.detach()
        _unlink_files(self._paths, self._manifest_path, os.getpid())
        self._paths = {}
        self._manifest_path = None

    def close(self) -> None:
        """Release the files and drop every tracked mapping."""
        self.release()
        self._maps.clear()


def _unlink_files(paths: dict, manifest: str | None, owner_pid: int) -> None:
    """Finalizer body: unlink spill artifacts, only in the owning process."""
    if os.getpid() != owner_pid:
        return
    for path in paths.values():
        try:
            os.unlink(path)
        except OSError:
            pass
    if manifest is not None:
        try:
            os.unlink(manifest)
        except OSError:
            pass


def open_store(kind: str, *, directory: str | None = None) -> BackingStore:
    """Instantiate a resolved store kind (``"ram"`` or ``"mmap"``)."""
    if kind == "ram":
        return RamStore()
    if kind == "mmap":
        return MmapStore(directory=directory)
    raise ValueError(f"cannot open store kind {kind!r} (resolve 'auto' first)")


class ArrayAppender:
    """Streaming 1-D array builder over a backing store.

    Chunked edge generation appends each chunk as it is produced; RAM
    stores buffer the chunks (the historical concatenate), mmap stores
    stream the bytes straight to a spill file and :meth:`finish` maps the
    result — the per-chunk lists never coexist with the full array.
    Values are identical either way.
    """

    def __init__(self, store: BackingStore, name: str, dtype) -> None:
        self._store = store
        self._name = name
        self._dtype = np.dtype(dtype)
        self._count = 0
        self._done = False
        if store.kind == "mmap":
            self._path = create_spill_file(1, directory=store._dir)
            self._file = open(self._path, "r+b")
            self._chunks = None
        else:
            self._path = None
            self._file = None
            self._chunks: list[np.ndarray] = []

    def append(self, values: np.ndarray) -> None:
        """Append one chunk (any array coercible to the target dtype)."""
        if self._done:
            raise RuntimeError("appender already finished")
        arr = np.ascontiguousarray(values, dtype=self._dtype).reshape(-1)
        if not len(arr):
            return
        if self._file is not None:
            self._file.write(arr.tobytes())
        else:
            self._chunks.append(arr)
        self._count += len(arr)

    def finish(self) -> np.ndarray:
        """Seal the appender and return the assembled array."""
        if self._done:
            raise RuntimeError("appender already finished")
        self._done = True
        if self._file is not None:
            self._file.truncate(max(self._count * self._dtype.itemsize, 1))
            self._file.flush()
            self._file.close()
            if self._count == 0:
                # nothing was written: surrender the placeholder file and
                # hand back an ordinary empty array
                try:
                    os.unlink(self._path)
                except OSError:  # pragma: no cover
                    pass
                return np.empty(0, dtype=self._dtype)
            return self._store.adopt_file(
                self._name, self._path, (self._count,), self._dtype
            )
        if not self._chunks:
            return np.empty(0, dtype=self._dtype)
        out = np.concatenate(self._chunks)
        self._chunks = []
        return out


class ChunkGuard:
    """Per-window CRC ledger for store-backed arrays.

    Spill files sit on disk for whole swap phases; a bit that rots there
    comes back through the next windowed read as a silently different
    edge.  The guard seals an array after a phase writes it (one CRC-32
    per ``window`` elements, computed windowed so nothing out-of-core is
    ever fully resident) and checks it before the next phase trusts it,
    raising :class:`repro.verify.ChecksumError` on the first divergent
    window.  Sealed digests are mirrored into the owning
    :class:`MmapStore`'s manifest for post-mortems; the hot-path check
    reads only the in-memory ledger.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, store: BackingStore | None = None) -> None:
        self.window = max(int(window), 1)
        self._crcs: dict[str, list[int]] = {}
        self._store = store if isinstance(store, MmapStore) else None

    def _window_crcs(self, arr: np.ndarray) -> list[int]:
        flat = arr.reshape(-1)
        return [
            zlib.crc32(flat[lo : lo + self.window].tobytes()) & 0xFFFFFFFF
            for lo in range(0, len(flat), self.window)
        ]

    def seal(self, name: str, arr: np.ndarray) -> None:
        """Record ``arr``'s current per-window CRCs under ``name``."""
        crcs = self._window_crcs(arr)
        self._crcs[name] = crcs
        if self._store is not None:
            self._store.set_digests(name, crcs)

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


# -- stale-spill reaping ---------------------------------------------------


def report_stale_spill(*, directory: str | None = None) -> list[dict]:
    """Spill artifacts whose owning process is gone; removes nothing.

    Two sweeps of the spill directory, both restricted to this library's
    naming scheme:

    1. **manifests** — every ``repro-spill-<pid>-<seq>.json`` whose
       stamped pid is dead, plus the files it lists;
    2. **name scan** — every ``repro-spill-<pid>-…`` file with a dead
       owner pid (covers files created outside a store, e.g. a streaming
       appender's output).

    Returns one dict per artifact — ``{"path", "pid", "bytes",
    "age_seconds", "kind"}``; :func:`reap_stale_spill` removes exactly
    these paths, and the bench CLI's ``--reap-dry-run`` prints them.
    """
    try:
        d = directory or spill_dir()
    except OSError:  # pragma: no cover - unusable temp dir
        return []
    if not os.path.isdir(d):
        return []
    now = time.time()
    seen: set[str] = set()
    report: list[dict] = []

    def add(path: str, pid: int) -> None:
        if path in seen:
            return
        entry = _stale_entry(path, pid, "spill", now)
        if entry is not None:
            seen.add(path)
            report.append(entry)

    names = sorted(os.listdir(d))
    for fn in names:
        if not (fn.startswith(SPILL_PREFIX) and fn.endswith(".json")):
            continue
        path = os.path.join(d, fn)
        try:
            with open(path) as fh:
                data = json.load(fh)
            pid = int(data.get("pid", -1))
            files = list(data.get("files", ()))
        except (OSError, ValueError, TypeError):
            continue  # torn write or foreign file: leave it alone
        if _pid_alive(pid):
            continue
        for target in files:
            if os.path.basename(target).startswith(SPILL_PREFIX):
                add(target, pid)
        add(path, pid)
    for fn in names:
        if not (fn.startswith(SPILL_PREFIX) and fn.endswith(".bin")):
            continue
        stem = fn[len(SPILL_PREFIX):]
        try:
            pid = int(stem.split("-", 1)[0])
        except ValueError:
            continue
        if not _pid_alive(pid):
            add(os.path.join(d, fn), pid)
    return report


def reap_stale_spill(*, directory: str | None = None) -> list[str]:
    """Unlink the artifacts :func:`report_stale_spill` lists.

    Returns the paths actually removed.  Safe to run concurrently with
    live runs (live owners are skipped) and with other reapers (races
    resolve to one winner).  Wired into the bench CLI and the serving
    broker so crashed runs are collected automatically.
    """
    return _unlink_reported(report_stale_spill(directory=directory))
