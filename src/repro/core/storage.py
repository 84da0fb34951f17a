"""Spill files for the swap phase's big per-run arrays (out-of-core engine).

The swap phase (Algorithm III.1) is the one step that keeps m-sized
arrays alive across passes: edge endpoints, packed table keys and the
swapped-at-least-once flags.  In RAM they silently cap the reproduction
at graphs that fit in memory.  When
:attr:`~repro.parallel.runtime.ParallelConfig.memory_budget_bytes` is
positive and below :func:`swap_working_set_bytes`, ``swap_edges`` puts
them in an :class:`MmapStore` instead: arrays mapped over *spill files*
with ``np.memmap``, so the OS pages windows of the working set in and
out and the resident footprint is bounded by the touched window, not
the graph size.  :func:`spill_window` is that decision.

Spilling only changes *where* array bytes live, never what they hold: a
spilled run is bitwise-identical to its in-RAM twin for the same seed
and config (enforced by the cross-store differential tests).

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

import numpy as np

__all__ = [
    "MmapStore",
    "ChunkGuard",
    "spill_window",
    "spill_dir",
    "reap_stale_spill",
    "report_stale_spill",
    "create_spill_file",
    "copy_into",
    "permute_into",
    "swap_working_set_bytes",
    "total_bytes_mapped",
    "DEFAULT_WINDOW",
]

#: filename prefix of every spill artifact (files and manifests); the
#: reaper only ever touches names carrying it
SPILL_PREFIX = "repro-spill-"

#: largest window (elements) of a spilled swap phase, and the default of
#: the windowed kernels
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
    """Arrays mapped over pid-stamped spill files.

    Every :meth:`empty` creates one spill file and maps it ``r+``; the
    store's manifest (``repro-spill-<pid>-<seq>.json``) lists the live
    files so :func:`reap_stale_spill` can collect them after a crash.
    :meth:`release` unlinks the files while keeping the maps usable; the
    arrays themselves stay valid until garbage collected.
    """

    def __init__(self, *, directory: str | None = None) -> None:
        self._dir = directory or spill_dir()
        self._maps: dict[str, np.memmap] = {}
        self._paths: dict[str, str] = {}
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

    def path_of(self, name: str) -> str | None:
        """Spill-file path backing ``name`` (``None`` after release)."""
        return None if self._released else self._paths.get(name)

    @property
    def bytes_mapped(self) -> int:
        return int(sum(a.nbytes for a in self._maps.values()))

    def _refresh_manifest(self) -> None:
        """Pidfile-stamped manifest of live spill files (best-effort)."""
        try:
            if self._manifest_path is None:
                self._manifest_path = os.path.join(
                    self._dir,
                    f"{SPILL_PREFIX}{os.getpid()}-{next(_MANIFEST_SEQ)}.json",
                )
            payload = {"pid": os.getpid(), "files": list(self._paths.values())}
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

    def release(self) -> None:
        """Unlink every spill file and the manifest; maps stay usable."""
        if self._released:
            return
        self._released = True
        self._finalizer.detach()
        _unlink_files(self._paths, self._manifest_path, os.getpid())
        self._paths = {}
        self._manifest_path = None


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


# -- stale-spill reaping ---------------------------------------------------


def report_stale_spill(*, directory: str | None = None) -> list[dict]:
    """Spill artifacts whose owning process is gone; removes nothing.

    Two sweeps of the spill directory, both restricted to this library's
    naming scheme:

    1. **manifests** — every ``repro-spill-<pid>-<seq>.json`` whose
       stamped pid is dead, plus the files it lists;
    2. **name scan** — every ``repro-spill-<pid>-…`` file with a dead
       owner pid (covers files a crash left unlisted, e.g. one created
       just before its manifest was rewritten).

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
