"""Crash-consistent checkpoint/resume for long swap chains and pipelines.

The paper's experiments mix for ``Km`` swap attempts over graphs with
hundreds of millions of edges — exactly the runs that a parent-process
crash (OOM kill, preemption, ctrl-C) should not send back to square one.
This module turns the swap engine and the generation pipeline into
*durable* runs: the driver periodically writes a snapshot of everything
needed to continue — the current edge arrays, the swap RNG stream state,
the accumulated statistics, and the phase cursor — and a restarted
driver replays nothing, resuming **bitwise-identically** to an
uninterrupted run with the same seed.

Snapshots are taken only at *reconstructible* boundaries:

- ``swap_edges`` snapshots at permutation-round boundaries, where the
  concurrent hash table is a pure function of the edge array (every
  iteration begins with ``clear()`` + re-registration), so no
  hash-table state ever needs serializing;
- ``generate_graph`` additionally snapshots at phase boundaries
  (probabilities → edges → swap) and marks the run ``done`` at the end.

Crash consistency is the tmp-file + ``os.replace`` discipline used by
write-ahead logs everywhere: each array is streamed to its own
temporary, fsynced, renamed; only then is the versioned JSON manifest
(run fingerprint, phase, swap-round cursor, per-array length and
SHA-256) written the same way.  A reader accepts a snapshot only if its
manifest parses, its format version matches, and every payload file's
length and checksum verify — a snapshot truncated at *any* byte is
detected and the previous snapshot is used instead (the store retains
the last few).

Temporaries keep a name because they are renamed into durable
snapshots, so a writer killed mid-save leaves one behind.  A store has
one writer, so once a save is durable every other temporary in it is
such a leftover: each save removes them along with the snapshots beyond
the newest ``keep``.  Nothing sweeps stores from outside; a finished
run's store stays until its owner deletes it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import trace as obs_trace

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "Checkpoint",
    "CheckpointStore",
    "run_fingerprint",
]

logger = logging.getLogger(__name__)

#: On-disk snapshot format version; bumped on incompatible layout changes.
FORMAT_VERSION = 1

#: Phases a snapshot may record, in pipeline order.
PHASES = ("probabilities", "edges", "swap", "done")

#: Streaming chunk for raw payload writes/verifies (bytes).
_RAW_CHUNK = 1 << 22


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


class CheckpointMismatchError(CheckpointError):
    """A valid snapshot exists but belongs to a different run.

    Raised when the newest *readable* snapshot's fingerprint does not
    match the resuming run's — continuing would silently mix two
    different (seed, input, config) runs.
    """


def run_fingerprint(**fields) -> str:
    """Digest identifying a run for resume-compatibility checks.

    Callers pass the fields that pin down the run's *output* — input
    digest, seed, logical thread count, iteration budget, null-model
    space — and get a stable hex digest.  Execution details that do not
    change the output (the backend) must be left out: resuming a
    ``serial``-backend swap checkpoint on the ``vectorized`` backend is
    explicitly supported, because both swap engines are
    bitwise-identical.
    """
    payload = json.dumps(
        {k: fields[k] for k in sorted(fields)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Checkpoint:
    """One decoded snapshot: the phase cursor plus its saved state.

    ``arrays`` holds the numpy payload (edge endpoint arrays, the
    swapped-at-least-once mask — whatever the phase recorded) as
    read-only maps of the payload files; ``meta`` holds the JSON-safe
    state (RNG stream state, accumulated statistics, per-phase wall
    seconds).
    """

    phase: str
    swap_round: int
    fingerprint: str
    seq: int
    arrays: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _fsync_dir(path: str) -> None:
    """Flush directory metadata so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY dirs on odd fs
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def _tmp_name(directory: Path, suffix: str) -> Path:
    """A fresh temporary path (``.tmp-<hex><suffix>``)."""
    return directory / f".tmp-{secrets.token_hex(4)}{suffix}"


def _atomic_write(directory: Path, final: Path, data: bytes) -> None:
    """Write ``data`` to ``final`` via tmp-file + fsync + rename."""
    tmp = _tmp_name(directory, final.suffix)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {final}: {exc}") from exc
    _fsync_dir(str(directory))


class CheckpointStore:
    """A directory of crash-consistent snapshots for one run.

    Snapshot ``seq`` is one ``snap-<seq>-<name>.raw`` file per array
    plus the ``snap-<seq>.json`` manifest.  Arrays are streamed in
    bounded chunks (never buffering the whole payload in RAM) and
    re-mapped read-only at load time, so checkpointing an out-of-core
    run costs no resident memory.  :meth:`save` is atomic — a crash at
    any byte leaves either the previous snapshot set or a complete new
    one, never a half-readable state — and prunes all but the newest
    ``keep`` snapshots, along with any temporary that a writer killed
    mid-save left behind.  :meth:`load_latest` walks snapshots newest
    first, skipping any whose manifest or payload fails validation, so a
    torn write transparently falls back to the previous snapshot.
    Snapshots in the retired npz layout (no ``arrays`` manifest entry)
    fail that validation too, so a run resuming from one starts over.

    Parameters
    ----------
    directory:
        Snapshot directory (created on first use).  One run and one
        writer per directory; reusing a directory across *different*
        runs is caught by the fingerprint check at resume time.
    keep:
        Number of most-recent snapshots retained (≥ 2 so the
        corruption fallback always has somewhere to land).
    """

    def __init__(self, directory, *, keep: int = 3) -> None:
        self._dir = Path(directory)
        self._keep = max(2, int(keep))
        self._seq: int | None = None

    @property
    def directory(self) -> Path:
        """The snapshot directory."""
        return self._dir

    # -- write -----------------------------------------------------------

    def _next_seq(self) -> int:
        if self._seq is None:
            self._seq = max(
                (s for s, _ in self._manifests()),
                default=-1,
            )
        self._seq += 1
        return self._seq

    def save(
        self,
        phase: str,
        *,
        swap_round: int = 0,
        arrays: dict | None = None,
        meta: dict | None = None,
        fingerprint: str = "",
    ) -> int:
        """Write one snapshot durably; returns its sequence number.

        Every payload file is renamed into place before the manifest, so
        a manifest on disk always refers to fully written payloads; the
        manifest carries each file's length and SHA-256, so truncation of
        *any* file is detected at load time.
        """
        if phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
        self._dir.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq()
        entries = {}
        total = 0
        for name, arr in (arrays or {}).items():
            arr = np.ascontiguousarray(arr)
            fname = f"snap-{seq:08d}-{name}.raw"
            entries[name] = {
                "file": fname,
                "dtype": arr.dtype.str,
                "shape": [int(s) for s in arr.shape],
                "bytes": int(arr.nbytes),
                "sha256": self._write_raw(self._dir / fname, arr),
            }
            total += int(arr.nbytes)
        manifest = {
            "version": FORMAT_VERSION,
            "seq": seq,
            "phase": phase,
            "swap_round": int(swap_round),
            "fingerprint": fingerprint,
            "meta": meta or {},
            # marks the layout for readers that also know the npz one
            "payload_kind": "raw",
            "arrays": entries,
            "payload_bytes": total,
        }
        _atomic_write(
            self._dir,
            self._dir / f"snap-{seq:08d}.json",
            json.dumps(manifest).encode(),
        )
        self._prune()
        tr = obs_trace.current()
        if tr is not None:
            tr.event(
                "checkpoint.write", phase=phase, seq=seq,
                swap_round=int(swap_round), bytes=total,
            )
            tr.metrics.inc("checkpoint.writes")
            tr.metrics.inc("checkpoint.bytes", total)
        return seq

    def _write_raw(self, final: Path, arr: np.ndarray) -> str:
        """Stream one array to ``final`` atomically; returns its SHA-256.

        The array is written in :data:`_RAW_CHUNK` slices so a mapped
        source is never pulled into RAM wholesale.
        """
        mv = memoryview(arr).cast("B")
        digest = hashlib.sha256()
        tmp = _tmp_name(self._dir, final.suffix)
        try:
            with open(tmp, "wb") as fh:
                for lo in range(0, len(mv), _RAW_CHUNK):
                    chunk = mv[lo : lo + _RAW_CHUNK]
                    fh.write(chunk)
                    digest.update(chunk)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise CheckpointError(
                f"cannot write checkpoint {final}: {exc}") from exc
        _fsync_dir(str(self._dir))
        return digest.hexdigest()

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` snapshots, and every temporary.

        Runs once a save is durable.  A store has one writer, so a
        ``.tmp-`` file present then was left by a writer killed mid-save
        and will never be renamed into place.  Best-effort.
        """
        seqs = sorted((s for s, _ in self._manifests()), reverse=True)
        names = self._names()
        self._unlink(
            [fn for fn in names if fn.startswith(".tmp-")]
            + self._snapshot_files(names, seqs[self._keep :])
        )

    @staticmethod
    def _snapshot_files(names: list[str], seqs) -> list[str]:
        """The file names in ``names`` belonging to the snapshots ``seqs``.

        Covers each manifest (``snap-<seq>.json``) and its per-array
        payload files (``snap-<seq>-<name>.raw``).
        """
        stems = tuple(f"snap-{seq:08d}{sep}" for seq in seqs for sep in ".-")
        return [fn for fn in names if fn.startswith(stems)]

    def _unlink(self, names: list[str]) -> None:
        for fn in names:
            try:
                os.unlink(self._dir / fn)
            except OSError:  # pragma: no cover - removed meanwhile
                pass

    # -- read ------------------------------------------------------------

    def _names(self) -> list[str]:
        """Every file name in the store (none before the first save)."""
        try:
            return os.listdir(self._dir)
        except OSError:
            return []

    def _manifests(self) -> list[tuple[int, Path]]:
        """``(seq, path)`` of every manifest file, unvalidated."""
        out = []
        for fn in self._names():
            if fn.startswith("snap-") and fn.endswith(".json"):
                try:
                    out.append((int(fn[5:-5]), self._dir / fn))
                except ValueError:
                    continue
        return out

    def _decode(self, seq: int, path: Path) -> Checkpoint | None:
        """Validate and decode one snapshot; ``None`` if unusable."""
        try:
            with open(path, "rb") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict):
            return None
        if manifest.get("version") != FORMAT_VERSION:
            return None
        arrays = self._read_raw_arrays(manifest)
        if arrays is None:
            return None
        return Checkpoint(
            phase=str(manifest.get("phase", "")),
            swap_round=int(manifest.get("swap_round", 0)),
            fingerprint=str(manifest.get("fingerprint", "")),
            seq=seq,
            arrays=arrays,
            meta=manifest.get("meta", {}) or {},
        )

    def _read_raw_arrays(self, manifest: dict) -> dict | None:
        """Validate and map a snapshot's arrays; ``None`` if torn.

        Each file's size and streamed SHA-256 must match its manifest
        entry before the array is exposed.  Arrays come back as
        *read-only* memmaps of the snapshot files themselves — zero
        resident cost, and safe because resume paths copy into their own
        working arrays before mutating.
        """
        entries = manifest.get("arrays")
        if not isinstance(entries, dict):
            return None
        arrays: dict[str, np.ndarray] = {}
        for name, ent in entries.items():
            if not isinstance(ent, dict):
                return None
            path = self._dir / str(ent.get("file", ""))
            try:
                dtype = np.dtype(str(ent.get("dtype")))
                shape = tuple(int(s) for s in ent.get("shape", ()))
            except (TypeError, ValueError):
                return None
            nbytes = int(np.prod(shape, dtype=np.int64) * dtype.itemsize)
            try:
                size = os.stat(path).st_size
            except OSError:
                return None
            if size != ent.get("bytes") or size != nbytes:
                return None
            digest = hashlib.sha256()
            try:
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(_RAW_CHUNK), b""):
                        digest.update(chunk)
            except OSError:
                return None
            if digest.hexdigest() != ent.get("sha256"):
                return None
            if nbytes == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
                continue
            try:
                arrays[name] = np.memmap(path, dtype=dtype, mode="r",
                                         shape=shape)
            except (OSError, ValueError):
                return None
        return arrays

    def _failed_digest(self, path: Path) -> str:
        """The sha256 a failed snapshot's manifest *claimed*, best-effort."""
        try:
            with open(path, "rb") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return "<manifest unreadable>"
        if not isinstance(manifest, dict):
            return "<manifest malformed>"
        entries = manifest.get("arrays")
        if isinstance(entries, dict):
            digests = [
                str(e.get("sha256", "?"))
                for e in entries.values()
                if isinstance(e, dict)
            ]
            if digests:
                return ",".join(digests)
        return "<no digest recorded>"

    def load_latest(self, fingerprint: str | None = None) -> Checkpoint | None:
        """Newest snapshot that passes validation, or ``None``.

        Corrupt or truncated snapshots are skipped (the atomic write
        discipline means a *torn* snapshot can only be the newest; more
        than one failure, or a failure in an older snapshot, is evidence
        of bitrot).  Every skip is surfaced: a WARNING log line naming
        the failed snapshot and the digest its manifest claimed, a
        ``checkpoint.fallback`` obs event, and a
        ``checkpoint.fallbacks`` metric — falling back must never be
        silent, because it replays work and may mask a corrupt disk.

        If ``fingerprint`` is given and the newest *valid* snapshot
        carries a different one, :class:`CheckpointMismatchError` is
        raised — falling back to an older snapshot would not fix a
        wrong-run directory, and resuming it would corrupt the output.
        """
        skipped: list[tuple[int, Path]] = []
        for seq, path in sorted(self._manifests(), reverse=True):
            snap = self._decode(seq, path)
            if snap is None:
                skipped.append((seq, path))
                continue
            if fingerprint is not None and snap.fingerprint != fingerprint:
                raise CheckpointMismatchError(
                    f"checkpoint {path} belongs to a different run "
                    f"(fingerprint {snap.fingerprint[:12]}… != {fingerprint[:12]}…); "
                    "refusing to resume"
                )
            if skipped:
                self._warn_fallback(skipped, snap)
            return snap
        if skipped:
            self._warn_fallback(skipped, None)
        return None

    def _warn_fallback(
        self, skipped: list[tuple[int, Path]], snap: Checkpoint | None
    ) -> None:
        """Surface skipped (corrupt/torn) snapshots on the fallback path."""
        for seq, path in skipped:
            digest = self._failed_digest(path)
            logger.warning(
                "checkpoint fallback: snapshot %s failed validation "
                "(manifest claimed sha256 %s); %s",
                path,
                digest,
                f"resuming from snapshot seq={snap.seq}" if snap is not None
                else "no older valid snapshot remains",
            )
            tr = obs_trace.current()
            if tr is not None:
                tr.event(
                    "checkpoint.fallback",
                    failed_seq=seq,
                    failed_path=str(path),
                    failed_sha256=digest,
                    resumed_seq=snap.seq if snap is not None else None,
                )
                tr.metrics.inc("checkpoint.fallbacks")

    def clear(self) -> None:
        """Remove every snapshot file in the store (the directory stays)."""
        seqs = [s for s, _ in self._manifests()]
        self._unlink(self._snapshot_files(self._names(), seqs))
        self._seq = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CheckpointStore({self._dir})"


def as_store(source) -> CheckpointStore | None:
    """Coerce ``None`` / path / :class:`CheckpointStore` to a store."""
    if source is None or isinstance(source, CheckpointStore):
        return source
    return CheckpointStore(source)
