"""Concurrent open-addressing hash table for edge-simplicity checks.

This reproduces the table the paper adapts from Slota et al. [33]:

- an undirected edge ``{u, v}`` is packed into a single 64-bit key
  (32 bits per endpoint, smaller id in the high half so the key is
  canonical regardless of input orientation);
- open addressing with linear (default) or quadratic probing;
- a ``TestAndSet`` operation that inserts the key and reports whether it
  was already present — "returns true if the key is already in the table
  and false otherwise" (Algorithm III.1);
- insertions are lock-free: a thread claims an empty slot with a CAS and
  only blocks when two threads collide on the same slot in the same
  round.

The vectorized engine executes exactly that protocol round-by-round over a
batch of keys: every unresolved key probes its current slot, keys that see
their own value report "present", keys that see an empty slot CAS-claim it
in the slot itself (each claimant scatter-mins a claim marker, which sorts
below every key and ``EMPTY_KEY``, into the empty slot; the lowest batch
index wins, writes its key over the marker, and the losers re-read the
slot next round, exactly like a failed CAS), and keys that see a different
key advance their probe sequence.  The table is one slot array, and no
marker outlives its round.  Contention statistics are accumulated so
experiments can verify the paper's claim that collisions are rare.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.atomics import ContentionStats

__all__ = [
    "ConcurrentEdgeHashTable",
    "pack_edges",
    "unpack_edges",
    "EMPTY_KEY",
]

#: Sentinel stored in empty slots.  Valid packed keys are non-negative.
EMPTY_KEY = np.int64(-1)

_MAX_VERTEX = np.int64(2**32 - 1)

#: Offset of a CAS claim marker: the claimant at compacted position ``p``
#: writes ``p + _CLAIM`` into the empty slot it saw, below ``EMPTY_KEY``
#: and every packed key.
_CLAIM = np.int64(-(2**62))


def pack_edges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pack undirected edges ``{u, v}`` into canonical 64-bit keys.

    The smaller endpoint occupies the high 32 bits, so ``pack(u, v) ==
    pack(v, u)`` and distinct vertex pairs map to distinct keys.  Vertex
    ids must fit in 32 bits (the paper packs two 32-bit ids per key).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size and (u.min() < 0 or v.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if u.size and (u.max() > _MAX_VERTEX or v.max() > _MAX_VERTEX):
        raise ValueError("vertex ids must fit in 32 bits")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return (lo << np.int64(32)) | hi


def unpack_edges(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_edges`; returns ``(u, v)`` with ``u <= v``."""
    keys = np.asarray(keys, dtype=np.int64)
    u = keys >> np.int64(32)
    v = keys & np.int64(0xFFFFFFFF)
    return u, v


def _splitmix64(keys: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — the fast, well-mixing integer hash.

    Mixes a copy of ``keys`` in place, through one shift buffer.
    """
    z = keys.astype(np.uint64, copy=True)
    t = np.empty_like(z)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


class ConcurrentEdgeHashTable:
    """Open-addressing set of packed edge keys with TestAndSet semantics.

    Parameters
    ----------
    capacity_hint:
        Expected number of distinct keys.  The slot array is sized to the
        next power of two at most half full, so probe sequences stay
        short.
    probing:
        ``"linear"`` (default, the paper's primary choice) or
        ``"quadratic"`` — triangular-number offsets, which for a
        power-of-two table also visit every slot.
    """

    def __init__(self, capacity_hint: int, *, probing: str = "linear") -> None:
        if capacity_hint < 0:
            raise ValueError("capacity_hint must be >= 0")
        if probing not in ("linear", "quadratic"):
            raise ValueError(f"probing must be 'linear' or 'quadratic', got {probing!r}")
        self.probing = probing
        n_slots = 1
        while n_slots < max(2 * capacity_hint, 16):
            n_slots *= 2
        self._mask = n_slots - 1
        self._slots = np.full(n_slots, EMPTY_KEY, dtype=np.int64)
        self.size = 0
        self.stats = ContentionStats()
        self.max_probe = 0

    @property
    def n_slots(self) -> int:
        """Number of slots in the backing array."""
        return len(self._slots)

    def clear(self) -> None:
        """Empty the table in place (Algorithm III.1 line 23)."""
        self._slots.fill(EMPTY_KEY)
        self.size = 0

    def _home_slots(self, keys: np.ndarray) -> np.ndarray:
        """Each key's first probe slot: its SplitMix64 hash, masked."""
        z = _splitmix64(keys)
        z &= self._mask
        return z.view(np.int64)

    def _advance(self, slot: np.ndarray, probe: np.ndarray, moved) -> None:
        """Step the ``moved`` keys one place along their probe sequences.

        Updates ``slot`` and ``probe`` in place.  Linear probing steps by
        one; quadratic probing steps by the new probe count ``r``, so the
        offsets telescope to the triangular numbers ``r(r+1)/2`` — a
        complete residue sequence modulo a power of two.
        """
        probe += moved
        slot += moved if self.probing == "linear" else probe * moved
        slot &= self._mask

    # -- vectorized concurrent protocol ---------------------------------

    def test_and_set(self, keys: np.ndarray) -> np.ndarray:
        """Insert ``keys``; return per-key "was already present" flags.

        Executes the lock-free insertion protocol round-by-round over the
        whole batch.  A key duplicated within the batch behaves exactly as
        two racing threads would: one insertion wins, the other observes
        the key and reports present.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("test_and_set expects a 1-D key array")
        if np.any(keys < 0):
            raise ValueError("keys must be non-negative (packed edges)")
        n = len(keys)
        present = np.zeros(n, dtype=bool)
        if n == 0:
            return present

        # The unresolved keys stay compacted in batch order as four arrays:
        # key, current slot, probe count and batch position.  Round 0 holds
        # the whole batch, in batch order, at probe 0, so the last two are
        # allocated only for the keys that survive it.
        key = keys
        slot = self._home_slots(keys)
        probe = pos = None

        max_rounds = 2 * self.n_slots + 4
        for _ in range(max_rounds):
            if len(key) == 0:
                break
            existing = self._slots[slot]
            is_mine = existing == key
            is_empty = existing == EMPTY_KEY
            # round 0 holds batch-length arrays: free each one once dead
            del existing

            # already present: resolve as "true"
            present[is_mine if pos is None else pos[is_mine]] = True
            keep = ~is_mine

            # empty slot: CAS claim in the slot itself.  Each claimant
            # scatter-mins its marker (compacted position + _CLAIM) into
            # the slot and wins iff its own marker reads back; compaction
            # keeps batch order, so the lowest position is the lowest
            # batch index.  Every claimed slot has exactly one winner,
            # whose key overwrites the marker, so no marker survives
            claim = np.flatnonzero(is_empty)
            if len(claim):
                claim_slots = slot[claim]
                claim += _CLAIM
                np.minimum.at(self._slots, claim_slots, claim)
                won = self._slots[claim_slots] == claim
                claim -= _CLAIM
                self.stats.attempts += len(claim)
                claim = claim[won]
                claim_slots = claim_slots[won]
                self.stats.failures += len(won) - len(claim)
                self.stats.rounds += 1
                del won
                self._slots[claim_slots] = key[claim]
                self.size += len(claim)
                # losers re-read the same slot next round (failed CAS)
                keep[claim] = False

            # compact the state once; keys that saw a different key
            # advance their probe sequence
            idx = np.flatnonzero(keep)
            moved = ~is_empty[idx]
            key, slot = key[idx], slot[idx]
            if pos is None:
                pos, probe = idx, np.zeros(len(idx), dtype=np.int64)
            else:
                probe, pos = probe[idx], pos[idx]
            self._advance(slot, probe, moved)
            if len(probe):
                self.max_probe = max(self.max_probe, int(probe.max()))
        if len(key):
            raise RuntimeError(
                "hash table full: probing did not terminate "
                f"(size={self.size}, slots={self.n_slots})"
            )
        return present

    def test_and_set_serial(self, keys: np.ndarray) -> np.ndarray:
        """Serial reference TestAndSet, one key at a time."""
        keys = np.asarray(keys, dtype=np.int64)
        present = np.zeros(len(keys), dtype=bool)
        for i, k in enumerate(keys):
            present[i] = self._test_and_set_one(int(k))
        return present

    def _test_and_set_one(self, key: int) -> bool:
        if key < 0:
            raise ValueError("keys must be non-negative (packed edges)")
        home = int(_splitmix64(np.asarray([key], dtype=np.int64))[0])
        for r in range(self.n_slots):
            off = r if self.probing == "linear" else (r * (r + 1)) // 2
            slot = (home + off) & self._mask
            existing = int(self._slots[slot])
            if existing == key:
                return True
            if existing == int(EMPTY_KEY):
                self._slots[slot] = key
                self.size += 1
                self.max_probe = max(self.max_probe, r)
                return False
        raise RuntimeError("hash table full")

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership test without insertion."""
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        found = np.zeros(n, dtype=bool)
        if n == 0:
            return found
        key = keys
        slot = self._home_slots(keys)
        probe = np.zeros(n, dtype=np.int64)
        pos = np.arange(n)
        for _ in range(self.n_slots + 1):
            if len(key) == 0:
                break
            existing = self._slots[slot]
            hit = existing == key
            found[pos[hit]] = True
            idx = np.flatnonzero(~hit & (existing != EMPTY_KEY))
            key, slot, probe, pos = key[idx], slot[idx], probe[idx], pos[idx]
            self._advance(slot, probe, True)
        return found
