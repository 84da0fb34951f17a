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
(ties resolved deterministically via :func:`repro.parallel.atomics.resolve_claims`;
losers re-read the slot next round, exactly like a failed CAS), and keys
that see a different key advance their probe sequence.  Contention
statistics are accumulated so experiments can verify the paper's claim
that collisions are rare.
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
    """SplitMix64 finalizer — the fast, well-mixing integer hash."""
    z = keys.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
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
        self._mask = np.uint64(n_slots - 1)
        self._slots = np.full(n_slots, EMPTY_KEY, dtype=np.int64)
        # scratch array for CAS-winner resolution by scatter-min: one slot
        # of state per table slot, reset (touched entries only) per round
        self._claim_scratch = np.full(n_slots, np.iinfo(np.int64).max, dtype=np.int64)
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

    def _probe_offsets(self, r: np.ndarray) -> np.ndarray:
        if self.probing == "linear":
            return r.astype(np.uint64)
        # quadratic probing with triangular offsets r(r+1)/2, which is a
        # complete residue sequence modulo a power of two
        r64 = r.astype(np.uint64)
        return (r64 * (r64 + np.uint64(1))) >> np.uint64(1)

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

        home = _splitmix64(keys)
        probe = np.zeros(n, dtype=np.int64)
        unresolved = np.arange(n)

        max_rounds = 2 * self.n_slots + 4
        for _ in range(max_rounds):
            if len(unresolved) == 0:
                break
            k = keys[unresolved]
            slot = ((home[unresolved] + self._probe_offsets(probe[unresolved])) & self._mask).astype(
                np.int64
            )
            existing = self._slots[slot]

            is_mine = existing == k
            is_empty = existing == EMPTY_KEY
            is_other = ~is_mine & ~is_empty

            # already present: resolve as "true"
            present[unresolved[is_mine]] = True

            # empty slot: CAS claim; deterministic lowest-index winner,
            # resolved by scatter-min into the slot-domain scratch array
            # (equivalent to atomics.resolve_claims, without the sort)
            claim_idx = unresolved[is_empty]
            if len(claim_idx):
                claim_slots = slot[is_empty]
                scratch = self._claim_scratch
                np.minimum.at(scratch, claim_slots, claim_idx)
                won = scratch[claim_slots] == claim_idx
                scratch[claim_slots] = np.iinfo(np.int64).max
                self.stats.attempts += len(claim_idx)
                self.stats.failures += int(len(claim_idx) - won.sum())
                self.stats.rounds += 1
                winners = claim_idx[won]
                self._slots[claim_slots[won]] = keys[winners]
                self.size += len(winners)
                # losers re-read the same slot next round (failed CAS)

            # different key: advance the probe sequence
            adv = unresolved[is_other]
            probe[adv] += 1
            if len(adv):
                self.max_probe = max(self.max_probe, int(probe[adv].max()))

            keep = np.zeros(len(unresolved), dtype=bool)
            keep[is_other] = True
            if len(claim_idx):
                lost = np.zeros(len(claim_idx), dtype=bool)
                lost[~won] = True
                keep[np.flatnonzero(is_empty)[lost]] = True
            unresolved = unresolved[keep]
        if len(unresolved):
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
            slot = (home + off) & int(self._mask)
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
        home = _splitmix64(keys)
        probe = np.zeros(n, dtype=np.int64)
        unresolved = np.arange(n)
        for _ in range(self.n_slots + 1):
            if len(unresolved) == 0:
                break
            k = keys[unresolved]
            slot = ((home[unresolved] + self._probe_offsets(probe[unresolved])) & self._mask).astype(
                np.int64
            )
            existing = self._slots[slot]
            hit = existing == k
            miss = existing == EMPTY_KEY
            found[unresolved[hit]] = True
            cont = ~hit & ~miss
            probe[unresolved[cont]] += 1
            unresolved = unresolved[cont]
        return found
