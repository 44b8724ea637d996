"""In-enclave LRU cache over hot key-value pairs (ShieldOpt+cache).

Section 6.3 adds "a simple cache design to use the remaining memory of
EPC efficiently at small working set sizes": plaintext copies of hot
entries live in enclave memory, so a hit skips the untrusted walk,
decryption and integrity verification entirely.  The cache is backed by
a real enclave allocation and every hit/miss touches addresses inside
it, so EPC pressure (and paging, if the cache is configured larger than
the EPC) emerges from the simulator rather than being assumed.
"""

from __future__ import annotations

from collections import OrderedDict
from repro.sim.enclave import Enclave, ExecContext


def clamp_touch_offset(offset: int, size: int, capacity_bytes: int) -> int:
    """Clamp a notional cache offset so [offset, offset+size) stays
    inside a ``capacity_bytes`` allocation.

    Wraps first (cursors run past the end by design), then pins the
    span's tail to the allocation's end.  Entries as large as the whole
    capacity map to offset 0 rather than degenerating.
    """
    offset %= capacity_bytes
    return min(offset, max(0, capacity_bytes - size))


class EnclaveLRU:
    """Byte-budgeted LRU backed by a real enclave allocation.

    The shared machinery of the trusted-side caches: an ``OrderedDict``
    of ``key -> (payload, offset, cost)``, a wrapping cursor handing out
    notional offsets inside the allocation (so hits and stores touch
    addresses the EPC model sees), and the evict-oldest-to-fit loop.
    Subclasses supply only the cost function.
    """

    # Bytes of an entry's cost that are bookkeeping, not resident data:
    # budgeted, but not touched on a hit or store.
    _UNTOUCHED_BYTES = 0

    def __init__(self, enclave: Enclave, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self._memory = enclave.machine.memory
        self.capacity_bytes = capacity_bytes
        # Address space the cached bytes notionally occupy; accesses into
        # it drive the EPC model.  Contents live in _entries, so the
        # allocation is only ever touched, never written.
        self.base = enclave.alloc(capacity_bytes)
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self.bytes_used = 0
        self.evictions = 0
        self._cursor = 0

    def _cost_bytes(self, key, payload) -> int:
        raise NotImplementedError

    def _touch(self, ctx: ExecContext, offset: int, cost: int, write: bool) -> None:
        size = cost - self._UNTOUCHED_BYTES
        offset = clamp_touch_offset(offset, size, self.capacity_bytes)
        self._memory.touch(ctx, self.base + offset, size, write)

    def lookup(self, ctx: ExecContext, key):
        """Return the cached payload or None; a hit charges an EPC read."""
        hit = self._entries.get(key)
        if hit is None:
            return None
        payload, offset, cost = hit
        self._entries.move_to_end(key)
        self._touch(ctx, offset, cost, write=False)
        return payload

    def store(self, ctx: ExecContext, key, payload) -> None:
        """Insert or refresh one entry, evicting LRU entries to fit.

        Re-storing a cached key re-accounts its cost.  An entry too
        large to ever fit is not cached — and the stale smaller copy is
        dropped first, so it cannot be served in its place.
        """
        cost = self._cost_bytes(key, payload)
        self.invalidate(key)
        if cost > self.capacity_bytes:
            return
        while self.bytes_used + cost > self.capacity_bytes and self._entries:
            _evicted, (_payload, _off, ecost) = self._entries.popitem(last=False)
            self.bytes_used -= ecost
            self.evictions += 1
        offset = self._cursor
        self._cursor = (self._cursor + cost) % self.capacity_bytes
        self._entries[key] = (payload, offset, cost)
        self.bytes_used += cost
        self._touch(ctx, offset, cost, write=True)

    def invalidate(self, key) -> None:
        """Drop one entry (the next touch falls back to the slow path)."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes_used -= old[2]

    def clear(self) -> None:
        """Flush everything."""
        self._entries.clear()
        self.bytes_used = 0
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._entries)


class EnclaveCache(EnclaveLRU):
    """Byte-budgeted LRU of plaintext values, resident in enclave memory."""

    _UNTOUCHED_BYTES = 32  # per-entry bookkeeping overhead

    def _cost_bytes(self, key: bytes, value: bytes) -> int:
        return len(key) + len(value) + self._UNTOUCHED_BYTES
