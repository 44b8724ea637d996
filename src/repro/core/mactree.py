"""Flattened Merkle structure: in-enclave bucket-set MAC hashes (§4.3).

Instead of one tall Merkle tree over millions of volatile key-value
pairs, ShieldStore keeps ``num_mac_hashes`` independent 128-bit keyed
hashes inside the enclave.  Hash *s* authenticates the concatenation of
all entry MACs in its *bucket set* — the buckets ``{b : b mod M = s}``.
Because the hashes live in EPC-backed memory they are confidential and
tamper-proof; replaying a stale entry in untrusted memory changes the
recomputed set hash and is detected.

The array is a real enclave allocation, so a paper-scale 8M-hash
configuration (128 MB) genuinely overflows the EPC and starts paging —
reproducing Figure 15's cliff.
"""

from __future__ import annotations

from hmac import compare_digest
from typing import Iterable

from repro.crypto.suite import CipherSuite
from repro.errors import ReplayError
from repro.sim.enclave import Enclave, ExecContext

HASH_SIZE = 16
_EMPTY = bytes(HASH_SIZE)  # "no entries yet" marker (enclave-private)


class MacTree:
    """The enclave-resident array of bucket-set MAC hashes."""

    def __init__(self, enclave: Enclave, num_hashes: int, num_buckets: int):
        if num_hashes <= 0 or num_hashes > num_buckets:
            raise ValueError("need 0 < num_hashes <= num_buckets")
        self._memory = enclave.machine.memory
        self.num_hashes = num_hashes
        self.num_buckets = num_buckets
        self.base = enclave.alloc(num_hashes * HASH_SIZE)

    # -- set geometry -----------------------------------------------------
    def set_of(self, bucket: int) -> int:
        """Which MAC hash covers ``bucket``."""
        return bucket % self.num_hashes

    def buckets_of(self, set_id: int) -> Iterable[int]:
        """All buckets covered by MAC hash ``set_id`` (ascending)."""
        return range(set_id, self.num_buckets, self.num_hashes)

    @property
    def buckets_per_set(self) -> int:
        """Maximum bucket-set size (1 when num_hashes == num_buckets)."""
        return -(-self.num_buckets // self.num_hashes)

    # -- hash storage (EPC-charged) ------------------------------------------
    def read_hash(self, ctx: ExecContext, set_id: int) -> bytes:
        """Read the stored hash of a set (enclave memory access)."""
        return self._memory.read(ctx, self.base + set_id * HASH_SIZE, HASH_SIZE)

    def write_hash(self, ctx: ExecContext, set_id: int, digest: bytes) -> None:
        """Store a recomputed set hash."""
        self._memory.write(ctx, self.base + set_id * HASH_SIZE, digest)

    # -- verification ---------------------------------------------------------
    # ``message`` is the set's entry MACs as one byte string: each member
    # bucket's MAC blob, concatenated in the order ``buckets_of`` yields.
    # The keyed hash over it is charged as one CMAC; a set with no entries
    # keeps the all-zero "nothing yet" marker.
    def verify_set(
        self, ctx: ExecContext, suite: CipherSuite, set_id: int, message: bytes
    ) -> None:
        """Raise :class:`ReplayError` when the set hash does not match."""
        stored = self._memory.read(ctx, self.base + set_id * HASH_SIZE, HASH_SIZE)
        ctx.charge_cmac(len(message))
        if not compare_digest(stored, suite.mac(message) if message else _EMPTY):
            raise ReplayError(
                f"bucket-set hash mismatch for set {set_id}: untrusted entries "
                "were replayed, reordered, or tampered with"
            )

    def update_set(
        self, ctx: ExecContext, suite: CipherSuite, set_id: int, message: bytes
    ) -> None:
        """Recompute and store the set hash after a mutation."""
        ctx.charge_cmac(len(message))
        self.write_hash(ctx, set_id, suite.mac(message) if message else _EMPTY)

    # -- sealing support ---------------------------------------------------
    def dump(self) -> bytes:
        """Raw hash-array bytes (for sealing into a snapshot)."""
        return self._memory.raw_read(self.base, self.num_hashes * HASH_SIZE)

    def load(self, blob: bytes) -> None:
        """Restore hash-array bytes unsealed from a snapshot."""
        if len(blob) != self.num_hashes * HASH_SIZE:
            raise ValueError("MAC tree blob has wrong size")
        self._memory.raw_write(self.base, blob)
