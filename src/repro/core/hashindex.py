"""The untrusted main hash table: bucket slots with chain heads.

Figure 4 places the hash table itself in the unprotected region; only
the pointer to it (and the integrity metadata) stays in the enclave.
Each bucket slot is 16 bytes::

    offset  size  field
    0       8     head_ptr        first entry of the chain (0 = empty)
    8       8     mac_bucket_ptr  first MAC-bucket node (§5.2; 0 = none)

Both pointers are availability-only untrusted metadata; before the
enclave dereferences either, the §7 range check runs (see
:func:`enclave_pointer_error`).
"""

from __future__ import annotations

import struct

from repro.errors import PointerSafetyError
from repro.sim.enclave import Enclave, ExecContext
from repro.sim.memory import ENCLAVE_BASE, ENCLAVE_END

SLOT_SIZE = 16
_PTR = struct.Struct("<Q")


def enclave_pointer_error(ptr: int) -> PointerSafetyError:
    """What the §7 pointer-safety check raises.

    A malicious host could rewrite a chain pointer to target the
    enclave's own virtual range, tricking the enclave into clobbering
    its secrets when it writes entry fields.  The range is contiguous,
    so the check is one comparison, made inline wherever a pointer is
    read from untrusted memory (here, in ``ShieldStore._read_header`` /
    ``_walk`` and in ``MacBucketStore.read``).
    """
    return PointerSafetyError(f"untrusted pointer 0x{ptr:x} targets the enclave range")


class BucketTable:
    """Bucket-slot array living in untrusted memory."""

    def __init__(self, enclave: Enclave, num_buckets: int):
        self._memory = enclave.machine.memory
        self.num_buckets = num_buckets
        self.base = enclave.alloc_untrusted(num_buckets * SLOT_SIZE)

    def slot_addr(self, bucket: int) -> int:
        """Untrusted address of a bucket's slot."""
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        return self.base + bucket * SLOT_SIZE

    def read_head(self, ctx: ExecContext, bucket: int, check: bool = True) -> int:
        """Read a bucket's chain head pointer (charged untrusted read)."""
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        (ptr,) = _PTR.unpack(self._memory.read(ctx, self.base + bucket * SLOT_SIZE, 8))
        if check and ENCLAVE_BASE <= ptr < ENCLAVE_END:
            raise enclave_pointer_error(ptr)
        return ptr

    def write_head(self, ctx: ExecContext, bucket: int, ptr: int) -> None:
        """Point a bucket's chain at ``ptr``."""
        self._memory.write(ctx, self.slot_addr(bucket), _PTR.pack(ptr))

    def read_mac_ptr(self, ctx: ExecContext, bucket: int, check: bool = True) -> int:
        """Read a bucket's MAC-bucket pointer."""
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        (ptr,) = _PTR.unpack(
            self._memory.read(ctx, self.base + bucket * SLOT_SIZE + 8, 8)
        )
        if check and ENCLAVE_BASE <= ptr < ENCLAVE_END:
            raise enclave_pointer_error(ptr)
        return ptr

    def write_mac_ptr(self, ctx: ExecContext, bucket: int, ptr: int) -> None:
        """Point a bucket at its MAC-bucket chain."""
        self._memory.write(ctx, self.slot_addr(bucket) + 8, _PTR.pack(ptr))
