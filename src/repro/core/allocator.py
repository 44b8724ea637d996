"""Untrusted-memory allocators used by the enclave (paper §5.1).

Two implementations share one interface:

* :class:`OcallAllocator` — the unoptimized path: every allocation exits
  the enclave (OCALL + mmap/sbrk syscall) to call the host allocator.
  This is what ShieldBase uses and what Figure 6/14 improve on.
* :class:`ExtraHeapAllocator` — the paper's custom tcmalloc-derived
  allocator: runs *inside* the enclave, carves allocations out of large
  untrusted chunks obtained with one OCALL per chunk (default 16 MB),
  and recycles freed blocks through size-class free lists whose metadata
  stays in enclave memory (§7 notes a traditional heap would leave that
  metadata corruptible in untrusted memory — we implement the hardened
  variant the paper assumes).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AllocationError
from repro.sim.enclave import Enclave, ExecContext

_ALIGN = 16


def _size_class(size: int) -> int:
    """Round a request up to the allocator's 16-byte granularity."""
    return (size + _ALIGN - 1) & ~(_ALIGN - 1)


class OcallAllocator:
    """Host allocator reached by an enclave exit for every request."""

    name = "ocall"

    def __init__(self, enclave: Enclave):
        self._enclave = enclave
        self.ocalls = 0
        self.requests = 0
        self.bytes_live = 0

    def alloc(self, ctx: ExecContext, size: int) -> int:
        """OCALL out, run the host malloc, return an untrusted address."""
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        ctx.ocall(syscall=True)
        self.ocalls += 1
        self.requests += 1
        self.bytes_live += size
        return self._enclave.alloc_untrusted(size)

    def free(self, ctx: ExecContext, addr: int, size: int) -> None:
        """OCALL out to free (the host needs to run)."""
        ctx.ocall(syscall=True)
        self.ocalls += 1
        self.bytes_live -= size
        self._enclave.machine.memory.free(addr)


class ExtraHeapAllocator:
    """In-enclave allocator over OCALL-acquired untrusted chunks."""

    name = "extra-heap"

    def __init__(self, enclave: Enclave, chunk_bytes: int):
        if chunk_bytes < 4096:
            raise AllocationError("chunk size must be at least one page")
        self._enclave = enclave
        self.chunk_bytes = chunk_bytes
        self._chunk_base = 0
        self._chunk_size = chunk_bytes
        self._chunk_used = chunk_bytes  # force a chunk fetch on first alloc
        # Free lists keyed by size class; metadata lives in enclave memory
        # (plain Python state here — the enclave-resident hardening of §7).
        self._free: Dict[int, List[int]] = {}
        self.ocalls = 0
        self.requests = 0
        self.bytes_live = 0
        self.bytes_reserved = 0
        self.chunks: List[int] = []

    def _fetch_chunk(self, ctx: ExecContext, at_least: int) -> None:
        size = max(self.chunk_bytes, _size_class(at_least))
        ctx.ocall(syscall=True)  # sbrk/mmap for a fresh chunk
        self.ocalls += 1
        self._chunk_base = self._enclave.alloc_untrusted(size)
        self._chunk_used = 0
        self._chunk_size = size
        self.bytes_reserved += size
        self.chunks.append(self._chunk_base)

    def alloc(self, ctx: ExecContext, size: int) -> int:
        """Hand out untrusted memory without leaving the enclave."""
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        ctx.charge(ctx.machine.cost.malloc_cycles)
        self.requests += 1
        self.bytes_live += size
        klass = _size_class(size)
        bucket = self._free.get(klass)
        if bucket:
            return bucket.pop()
        if self._chunk_used + klass > self._chunk_size:
            self._fetch_chunk(ctx, klass)
        addr = self._chunk_base + self._chunk_used
        self._chunk_used += klass
        return addr

    def free(self, ctx: ExecContext, addr: int, size: int) -> None:
        """Return a block to its size-class free list (no enclave exit)."""
        ctx.charge(ctx.machine.cost.malloc_cycles)
        self.bytes_live -= size
        self._free.setdefault(_size_class(size), []).append(addr)

    @property
    def internal_fragmentation(self) -> float:
        """Reserved-but-unused fraction of the chunks fetched so far."""
        if self.bytes_reserved == 0:
            return 0.0
        return 1.0 - (self.bytes_live / self.bytes_reserved)


def make_allocator(enclave: Enclave, use_extra_heap: bool, chunk_bytes: int):
    """Build the allocator a :class:`StoreConfig` asks for."""
    if use_extra_heap:
        return ExtraHeapAllocator(enclave, chunk_bytes)
    return OcallAllocator(enclave)
