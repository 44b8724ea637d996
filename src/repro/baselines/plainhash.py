"""Plain chained hash table over simulated memory (no crypto).

This is the paper's §3.1 "baseline key-value store": a hash index with
chaining, validated against memcached in Table 1.  It is shared by:

* :class:`~repro.baselines.insecure.InsecureStore` — table in untrusted
  memory, SGX disabled (the *NoSGX* curves);
* :class:`~repro.baselines.naive_sgx.NaiveSgxStore` — the same table
  placed entirely in enclave memory (the *Baseline* the paper beats);
* the memcached-on-Graphene model, which adds libOS overheads.

Entry record layout (plaintext)::

    offset  size  field
    0       8     next_ptr
    8       4     key_size
    12      4     val_size
    16      k+v   key || value
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.errors import KeyNotFoundError, StoreError
from repro.sim.enclave import Enclave, ExecContext, Machine
from repro.sim.memory import REGION_ENCLAVE, REGION_UNTRUSTED
from repro.util import fnv1a

_ENTRY = struct.Struct("<QII")  # next_ptr, key_size, val_size
_PTR = struct.Struct("<Q")
_HEADER = _ENTRY.size
_MAX_CHAIN = 1_000_000


class PlainHashTable:
    """Chained hash table whose placement (region) is the experiment knob."""

    def __init__(
        self,
        machine: Machine,
        num_buckets: int,
        region: str,
        enclave: Optional[Enclave] = None,
    ):
        if region not in (REGION_ENCLAVE, REGION_UNTRUSTED):
            raise StoreError(f"unknown region {region!r}")
        self.machine = machine
        self.num_buckets = num_buckets
        self.region = region
        self._mem = machine.memory
        self.table_base = self._mem.alloc(num_buckets * 8, region)
        self.count = 0

    def _hash(self, ctx: ExecContext, key: bytes) -> int:
        ctx.charge(self.machine.cost.keyed_hash_cycles // 2)  # plain hash
        return fnv1a(key) % self.num_buckets

    # -- raw chain helpers -------------------------------------------------
    def _read_head(self, ctx: ExecContext, bucket: int) -> int:
        addr = self.table_base + bucket * 8
        return _PTR.unpack(self._mem.read(ctx, addr, 8))[0]

    def _write_head(self, ctx: ExecContext, bucket: int, ptr: int) -> None:
        addr = self.table_base + bucket * 8
        self._mem.write(ctx, addr, _PTR.pack(ptr))

    def _read_entry(self, ctx: ExecContext, addr: int) -> Tuple[int, bytes, bytes]:
        next_ptr, ksize, vsize = _ENTRY.unpack(self._mem.read(ctx, addr, _HEADER))
        kv = self._mem.read(ctx, addr + _HEADER, ksize + vsize)
        return next_ptr, kv[:ksize], kv[ksize:]

    def _write_entry(
        self, ctx: ExecContext, addr: int, next_ptr: int, key: bytes, value: bytes
    ) -> None:
        record = _ENTRY.pack(next_ptr, len(key), len(value)) + key + value
        self._mem.write(ctx, addr, record)

    def _alloc_entry(self, ctx: ExecContext, size: int) -> int:
        ctx.charge(self.machine.cost.malloc_cycles)
        return self._mem.alloc(size, self.region)

    # -- operations ---------------------------------------------------------
    def get(self, ctx: ExecContext, key: bytes) -> bytes:
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        bucket = self._hash(ctx, key)
        addr = self._read_head(ctx, bucket)
        steps = 0
        while addr:
            if steps >= _MAX_CHAIN:
                raise StoreError("chain cycle in plain hash table")
            next_ptr, ekey, evalue = self._read_entry(ctx, addr)
            if ekey == key:
                return evalue
            addr = next_ptr
            steps += 1
        raise KeyNotFoundError(key)

    def set(self, ctx: ExecContext, key: bytes, value: bytes) -> None:
        ctx.charge(self.machine.cost.op_dispatch_cycles)
        bucket = self._hash(ctx, key)
        head = self._read_head(ctx, bucket)
        addr, prev = head, 0
        steps = 0
        while addr:
            if steps >= _MAX_CHAIN:
                raise StoreError("chain cycle in plain hash table")
            next_ptr, ekey, evalue = self._read_entry(ctx, addr)
            if ekey == key:
                if len(evalue) == len(value):
                    self._write_entry(ctx, addr, next_ptr, key, value)
                else:
                    new_addr = self._alloc_entry(
                        ctx, _HEADER + len(key) + len(value)
                    )
                    self._write_entry(ctx, new_addr, next_ptr, key, value)
                    if prev:
                        self._mem.write(ctx, prev, _PTR.pack(new_addr))
                    else:
                        self._write_head(ctx, bucket, new_addr)
                return
            prev = addr
            addr = next_ptr
            steps += 1
        new_addr = self._alloc_entry(ctx, _HEADER + len(key) + len(value))
        self._write_entry(ctx, new_addr, head, key, value)
        self._write_head(ctx, bucket, new_addr)
        self.count += 1

    def append(self, ctx: ExecContext, key: bytes, suffix: bytes) -> bytes:
        try:
            old = self.get(ctx, key)
        except KeyNotFoundError:
            old = b""
        new = old + suffix
        self.set(ctx, key, new)
        return new

    def __len__(self) -> int:
        return self.count
