"""MAC buckets: contiguous per-bucket MAC arrays (paper §5.2).

Integrity verification needs *every* entry MAC in the bucket set, even
when the requested key sits at the head of the chain.  Without this
optimization the enclave pointer-chases the whole entry chain just to
collect 16-byte MAC fields.  A MAC bucket stores those MACs contiguously
next to each hash bucket, so the collection is one or two streaming
reads.

Node layout in untrusted memory::

    offset  size         field
    0       4            count (MACs used in this node)
    4       4            padding
    8       8            next_ptr (overflow node; 0 = none)
    16      capacity*16  MAC slots

Slot order equals chain order (slot 0 = chain head).  Nodes chain when a
bucket exceeds ``capacity`` (paper: 30 MACs per node).
"""

from __future__ import annotations

import struct
from typing import List

from repro.errors import StoreError
from repro.sim.enclave import Enclave, ExecContext

NODE_HEADER = 16
MAC_SIZE = 16
_NODE_HEADER = struct.Struct("<IIQ")


class MacBucketStore:
    """Allocator-backed manager for MAC-bucket node chains."""

    def __init__(self, enclave: Enclave, allocator, capacity: int):
        if capacity <= 0:
            raise StoreError("MAC bucket capacity must be positive")
        self._memory = enclave.machine.memory
        self._allocator = allocator
        self.capacity = capacity
        self.node_size = NODE_HEADER + capacity * MAC_SIZE

    # -- node primitives ---------------------------------------------------
    def _read_node(self, ctx: ExecContext, addr: int):
        read = self._memory.read
        count, _pad, next_ptr = _NODE_HEADER.unpack(read(ctx, addr, NODE_HEADER))
        if count > self.capacity:
            # Untrusted metadata may lie; clamp so the enclave never
            # over-reads (availability attack, not integrity).
            count = self.capacity
        if not count:
            return [], next_ptr
        body = read(ctx, addr + NODE_HEADER, count * MAC_SIZE)
        return [body[i : i + MAC_SIZE] for i in range(0, len(body), MAC_SIZE)], next_ptr

    def _write_node(self, ctx: ExecContext, addr: int, macs: List[bytes], next_ptr: int) -> None:
        if len(macs) > self.capacity:
            raise StoreError("node overflow: caller must split across nodes")
        raw = _NODE_HEADER.pack(len(macs), 0, next_ptr) + b"".join(macs)
        self._memory.write(ctx, addr, raw)

    # -- chain-level API -----------------------------------------------------
    def read_all(self, ctx: ExecContext, head: int) -> List[bytes]:
        """All MACs of a bucket, chain order, following overflow nodes."""
        macs: List[bytes] = []
        addr = head
        hops = 0
        while addr:
            node_macs, addr = self._read_node(ctx, addr)
            macs.extend(node_macs)
            hops += 1
            if hops > 1_000_000:
                raise StoreError("MAC bucket chain cycle (corrupted metadata)")
        return macs

    def write_all(self, ctx: ExecContext, head: int, macs: List[bytes]) -> int:
        """Rewrite a bucket's MAC list; returns the (possibly new) head.

        Allocates/frees overflow nodes as the list grows or shrinks.
        """
        chunks = [
            macs[i : i + self.capacity] for i in range(0, len(macs), self.capacity)
        ] or [[]]
        # Collect existing nodes.
        nodes: List[int] = []
        addr = head
        while addr:
            nodes.append(addr)
            _macs, addr = self._read_node(ctx, addr)
        # Grow or shrink the node chain to match.
        while len(nodes) < len(chunks):
            nodes.append(self._allocator.alloc(ctx, self.node_size))
        while len(nodes) > len(chunks):
            victim = nodes.pop()
            self._allocator.free(ctx, victim, self.node_size)
        for i, chunk in enumerate(chunks):
            next_ptr = nodes[i + 1] if i + 1 < len(chunks) else 0
            self._write_node(ctx, nodes[i], chunk, next_ptr)
        return nodes[0]

    # -- convenience mutations (read-modify-write) ----------------------------
    def insert_front(self, ctx: ExecContext, head: int, mac: bytes) -> int:
        """Prepend a MAC (new chain head was inserted); returns new head."""
        if head == 0:
            addr = self._allocator.alloc(ctx, self.node_size)
            self._write_node(ctx, addr, [bytes(mac)], 0)
            return addr
        macs = self.read_all(ctx, head)
        macs.insert(0, bytes(mac))
        return self.write_all(ctx, head, macs)

    def replace(self, ctx: ExecContext, head: int, index: int, mac: bytes) -> None:
        """Overwrite the MAC at chain position ``index`` in place."""
        addr = head
        while addr:
            node_macs, next_ptr = self._read_node(ctx, addr)
            if index < len(node_macs):
                offset = NODE_HEADER + index * MAC_SIZE
                self._memory.write(ctx, addr + offset, bytes(mac))
                return
            index -= len(node_macs)
            addr = next_ptr
        raise StoreError(f"MAC bucket index {index} out of range")

    def remove(self, ctx: ExecContext, head: int, index: int) -> int:
        """Delete the MAC at chain position ``index``; returns new head."""
        macs = self.read_all(ctx, head)
        if not 0 <= index < len(macs):
            raise StoreError(f"MAC bucket index {index} out of range")
        del macs[index]
        if not macs:
            self._allocator.free(ctx, head, self.node_size)
            return 0
        return self.write_all(ctx, head, macs)
