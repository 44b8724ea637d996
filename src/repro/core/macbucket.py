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

Inside the enclave a bucket's MACs stay the contiguous bytes they are
read as: every method takes or returns one immutable blob (a one-node
bucket's is the node body itself), MAC *i* at
:func:`~repro.core.entry.mac_span`.  Node headers are untrusted, so every
``next_ptr`` passes the §7 range check before it is followed, and no
traversal takes more hops than there are live nodes.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.core.entry import MAC_SIZE, mac_splice
from repro.core.hashindex import enclave_pointer_error
from repro.errors import StoreError
from repro.sim.enclave import Enclave, ExecContext
from repro.sim.memory import ENCLAVE_BASE, ENCLAVE_END

NODE_HEADER = 16
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
        # Live nodes (in-enclave): no honest chain is longer, so it bounds
        # every traversal of the untrusted ``next_ptr`` links.
        self.nodes = 0

    # -- node primitives ---------------------------------------------------
    def alloc_node(self, ctx: ExecContext) -> int:
        """A fresh (zeroed, hence empty) node."""
        self.nodes += 1
        return self._allocator.alloc(ctx, self.node_size)

    def _free_node(self, ctx: ExecContext, addr: int) -> None:
        self.nodes -= 1
        self._allocator.free(ctx, addr, self.node_size)

    def _write_node(self, ctx: ExecContext, addr: int, body: bytes, next_ptr: int) -> None:
        self._memory.write(
            ctx, addr, _NODE_HEADER.pack(len(body) // MAC_SIZE, 0, next_ptr) + body
        )

    # -- chain-level API -----------------------------------------------------
    def read(
        self,
        ctx: ExecContext,
        head: int,
        check: bool = True,
        spans: Optional[List[Tuple[int, int]]] = None,
        upto: Optional[int] = None,
    ) -> bytes:
        """All MACs of a bucket, chain order, following overflow nodes.

        The one traversal of the untrusted node chain.  ``check`` is the
        store's §7 ``pointer_check``.  ``spans`` collects each node as
        ``(address, offset of its first MAC in the blob)``; ``upto``
        stops after the node that holds MAC ``upto``.
        """
        memory_read = self._memory.read
        blob = b""
        addr, hops_left = head, self.nodes
        while addr:
            if hops_left <= 0:
                raise StoreError("MAC bucket chain cycle (corrupted metadata)")
            hops_left -= 1
            count, _pad, next_ptr = _NODE_HEADER.unpack(memory_read(ctx, addr, NODE_HEADER))
            if next_ptr and check and ENCLAVE_BASE <= next_ptr < ENCLAVE_END:
                raise enclave_pointer_error(next_ptr)
            if spans is not None:
                spans.append((addr, len(blob)))
            if count:
                if count > self.capacity:
                    # Untrusted metadata may lie; clamp so the enclave never
                    # over-reads (availability attack, not integrity).
                    count = self.capacity
                body = memory_read(ctx, addr + NODE_HEADER, count * MAC_SIZE)
                blob = blob + body if blob else body
            if upto is not None and upto * MAC_SIZE < len(blob):
                break
            addr = next_ptr
        return blob

    def write_all(self, ctx: ExecContext, head: int, blob: bytes, check: bool = True) -> int:
        """Rewrite a bucket's MACs; returns the (possibly new) head.

        Allocates/frees overflow nodes as the blob grows or shrinks.
        """
        step = self.capacity * MAC_SIZE
        chunks = [blob[i : i + step] for i in range(0, len(blob), step)] or [b""]
        spans: List[Tuple[int, int]] = []
        self.read(ctx, head, check, spans)
        nodes = [addr for addr, _start in spans]
        while len(nodes) < len(chunks):
            nodes.append(self.alloc_node(ctx))
        while len(nodes) > len(chunks):
            self._free_node(ctx, nodes.pop())
        for i, chunk in enumerate(chunks):
            next_ptr = nodes[i + 1] if i + 1 < len(chunks) else 0
            self._write_node(ctx, nodes[i], chunk, next_ptr)
        return nodes[0]

    # -- convenience mutations (read-modify-write) ----------------------------
    def insert_front(self, ctx: ExecContext, head: int, mac: bytes, check: bool = True) -> int:
        """Prepend a MAC (new chain head was inserted); returns new head."""
        if head == 0:
            addr = self.alloc_node(ctx)
            self._write_node(ctx, addr, bytes(mac), 0)
            return addr
        return self.write_all(ctx, head, bytes(mac) + self.read(ctx, head, check), check)

    def replace(
        self, ctx: ExecContext, head: int, index: int, mac: bytes, check: bool = True
    ) -> None:
        """Overwrite the MAC at chain position ``index`` in place."""
        spans: List[Tuple[int, int]] = []
        blob = self.read(ctx, head, check, spans, upto=index)
        if not 0 <= index * MAC_SIZE < len(blob):
            raise StoreError(f"MAC bucket index {index} out of range")
        addr, start = spans[-1]  # the last node read holds MAC ``index``
        self._memory.write(ctx, addr + NODE_HEADER + index * MAC_SIZE - start, bytes(mac))

    def remove(self, ctx: ExecContext, head: int, index: int, check: bool = True) -> int:
        """Delete the MAC at chain position ``index``; returns new head."""
        blob = self.read(ctx, head, check)
        if not 0 <= index < len(blob) // MAC_SIZE:
            raise StoreError(f"MAC bucket index {index} out of range")
        blob = mac_splice(blob, index)
        if not blob:
            self._free_node(ctx, head)
            return 0
        return self.write_all(ctx, head, blob, check)
