"""Client-side helper for driving a simulated networked server."""

from __future__ import annotations

from repro.errors import KeyNotFoundError, StoreError
from repro.net.message import STATUS_MISS, STATUS_OK, Request, StoreVerbs
from repro.net.server import NetworkedServer


class SimClient(StoreVerbs):
    """Synchronous client over a :class:`NetworkedServer`.

    The paper's load generator keeps 256 concurrent connections busy;
    with the server fully cost-accounted, a synchronous drive measures
    the same server-side saturation throughput.  The store API
    (``get`` ... ``multi_delete``) comes from
    :class:`~repro.net.message.StoreVerbs`.
    """

    def __init__(self, server: NetworkedServer):
        self.server = server

    def _call(self, op: str, key: bytes, value: bytes = b"") -> bytes:
        response = self.server.handle(Request(op, bytes(key), bytes(value)))
        if response.status == STATUS_MISS:
            raise KeyNotFoundError(key)
        if response.status != STATUS_OK:
            raise StoreError(f"server error for {op} {key!r}")
        return response.value

    def get_versioned(self, key: bytes) -> bytes:
        """Raw versioned record from a replication-capable store (VGET)."""
        return self._call("vget", key)

    def __len__(self) -> int:
        return len(self.server.store)
