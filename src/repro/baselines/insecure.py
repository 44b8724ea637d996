"""Insecure (NoSGX) key-value store — the paper's upper-bound curves.

The §3.1 baseline with SGX disabled: the plain chained hash table in
ordinary DRAM, no encryption, no integrity, no enclave transitions.
Table 1 shows this design matches memcached; Figures 3 and 18 use it as
the insecure reference point.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.plainhash import PlainHashTable
from repro.sim.enclave import ExecContext, Machine
from repro.sim.memory import REGION_UNTRUSTED


class InsecureStore:
    """Multi-threaded plain store in untrusted memory, no SGX anywhere."""

    name = "insecure"

    def __init__(
        self,
        machine: Optional[Machine] = None,
        num_buckets: int = 1 << 16,
    ):
        self.machine = machine if machine is not None else Machine()
        self.table = PlainHashTable(self.machine, num_buckets, REGION_UNTRUSTED)
        self._ctxs: List[ExecContext] = [
            self.machine.context(t, in_enclave=False)
            for t in range(self.machine.clock.num_threads)
        ]

    def _ctx_of(self, key: bytes) -> ExecContext:
        # Worker threads pick requests off shared connections round-robin
        # (memcached-style); keys are not partitioned across threads.
        self._rr = (getattr(self, "_rr", -1) + 1) % len(self._ctxs)
        return self._ctxs[self._rr]

    def get(self, key: bytes) -> bytes:
        return self.table.get(self._ctx_of(key), bytes(key))

    def set(self, key: bytes, value: bytes) -> None:
        self.table.set(self._ctx_of(key), bytes(key), bytes(value))

    def append(self, key: bytes, suffix: bytes) -> bytes:
        return self.table.append(self._ctx_of(key), bytes(key), bytes(suffix))

    def __len__(self) -> int:
        return len(self.table)
