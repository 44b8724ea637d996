"""The naive SGX key-value store — the paper's *Baseline* (§3.1).

The entire hash table is placed in enclave memory and SGX's demand
paging is left to cope with working sets far beyond the EPC.  Every
touched page that is not EPC-resident costs a serialized ~60 µs fault,
which collapses throughput 134x at 4 GB (Fig. 3) and caps multi-core
scaling at two threads (Fig. 13) — the motivation for ShieldStore.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.plainhash import PlainHashTable
from repro.sim.enclave import Enclave, ExecContext, Machine
from repro.sim.memory import REGION_ENCLAVE

_MEASUREMENT = bytes(reversed(range(32)))


class NaiveSgxStore:
    """Plain chained hash table living entirely inside the enclave."""

    name = "baseline"

    def __init__(
        self,
        machine: Optional[Machine] = None,
        num_buckets: int = 1 << 16,
    ):
        self.machine = machine if machine is not None else Machine()
        self.enclave = Enclave(self.machine, _MEASUREMENT, name="naive-kv")
        self.table = PlainHashTable(
            self.machine, num_buckets, REGION_ENCLAVE, enclave=self.enclave
        )
        self._ctxs: List[ExecContext] = [
            self.enclave.context(t)
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
