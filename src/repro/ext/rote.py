"""ROTE-style distributed rollback protection (paper §4.4/§7, refs [8,31]).

SGX's hardware monotonic counters are slow (~60 ms per increment) and
wear out NVRAM; the paper points at ROTE (Matetic et al., Security'17)
and LCM as the fix.  ROTE replaces the local counter with a *counter
quorum*: each increment is acknowledged by a majority of assisting
enclaves on other machines, so freshness survives both crashes and a
locally rolled-back platform, at network latency instead of NVRAM
latency.

This module implements the protocol over simulated machines:

* :class:`CounterReplica` — an assisting enclave holding the highest
  acknowledged value per counter, signed state, sealed to its platform;
* :class:`RoteCounterService` — drop-in for
  :class:`~repro.sim.counters.MonotonicCounterService`, so
  :class:`~repro.core.persistence.Snapshotter` and
  :class:`~repro.ext.oplog.OperationLog` can run on either backend;
* quorum reads that detect a minority of rolled-back replicas.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, List, Optional

from repro.errors import RollbackError
from repro.ext.replication import CONSISTENCY_QUORUM, need
from repro.sim.enclave import Enclave, ExecContext, Machine

_REPLICA_MEASUREMENT = bytes([0xCE]) * 32
# One replica round trip: network RTT + in-enclave verify/sign work.
REPLICA_ACK_US = 35.0


class CounterReplica:
    """An assisting enclave on a (simulated) remote machine."""

    def __init__(self, replica_id: int, group_secret: bytes, seed: int = 0):
        self.replica_id = replica_id
        self.machine = Machine(seed=seed + replica_id)
        self.enclave = Enclave(
            self.machine, _REPLICA_MEASUREMENT, name=f"rote-replica-{replica_id}"
        )
        self._group_secret = group_secret
        self._values: Dict[str, int] = {}

    def _sign(self, name: str, value: int) -> bytes:
        return hmac.new(
            self._group_secret,
            f"{self.replica_id}|{name}|{value}".encode(),
            hashlib.sha256,
        ).digest()

    def ack_increment(self, name: str, value: int) -> Optional[bytes]:
        """Accept an increment if it is fresh; returns a signed ack."""
        if value <= self._values.get(name, 0):
            return None  # stale proposal: refuse to regress or repeat
        self._values[name] = value
        return self._sign(name, value)

    def read(self, name: str) -> int:
        return self._values.get(name, 0)

    def rollback(self, name: str, to_value: int) -> None:
        """Adversarial control of this replica's platform state."""
        self._values[name] = to_value

    def verify_ack(self, name: str, value: int, ack: bytes) -> bool:
        return hmac.compare_digest(self._sign(name, value), ack)


class RoteCounterService:
    """Quorum-backed monotonic counters, API-compatible with the SGX one."""

    def __init__(
        self,
        num_replicas: int = 4,
        group_secret: bytes = b"rote-group-secret-0000",
        seed: int = 2019,
    ):
        if num_replicas < 3:
            raise ValueError("ROTE needs >= 3 replicas for a meaningful quorum")
        self.replicas: List[CounterReplica] = [
            CounterReplica(i, group_secret, seed) for i in range(num_replicas)
        ]
        self.quorum = need(CONSISTENCY_QUORUM, num_replicas)
        self._local: Dict[str, int] = {}

    # -- MonotonicCounterService API ----------------------------------------
    def create(self, name: str) -> int:
        self._local.setdefault(name, 0)
        return self._local[name]

    def read(self, name: str) -> int:
        return self._local.get(name, 0)

    def increment(self, ctx: Optional[ExecContext], name: str) -> int:
        """Propose value+1 and gather a quorum of signed acks.

        Replica round trips overlap (they are independent machines), so
        the caller is charged one RTT plus a small per-ack verify cost —
        orders of magnitude cheaper than the ~60 ms NVRAM counter.
        """
        value = self._local.get(name, 0) + 1
        acks = 0
        for replica in self.replicas:
            ack = replica.ack_increment(name, value)
            if ack is not None and replica.verify_ack(name, value, ack):
                acks += 1
        if acks < self.quorum:
            raise RollbackError(
                f"counter {name!r}: only {acks}/{len(self.replicas)} replicas "
                f"acknowledged value {value} (quorum {self.quorum})"
            )
        if ctx is not None:
            ctx.charge_us(REPLICA_ACK_US)  # parallel round trips
            ctx.charge_cmac(64 * acks)  # verify each signed ack
        self._local[name] = value
        return value

    def check_not_rolled_back(self, name: str, claimed: int) -> None:
        """Quorum read: majority of replica values beats local state."""
        values = sorted(
            (replica.read(name) for replica in self.replicas), reverse=True
        )
        quorum_value = values[self.quorum - 1]
        authoritative = max(quorum_value, self._local.get(name, 0))
        if claimed < authoritative:
            raise RollbackError(
                f"claimed counter {claimed} for {name!r} is behind the "
                f"quorum value {authoritative}: rollback detected"
            )

    # -- fault injection for tests --------------------------------------------
    def crash_local_state(self) -> None:
        """Simulate losing the local cache (power failure)."""
        self._local.clear()

    def recover_from_quorum(self, name: str) -> int:
        """Rebuild local state from a quorum read after a crash."""
        values = sorted(
            (replica.read(name) for replica in self.replicas), reverse=True
        )
        self._local[name] = values[self.quorum - 1]
        return self._local[name]
