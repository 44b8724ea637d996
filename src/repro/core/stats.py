"""The one counter record of the system.

Every process keeps one :class:`StoreStats` — a store (or partition), a
pool worker, the TCP server, a client.  It complements the machine-level
:class:`~repro.sim.cycles.CycleCounters` with store semantics (hits,
chain walks, search-path decryptions for Fig. 9, allocator OCALLs for
Fig. 6, snapshots for Fig. 19) and with what the serving stack counts:
the worker data plane's rings and stage seconds, event-loop admission.

Each field declares once how two records combine (sum, or max for a
gauge) and whether its value depends on more than the operations served
(:meth:`StoreStats.varying`); ``merge``, ``from_dict`` and the engine
equivalence tests read that declaration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import FrozenSet

# What a field's value depends on besides the operations served:
CLOCK = "clock"        # host time (wall clock or CPU seconds)
PLANE = "plane"        # the worker data plane the engine runs on
RECOVERY = "recovery"  # how the engine brings a dead partition back


def _varies(reason: str, default=0, merge=operator.add):
    return field(default=default, metadata={"varies": reason, "merge": merge})


@dataclass(slots=True)
class StoreStats:
    """Counters of one process's part of the system."""

    gets: int = 0
    sets: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    appends: int = 0
    increments: int = 0
    hits: int = 0
    misses: int = 0
    chain_steps: int = 0
    search_decryptions: int = 0
    hint_skips: int = 0
    full_searches: int = 0          # two-step fallbacks taken
    integrity_checks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # Enclave-resident verified-MAC cache (repro.core.maccache):
    mac_cache_hits: int = 0         # ops verified against the cached lists
    mac_cache_misses: int = 0       # ops that fell back to full §4.3 verify
    mac_cache_evictions: int = 0    # sets evicted at the byte budget
    # Per-op wall-clock stage attribution (seconds, host time — not the
    # simulated clocks): chain walk + candidate decryption, per-entry
    # MAC authentication, and covering-set gathering/verification (the
    # stage the MAC cache removes).
    stage_walk_s: float = _varies(CLOCK, 0.0)
    stage_crypto_s: float = _varies(CLOCK, 0.0)
    stage_verify_s: float = _varies(CLOCK, 0.0)
    alloc_ocalls: int = 0
    alloc_requests: int = 0
    snapshots: int = 0
    snapshot_stall_us: float = 0.0
    snapshot_failures: int = 0      # checkpoint.SnapshotDaemon.run_once exceptions
    temp_table_merges: int = 0
    # Sealed write-ahead log (repro.core.wal):
    wal_appends: int = 0            # frames sealed before apply
    wal_fsyncs: int = 0             # group-commit syncs issued
    wal_rotations: int = 0          # truncation record + fresh segment
    wal_replayed: int = 0           # logged ops re-applied during recovery
    wal_torn_truncated: int = 0     # clean torn tails truncated at replay
    worker_recoveries: int = _varies(RECOVERY)  # dead workers respawned + restored
    worker_ops_lost: int = _varies(RECOVERY)    # upper bound on mutations lost to crashes
    # Transport resilience (TCP front-end + shieldfault plane):
    net_retries: int = 0            # client requests retried after a fault
    net_reconnects: int = 0         # sessions re-attested after a failure
    net_timeouts: int = 0           # request deadlines that expired
    tamper_drops: int = 0           # sessions dropped on unauthenticated records
    idempotent_replays: int = 0     # duplicate write tokens served from cache
    rejected_connections: int = 0   # accepts refused at the connection cap
    deadline_drops: int = 0         # connections dropped by the request deadline
    degraded_replies: int = 0       # STATUS_ERROR replies (serving degraded)
    faults_injected: int = 0        # shieldfault fires observed process-wide
    # Event-loop admission (repro.net.tcp):
    busy_sheds: int = 0             # sealed STATUS_BUSY replies shed
    busy_retries: int = 0           # client retries after STATUS_BUSY
    # Batch amortization (multi_get / multi_set / multi_delete):
    batches: int = 0                    # batch calls served
    batch_ops: int = 0                  # operations carried by batches
    batch_sets_verified: int = 0        # set hashes verified inside batches
    batch_verifications_saved: int = 0  # ops that reused an already-verified set
    batch_set_updates_saved: int = 0    # set-hash recomputes avoided by dirty tracking
    # Shared-memory ring plane (repro.core.shmring), filled parent-side
    # per worker (the worker ends' doorbell waits come in its reply):
    ring_frames: int = _varies(PLANE)           # sealed frames moved through rings
    ring_bytes: int = _varies(PLANE)            # prefix + payload bytes moved
    ring_full_waits: int = _varies(PLANE)       # producer found a ring full
    ring_doorbell_waits: int = _varies(PLANE)   # parent-end waits that armed the doorbell
    worker_ring_doorbell_waits: int = _varies(PLANE)  # the same, at the worker ends
    ring_doorbell_rings: int = _varies(PLANE)   # doorbell bytes actually sent
    ring_max_occupancy: int = _varies(PLANE, merge=max)  # gauge: in-flight high-water mark (bytes)
    # Process pool stages (repro.core.procpool), host seconds per worker:
    serialize_s: float = _varies(CLOCK, 0.0)       # parent sealing frames
    ipc_wait_s: float = _varies(CLOCK, 0.0)        # parent blocked on the plane
    worker_compute_s: float = _varies(CLOCK, 0.0)  # worker's OP_REQ wall clock
    worker_cpu_s: float = _varies(CLOCK, 0.0)      # CPU the same region got
    # Replication group (repro.ext.replication):
    replicated_out: int = 0         # records fanned out to peers (acked)
    replicated_in: int = 0          # remote records LWW-applied locally
    replication_conflicts: int = 0  # stale records rejected by (clock, origin)
    fanout_missed: int = 0          # fan-outs a peer missed (left to anti-entropy)
    sync_rounds: int = 0            # anti-entropy digest exchanges completed
    sync_sets_diverged: int = 0     # bucket sets whose logical digests differed
    sync_keys_repaired: int = 0     # records merged in during set exchanges
    read_repairs: int = 0           # stale replicas rewritten by quorum reads
    quorum_reads: int = 0           # reads satisfied at QUORUM
    quorum_writes: int = 0          # writes acked at the requested level
    quorum_failures: int = 0        # requests that missed their ack target

    def merge(self, other: "StoreStats") -> "StoreStats":
        """Combine two records field by field, each by its declared
        rule; returns a new object."""
        result = StoreStats()
        for name, combine in _MERGE:
            setattr(result, name, combine(getattr(self, name), getattr(other, name)))
        return result

    def snapshot_dict(self) -> dict:
        """Plain-dict view for reports."""
        return {name: getattr(self, name) for name, _ in _MERGE}

    @classmethod
    def from_dict(cls, data: dict) -> "StoreStats":
        """Rebuild a record from :meth:`snapshot_dict` output.

        This is how counters cross the process boundary: a pool worker
        ships its record in its ``OP_STATS`` reply and the parent
        reconstitutes it here before merging.  Keys that are not
        declared fields are ignored (``operations`` included: it is a
        property), so a parent can read records from slightly older or
        newer workers.
        """
        stats = cls()
        for name, value in data.items():
            if name in _FIELDS:
                setattr(stats, name, value)
        return stats

    @classmethod
    def varying(cls, *reasons: str) -> FrozenSet[str]:
        """The fields whose value depends on one of ``reasons``
        (``"clock"``, ``"plane"``, ``"recovery"``; any of them when none
        is given) rather than on the operations alone — what a
        comparison of two engines' records leaves out."""
        wanted = set(reasons or (CLOCK, PLANE, RECOVERY))
        return frozenset(
            f.name for f in fields(cls) if f.metadata.get("varies") in wanted
        )

    @property
    def operations(self) -> int:
        """Total client-visible operations served."""
        return self.gets + self.sets + self.deletes + self.appends + self.increments


_MERGE = tuple(
    (f.name, f.metadata.get("merge", operator.add)) for f in fields(StoreStats)
)
_FIELDS = frozenset(name for name, _ in _MERGE)
