"""Operation-level statistics a store accumulates.

These complement the machine-level :class:`~repro.sim.cycles.CycleCounters`
(memory events, crypto calls) with store semantics: hits/misses, chain
walk lengths, search-path decryptions (Fig. 9), allocator OCALLs
(Fig. 6) and snapshot activity (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, FrozenSet


@dataclass
class StoreStats:
    """Counters for one store (or one partition of a partitioned store)."""

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
    stage_walk_s: float = 0.0
    stage_crypto_s: float = 0.0
    stage_verify_s: float = 0.0
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
    worker_recoveries: int = 0      # dead workers respawned + restored
    worker_ops_lost: int = 0        # upper bound on mutations lost to crashes
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
    # Batch amortization (multi_get / multi_set / multi_delete):
    batches: int = 0                    # batch calls served
    batch_ops: int = 0                  # operations carried by batches
    batch_sets_verified: int = 0        # set hashes verified inside batches
    batch_verifications_saved: int = 0  # ops that reused an already-verified set
    batch_set_updates_saved: int = 0    # set-hash recomputes avoided by dirty tracking
    # Replication group (repro.ext.replication):
    replicated_out: int = 0         # records fanned out to peers (acked)
    replicated_in: int = 0          # remote records LWW-applied locally
    replication_conflicts: int = 0  # stale records rejected by (clock, origin)
    hints_queued: int = 0           # records hinted for a dead peer
    hints_delivered: int = 0        # hints replayed after a peer revived
    hints_dropped: int = 0          # oldest hints evicted at the queue cap
    sync_rounds: int = 0            # anti-entropy digest exchanges completed
    sync_sets_diverged: int = 0     # bucket sets whose logical digests differed
    sync_keys_repaired: int = 0     # records merged in during set exchanges
    read_repairs: int = 0           # stale replicas rewritten by quorum reads
    quorum_reads: int = 0           # reads satisfied at QUORUM
    quorum_writes: int = 0          # writes acked at the requested level
    quorum_failures: int = 0        # requests that missed their ack target

    # Host wall-clock accumulators: meaningful to report and to sum
    # across workers, but never reproducible run-to-run — equivalence
    # tests comparing stats across engines must exclude these.
    WALL_CLOCK_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"stage_walk_s", "stage_crypto_s", "stage_verify_s"}
    )

    def merge(self, other: "StoreStats") -> "StoreStats":
        """Sum counters across partitions; returns a new object."""
        result = StoreStats()
        for name in vars(result):
            setattr(result, name, getattr(self, name) + getattr(other, name))
        return result

    def snapshot_dict(self) -> dict:
        """Plain-dict view for reports."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "StoreStats":
        """Rebuild a stats object from :meth:`snapshot_dict` output.

        This is how counters cross the process boundary: partition
        worker processes ship their snapshot dict over the pipe and the
        parent reconstitutes it here before merging.  Unknown keys are
        ignored so a parent can read snapshots from slightly older or
        newer workers.
        """
        stats = cls()
        fields = vars(stats)
        for name, value in data.items():
            # vars(), not hasattr(): read-only properties such as
            # ``operations`` answer hasattr but reject setattr.
            if name in fields:
                setattr(stats, name, value)
        return stats

    @property
    def operations(self) -> int:
        """Total client-visible operations served."""
        return self.gets + self.sets + self.deletes + self.appends + self.increments


@dataclass
class TransportStats:
    """Data-plane counters: ring occupancy, doorbell traffic, shedding.

    Deliberately separate from :class:`StoreStats`: these describe the
    *transport* an engine happens to run on (shared-memory rings vs
    pipes, event-loop admission), not store semantics — keeping them
    out of the operation counters is what lets the mode-equivalence
    tests demand identical :class:`StoreStats` across engines.
    """

    # Shared-memory ring plane (repro.core.shmring):
    ring_frames: int = 0            # sealed frames moved through rings
    ring_bytes: int = 0             # prefix + payload bytes moved
    ring_full_waits: int = 0        # producer found a ring full
    ring_doorbell_waits: int = 0    # parent-end waits that armed the doorbell
    worker_ring_doorbell_waits: int = 0  # the same, at the worker ends
    ring_doorbell_rings: int = 0    # doorbell bytes actually sent
    ring_max_occupancy: int = 0     # gauge: in-flight high-water mark (bytes)
    # Event-loop admission (repro.net.tcp):
    busy_sheds: int = 0             # sealed STATUS_BUSY replies shed
    busy_retries: int = 0           # client retries after STATUS_BUSY

    # Gauges keep their max under merge instead of summing.
    _GAUGES: ClassVar[FrozenSet[str]] = frozenset({"ring_max_occupancy"})

    def merge(self, other: "TransportStats") -> "TransportStats":
        """Combine counters across workers/planes; returns a new object."""
        result = TransportStats()
        for name in vars(result):
            a, b = getattr(self, name), getattr(other, name)
            setattr(result, name, max(a, b) if name in self._GAUGES else a + b)
        return result

    def snapshot_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "TransportStats":
        stats = cls()
        fields = vars(stats)
        for name, value in data.items():
            if name in fields:
                setattr(stats, name, value)
        return stats
