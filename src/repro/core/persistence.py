"""Snapshot persistence (paper §4.4, Algorithm 1; evaluated in Fig. 19).

Two halves:

* **Functional snapshots** — :class:`PartitionSnapshotter` writes one
  versioned blob for every partition of a
  :class:`~repro.core.partition.PartitionedShieldStore` (a served store
  of one partition included): per partition a *section* whose in-enclave
  metadata (master secret, MAC tree, count) is *sealed* to the platform
  and whose untrusted entry records are written verbatim — they are
  already encrypted and integrity-protected, which is the design's
  headline persistence advantage (no re-encryption) — under a *shared*
  monotonic counter, with the partition count plus routing geometry
  sealed into the header.  Sections are produced and consumed by each
  partition's :class:`~repro.core.host.PartitionHost` — in
  ``processes`` mode *inside* the workers
  (:data:`~repro.core.procpool.OP_SNAPSHOT` out, the bootstrap frame in),
  so no plaintext ever crosses the pipe; the cached sections also power
  the pool's worker-crash recovery.  A blob is never loaded into a
  store that already serves: :meth:`PartitionSnapshotter.open` *builds*
  the store from it, then judges its freshness against the monotonic
  counter, once, before anyone is handed the store.

* **Performance model** — :class:`SnapshotScheduler` drives the paper's
  three Fig. 19 modes during a throughput run.  ``naive`` stalls all
  serving threads for the full storage write.  ``optimized`` follows
  Algorithm 1: a brief stall for sealing + fork, then a copy-on-write
  window during which the forked child streams entries to storage while
  the parent serves; writes during the window go additionally to a
  temporary table and are merged back when the child finishes.

Snapshot bytes are read through :class:`~repro.reader.Reader` — malformed or
truncated blobs surface as :class:`~repro.errors.SnapshotError`, never
as a raw ``struct.error`` or silently-ignored garbage.  This module
only encodes and decodes blobs; the disk crossing a blob makes is the
checkpoint daemon's, so a scripted fault reaches it at the
``snapshot.write`` / ``snapshot.read`` shieldfault points
(:mod:`repro.core.checkpoint`), where ``tamper`` exercises the sealed
header, section MACs and rollback checks downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import StoreConfig
from repro.core.entry import HEADER_SIZE, MAC_SIZE, unpack_header
from repro.core.stats import StoreStats
from repro.core.store import ShieldStore
from repro.crypto.keys import derive_key
from repro.errors import RollbackError, SnapshotError
from repro.reader import Reader
from repro.sim.counters import MonotonicCounterService
from repro.sim.enclave import Enclave, ExecContext
from repro.sim.sealing import SealingService

_PMAGIC = b"SSPSNP2\0"  # 2: a section's sealed metadata names its partition
_ENTRY = struct.Struct("<II")  # a section record's bucket, length
_SECTION = struct.Struct("<QI")  # a section's sealed counter, partition index
_GEOMETRY = struct.Struct("<QIII")  # counter, partitions, buckets, MAC hashes


MODE_NONE = "none"
MODE_NAIVE = "naive"
MODE_OPTIMIZED = "optimized"


def default_platform_secret(master_secret: bytes) -> bytes:
    """Deterministic per-deployment sealing secret.

    The simulation has no fused platform key, so stores derive one from
    the enclave master secret: every process of one logical deployment
    (parent router, partition workers, a restarted server with the same
    seed) lands on the same "platform", which is exactly the set of
    parties real SGX sealing would let unseal.
    """
    return derive_key(master_secret, "shieldstore/platform-seal", 32)


def snapshot_counter(blob: bytes) -> int:
    """The monotonic counter a snapshot blob claims.

    Reads only the plaintext header — callers use it to name checkpoint
    files; the authoritative (sealed) copy is checked when it is opened.
    """
    reader = Reader(blob, SnapshotError, "snapshot blob")
    if reader.take(len(_PMAGIC)) != _PMAGIC:
        raise SnapshotError("not a snapshot blob")
    return reader.u64()


# ---------------------------------------------------------------------------
# section format (one partition's part of a snapshot blob)
# ---------------------------------------------------------------------------
def write_section(
    ctx: ExecContext,
    store: ShieldStore,
    sealing: SealingService,
    counter: int,
    partition: int,
) -> bytes:
    """Serialize one store as partition ``partition``'s snapshot section.

    ``sealed(counter || partition || metadata) || count || records`` —
    the metadata (master secret, MAC tree, live count) is sealed to the
    platform together with the counter and the partition it belongs to,
    since every partition seals to the same platform; entry records are
    written verbatim because they are already encrypted and MACed
    (§4.4's no-re-encryption property).
    """
    meta = _SECTION.pack(counter, partition) + store.metadata_blob()
    sealed = sealing.seal(ctx, store.enclave, meta)
    parts: List[bytes] = [struct.pack("<I", len(sealed)), sealed]
    records: List[bytes] = []
    count = 0
    for bucket, record in store.iter_raw_entries():
        records.append(_ENTRY.pack(bucket, len(record)) + record)
        count += 1
    parts.append(struct.pack("<Q", count))
    parts.extend(records)
    return b"".join(parts)


def read_section(
    ctx: ExecContext,
    store: ShieldStore,
    sealing: SealingService,
    blob: bytes,
    expected_counter: int,
    partition: int,
) -> None:
    """Load partition ``partition``'s snapshot section into a freshly
    constructed ``store``.

    Every read is bounds-checked and leftover bytes are rejected, the
    sealed counter must equal ``expected_counter`` (the blob header's
    claim), the sealed partition index must be ``partition`` (a section
    moved to another partition's place is refused), and every
    bucket-set hash is checked against the unsealed
    MAC tree: malformed input raises :class:`SnapshotError`, tampered
    input :class:`~repro.errors.SealingError` (the sealed metadata) or
    :class:`~repro.errors.IntegrityError` (the records).
    """
    reader = Reader(blob, SnapshotError, "snapshot section")
    sealed = reader.take(reader.u32())
    meta = Reader(sealing.unseal(ctx, store.enclave, sealed), SnapshotError, "sealed metadata")
    counter, sealed_partition = meta.unpack(_SECTION)
    if counter != expected_counter:
        raise SnapshotError("snapshot header counter does not match sealed value")
    if sealed_partition != partition:
        raise SnapshotError(
            f"snapshot section of partition {sealed_partition} "
            f"in the place of partition {partition}"
        )
    store.load_metadata_blob(meta.rest())

    count = reader.u64()
    # Rebuild chains bucket by bucket, preserving chain order.
    tails: Dict[int, int] = {}
    mem = store.machine.memory
    for _ in range(count):
        bucket, rec_len = reader.unpack(_ENTRY)
        record = reader.take(rec_len)
        if bucket >= store.config.num_buckets:
            raise SnapshotError(
                f"record bucket {bucket} outside table of "
                f"{store.config.num_buckets} buckets"
            )
        if rec_len < HEADER_SIZE + MAC_SIZE:
            raise SnapshotError(f"record of {rec_len} bytes is too short")
        header = unpack_header(record[:HEADER_SIZE])
        if header.total_size != rec_len:
            raise SnapshotError(
                f"record length {rec_len} does not match its header "
                f"({header.total_size})"
            )
        addr = store.allocator.alloc(ctx, len(record))
        # Stored next_ptr values are stale; relink below.
        mem.write(ctx, addr, record)
        mem.write(ctx, addr, struct.pack("<Q", 0))  # clear next
        if bucket in tails:
            mem.write(ctx, tails[bucket], struct.pack("<Q", addr))
        else:
            store.buckets.write_head(ctx, bucket, addr)
        tails[bucket] = addr
        if store.macbuckets is not None:
            mac = record[HEADER_SIZE + header.kv_size :]
            head = store.buckets.read_mac_ptr(ctx, bucket, False)
            macs = store.macbuckets.read(ctx, head, False)
            macs += mac
            if head == 0:
                head = store.macbuckets.alloc_node(ctx)
                store.buckets.write_mac_ptr(ctx, bucket, head)
            store.macbuckets.write_all(ctx, head, macs, False)
    reader.end()
    for set_id in range(store.config.num_mac_hashes):
        store._verify_covering_set(ctx, set_id, audit=True)


# ---------------------------------------------------------------------------
# multi-partition snapshots
# ---------------------------------------------------------------------------
def read_blob(
    ctx: ExecContext,
    enclave: Enclave,
    sealing: SealingService,
    blob: bytes,
    num_partitions: int,
    config: StoreConfig,
) -> Tuple[int, bytes, List[bytes]]:
    """Split a snapshot blob for the store being built from it:
    ``(counter, master_secret, sections)``.

    The builder's geometry (partition count, bucket/hash counts, cipher
    suite) must match the sealed header exactly and the plaintext
    copies their sealed values, or :class:`SnapshotError` (an
    unsealable header: :class:`~repro.errors.SealingError`).
    """
    reader = Reader(blob, SnapshotError, "snapshot")
    if reader.take(len(_PMAGIC)) != _PMAGIC:
        raise SnapshotError("partition snapshot has wrong magic")
    claimed_counter = reader.u64()
    claimed_parts = reader.u32()
    sealed = reader.take(reader.u32())
    header = Reader(sealing.unseal(ctx, enclave, sealed), SnapshotError, "snapshot header")
    counter, sealed_parts, num_buckets, num_mac_hashes = header.unpack(_GEOMETRY)
    suite = header.take(header.u8()).decode("ascii", "replace")
    master = header.take(header.u16())
    header.end()
    if counter != claimed_counter or sealed_parts != claimed_parts:
        raise SnapshotError(
            "snapshot plaintext header does not match its sealed values"
        )
    if sealed_parts != num_partitions:
        raise SnapshotError(
            f"snapshot has {sealed_parts} partitions but the store "
            f"has {num_partitions}; restore into matching geometry"
        )
    if (
        num_buckets != config.num_buckets
        or num_mac_hashes != config.num_mac_hashes
        or suite != config.suite_name
    ):
        raise SnapshotError(
            f"snapshot geometry ({num_buckets} buckets, "
            f"{num_mac_hashes} hashes, {suite!r}) does not match the "
            f"store ({config.num_buckets} buckets, "
            f"{config.num_mac_hashes} hashes, {config.suite_name!r})"
        )
    sections = [reader.take(reader.u64()) for _ in range(sealed_parts)]
    reader.end()
    return counter, master, sections


class PartitionSnapshotter:
    """One versioned snapshot blob for every partition of a store.

    Blob layout::

        PMAGIC | counter u64 | num_partitions u32
               | sealed_len u32 | sealed_header
               | num_partitions x (section_len u64 | section)

    ``sealed_header`` seals ``counter || num_partitions || num_buckets
    || num_mac_hashes || suite || master_secret`` — the shared counter
    plus the routing geometry — to the store's platform, so a blob
    cannot be opened into a different partition count or table shape
    and the plaintext copies (used for file naming / quick inspection)
    cannot be tampered into a mismatched store.  Works with every engine
    of ``PartitionedShieldStore``: each partition's host builds its own
    section (inline, or in its worker over ``OP_SNAPSHOT``) and is
    *constructed* from it (:meth:`open`).
    """

    counter_name = "shieldstore-partitions"  # one counter, every partition

    def __init__(self, counters: MonotonicCounterService):
        self.counters = counters

    # -- write --------------------------------------------------------------
    def snapshot_bytes(self, store) -> bytes:
        """Snapshot every partition under one shared counter bump."""
        ctx = store.enclave.context()
        counter = self.counters.increment(ctx, self.counter_name)
        sealed = store.sealing.seal(ctx, store.enclave, self._header(store, counter))
        # Every partition's host seals its own section (and rotates its
        # log inside the capture) — in a worker process or inline.
        by_index = store._engine.snapshot_all(counter)
        sections = [by_index[i] for i in range(store.num_threads)]
        parts: List[bytes] = [
            _PMAGIC,
            struct.pack("<QI", counter, store.num_threads),
            struct.pack("<I", len(sealed)),
            sealed,
        ]
        for section in sections:
            parts.append(struct.pack("<Q", len(section)))
            parts.append(section)
        return b"".join(parts)

    @staticmethod
    def _header(store, counter: int) -> bytes:
        suite = store.config.suite_name.encode("ascii")
        master = store._keyring.master
        return (
            _GEOMETRY.pack(
                counter,
                store.num_threads,
                store.config.num_buckets,
                store.config.num_mac_hashes,
            )
            + bytes([len(suite)])
            + suite
            + struct.pack("<H", len(master))
            + master
        )

    # -- read ---------------------------------------------------------------
    def open(self, blob: Optional[bytes], config: StoreConfig, **store_args):
        """Build the store ``blob`` describes; the start-up of a node.

        ``store_args`` are :class:`PartitionedShieldStore`'s own;
        ``blob=None`` is a start with no checkpoint.  Each partition is
        born from its section plus its authenticated log tail, and only
        then is freshness judged, once: the counter the recovery
        *reached* in every partition must not be behind the platform's,
        or the store is closed and :class:`~repro.errors.RollbackError`
        raised.  A refused blob is :class:`SnapshotError` or
        :class:`~repro.errors.SealingError`.
        """
        from repro.core.partition import PartitionedShieldStore

        store = PartitionedShieldStore(config, checkpoint=blob, **store_args)
        try:
            self.counters.check_not_rolled_back(
                self.counter_name, store.reached_counter
            )
        except RollbackError:
            store.close()
            raise
        return store


# ---------------------------------------------------------------------------
# performance model of periodic snapshots
# ---------------------------------------------------------------------------
@dataclass
class SnapshotPolicy:
    """How (and how often) periodic snapshots run during a measurement.

    ``fixed_cost_scale`` scales the per-snapshot *fixed* costs (fork,
    sealing, the ~60 ms monotonic-counter bump) relative to the paper's
    60-second schedule.  Scaled benchmarks shrink the interval together
    with the data, so these interval-independent costs must shrink by the
    same factor to preserve the paper's snapshot duty cycle; it defaults
    to ``interval_us / 60 s``.  Pass 1.0 for unscaled (real-time) runs.
    """

    mode: str = MODE_NONE
    interval_us: float = 60_000_000.0  # paper: every 60 s (Redis default)
    sealed_meta_bytes: Optional[int] = None  # default: derived from store
    fixed_cost_scale: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (MODE_NONE, MODE_NAIVE, MODE_OPTIMIZED):
            raise SnapshotError(f"unknown snapshot mode {self.mode!r}")
        if self.fixed_cost_scale is None:
            self.fixed_cost_scale = min(1.0, self.interval_us / 60_000_000.0)


class SnapshotScheduler:
    """Applies Fig. 19 snapshot costs to a running store's thread clocks.

    Experiments call :meth:`tick` between operations (cheap); the
    scheduler watches simulated time and injects stalls / per-write
    overheads according to the policy.  Snapshot activity is mirrored
    into the store's :class:`~repro.core.stats.StoreStats`
    (``snapshots``, ``snapshot_stall_us``, ``temp_table_merges``) so
    ``repro stats`` and experiment reports see it.
    """

    # Extra cycles a set pays during the optimized window: encrypt+insert
    # into the temporary table and update its metadata (Algorithm 1 L7).
    TEMP_TABLE_FACTOR = 0.6
    # Per-entry cost of folding the temporary table back into the main
    # table after the child finishes (Algorithm 1 L11).
    MERGE_CYCLES_PER_ENTRY = 2_500.0

    def __init__(self, store, policy: SnapshotPolicy):
        self.store = store  # ShieldStore or PartitionedShieldStore
        self.policy = policy
        self.machine = store.machine
        self.next_snapshot_us = policy.interval_us
        self.window_end_us: Optional[float] = None
        self.temp_table_writes = 0
        self.snapshots_taken = 0
        self.total_stall_us = 0.0
        self._stats = self._stats_target(store)

    @staticmethod
    def _stats_target(store) -> Optional[StoreStats]:
        """The StoreStats object snapshot counters are mirrored into.

        Single stores expose ``.stats`` directly; partitioned stores
        aggregate on demand, so the scheduler mirrors into partition 0
        (``merge`` sums partitions, so the aggregate stays correct).
        """
        stats = getattr(store, "stats", None)
        if isinstance(stats, StoreStats):
            return stats
        partitions = getattr(store, "partitions", None)
        if partitions:
            return partitions[0].stats
        return None

    # -- helpers ---------------------------------------------------------
    def _data_bytes(self) -> int:
        if hasattr(self.store, "partitions"):
            return sum(p.untrusted_bytes_live() for p in self.store.partitions)
        return self.store.untrusted_bytes_live()

    def _meta_bytes(self) -> int:
        if self.policy.sealed_meta_bytes is not None:
            return self.policy.sealed_meta_bytes
        if hasattr(self.store, "partitions"):
            return sum(
                p.config.num_mac_hashes * 16 + 64 for p in self.store.partitions
            )
        return self.store.config.num_mac_hashes * 16 + 64

    def _storage_us(self, nbytes: int) -> float:
        cost = self.machine.cost
        return cost.storage_seek_us + nbytes / cost.storage_write_bw_bytes_per_us

    def _stall_all(self, us: float) -> None:
        cycles = self.machine.cost.us_to_cycles(us)
        for clock in self.machine.clock.threads:
            clock.charge(cycles)
        self.total_stall_us += us
        if self._stats is not None:
            self._stats.snapshot_stall_us += us

    # -- the per-operation hook -----------------------------------------
    def tick(self, is_write: bool) -> None:
        """Advance the snapshot state machine; call once per operation."""
        if self.policy.mode == MODE_NONE:
            return
        now_us = self.machine.elapsed_us()
        if self.window_end_us is not None and now_us >= self.window_end_us:
            self._finish_window()
        if now_us >= self.next_snapshot_us:
            self._begin_snapshot()
        elif (
            self.policy.mode == MODE_OPTIMIZED
            and self.window_end_us is not None
            and is_write
        ):
            # Algorithm 1 line 7: mirror the write into the temp table.
            extra = self.machine.cost.op_dispatch_cycles * self.TEMP_TABLE_FACTOR
            extra += self.machine.cost.aes_cycles(64) * self.TEMP_TABLE_FACTOR
            self.machine.clock.threads[0].charge(extra)
            self.temp_table_writes += 1

    def _begin_snapshot(self) -> None:
        # A snapshot interval shorter than the previous copy-on-write
        # window means the window is still open here; its temp-table
        # merge (Algorithm 1 L11) must be paid before the next snapshot
        # resets the temp table, not silently dropped.
        if self.window_end_us is not None:
            self._finish_window()
        cost = self.machine.cost
        fixed = self.policy.fixed_cost_scale
        seal_us = fixed * cost.cycles_to_us(
            cost.aes_cycles(self._meta_bytes()) + cost.cmac_cycles(self._meta_bytes())
        )
        counter_us = fixed * cost.monotonic_counter_us
        meta_write_us = fixed * self._storage_us(self._meta_bytes())
        data_write_us = self._storage_us(self._data_bytes())
        self.snapshots_taken += 1
        if self._stats is not None:
            self._stats.snapshots += 1
        if self.policy.mode == MODE_NAIVE:
            # Serving is blocked for the entire snapshot.
            self._stall_all(seal_us + counter_us + meta_write_us + data_write_us)
            self.next_snapshot_us = (
                self.machine.elapsed_us() + self.policy.interval_us
            )
        else:
            # Optimized: stall only for seal + fork + counter + metadata;
            # the forked child writes entries concurrently.
            fork_us = fixed * cost.cycles_to_us(cost.fork_cycles)
            self._stall_all(seal_us + counter_us + fork_us + meta_write_us)
            self.window_end_us = self.machine.elapsed_us() + data_write_us
            self.temp_table_writes = 0
            self.next_snapshot_us = (
                self.machine.elapsed_us() + self.policy.interval_us
            )

    def _finish_window(self) -> None:
        # Algorithm 1 line 11: merge the temp table into the main table.
        merge_cycles = self.temp_table_writes * self.MERGE_CYCLES_PER_ENTRY
        self.machine.clock.threads[0].charge(merge_cycles)
        self.window_end_us = None
        self.temp_table_writes = 0
        if self._stats is not None:
            self._stats.temp_table_merges += 1
