"""Snapshot persistence (paper §4.4, Algorithm 1; evaluated in Fig. 19).

Three halves:

* **Functional snapshots** — :class:`Snapshotter` writes a restorable
  snapshot: the in-enclave metadata (master secret, MAC tree, count) is
  *sealed* to the platform; the untrusted entry records are written
  verbatim — they are already encrypted and integrity-protected, which
  is the design's headline persistence advantage (no re-encryption).
  A monotonic counter defends restores against rollback to an older
  snapshot.  Restore rebuilds the chains and verifies every bucket-set
  hash, so offline tampering with the snapshot file is detected.

* **Partitioned snapshots** — :class:`PartitionSnapshotter` extends the
  same format across every engine of
  :class:`~repro.core.partition.PartitionedShieldStore`: one versioned
  blob with a per-partition section each, a *shared* monotonic counter,
  and the partition count plus routing geometry sealed into the header
  so a restore into a mismatched store is rejected up front instead of
  silently corrupting the keyspace.  Sections are produced and consumed
  by each partition's :class:`~repro.core.host.PartitionHost` — in
  ``processes`` mode *inside* the worker processes
  (:data:`~repro.core.procpool.OP_SNAPSHOT` /
  :data:`~repro.core.procpool.OP_RESTORE`), so no plaintext ever
  crosses the pipe; the cached sections also power the pool's
  worker-crash recovery.

* **Performance model** — :class:`SnapshotScheduler` drives the paper's
  three Fig. 19 modes during a throughput run.  ``naive`` stalls all
  serving threads for the full storage write.  ``optimized`` follows
  Algorithm 1: a brief stall for sealing + fork, then a copy-on-write
  window during which the forked child streams entries to storage while
  the parent serves; writes during the window go additionally to a
  temporary table and are merged back when the child finishes.

Every parse of untrusted snapshot bytes goes through :class:`_Reader`,
which bounds-checks each read and rejects trailing bytes — malformed or
truncated blobs surface as :class:`~repro.errors.SnapshotError`, never
as a raw ``struct.error`` or silently-ignored garbage.  Blobs leave and
enter through the ``persistence.snapshot`` / ``persistence.restore``
shieldfault points: ``tamper`` swaps in a corrupted blob (exercising
the sealed header, section MACs and rollback checks downstream), and
there is nothing to drop, hence ``faults.cross(...) or blob``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.entry import HEADER_SIZE, MAC_SIZE, unpack_header
from repro.core.stats import StoreStats
from repro.core.store import ShieldStore
from repro.crypto.keys import derive_key
from repro.errors import SnapshotError
from repro.sim import faults
from repro.sim.counters import MonotonicCounterService
from repro.sim.enclave import ExecContext
from repro.sim.sealing import SealingService

_MAGIC = b"SSSNAP1\0"
_PMAGIC = b"SSPSNP1\0"


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
    """The monotonic counter a snapshot blob claims (either magic).

    Reads only the plaintext header — callers use it to name checkpoint
    files; the authoritative (sealed) copy is checked at restore.
    """
    if len(blob) < 16 or blob[:8] not in (_MAGIC, _PMAGIC):
        raise SnapshotError("not a snapshot blob")
    return struct.unpack_from("<Q", blob, 8)[0]


class _Reader:
    """Bounds-checked cursor over an untrusted snapshot blob."""

    __slots__ = ("blob", "off", "what")

    def __init__(self, blob: bytes, what: str = "snapshot"):
        self.blob = blob
        self.off = 0
        self.what = what

    def take(self, count: int) -> bytes:
        if count < 0 or self.off + count > len(self.blob):
            raise SnapshotError(
                f"{self.what} truncated: need {count} bytes at offset "
                f"{self.off}, have {len(self.blob) - self.off}"
            )
        data = self.blob[self.off : self.off + count]
        self.off += count
        return data

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def done(self) -> None:
        if self.off != len(self.blob):
            raise SnapshotError(
                f"{self.what} has {len(self.blob) - self.off} trailing "
                "bytes after the last record"
            )


# ---------------------------------------------------------------------------
# section format (shared by bare-store and partitioned snapshots)
# ---------------------------------------------------------------------------
def write_section(
    ctx: ExecContext, store: ShieldStore, sealing: SealingService, counter: int
) -> bytes:
    """Serialize one store as a snapshot section.

    ``sealed(counter || metadata) || count || records`` — the metadata
    (master secret, MAC tree, live count) is sealed to the platform;
    entry records are written verbatim because they are already
    encrypted and MACed (§4.4's no-re-encryption property).
    """
    meta = struct.pack("<Q", counter) + store.metadata_blob()
    sealed = sealing.seal(ctx, store.enclave, meta)
    parts: List[bytes] = [struct.pack("<I", len(sealed)), sealed]
    records: List[bytes] = []
    count = 0
    for bucket, record in store.iter_raw_entries():
        records.append(struct.pack("<II", bucket, len(record)) + record)
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
    verify: bool = True,
    counters: Optional[MonotonicCounterService] = None,
    counter_name: Optional[str] = None,
) -> None:
    """Load one snapshot section into a freshly constructed ``store``.

    Every read is bounds-checked and leftover bytes are rejected;
    malformed input raises :class:`SnapshotError`.  The sealed counter
    must equal ``expected_counter`` (the plaintext header's claim), and
    when a ``counters`` service is given it additionally enforces the
    rollback defense.
    """
    reader = _Reader(blob, "snapshot section")
    sealed = reader.take(reader.u32())
    meta = sealing.unseal(ctx, store.enclave, sealed)
    if len(meta) < 8:
        raise SnapshotError("sealed metadata too short for a counter")
    (sealed_counter,) = struct.unpack_from("<Q", meta, 0)
    if sealed_counter != expected_counter:
        raise SnapshotError("snapshot header counter does not match sealed value")
    if counters is not None and counter_name is not None:
        counters.check_not_rolled_back(counter_name, sealed_counter)
    store.load_metadata_blob(meta[8:])

    count = reader.u64()
    # Rebuild chains bucket by bucket, preserving chain order.
    tails: Dict[int, int] = {}
    mem = store.machine.memory
    for _ in range(count):
        bucket = reader.u32()
        rec_len = reader.u32()
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
    reader.done()

    if verify:
        _verify_all_sets(ctx, store)


def _verify_all_sets(ctx: ExecContext, store: ShieldStore) -> None:
    """Check every bucket-set hash against the restored MAC tree."""
    for set_id in range(store.config.num_mac_hashes):
        store._verify_covering_set(ctx, set_id, audit=True)


# ---------------------------------------------------------------------------
# bare-store snapshots (not served; see the class docstring)
# ---------------------------------------------------------------------------
class Snapshotter:
    """The bare-store §4.4 snapshot: one section under its own magic.

    No served path writes this format — ``repro serve`` checkpoints a
    one-partition store through :class:`PartitionSnapshotter` like any
    other.  It stays because ``tests/test_persistence.py`` and six more
    test files pin the section codec (:func:`write_section` /
    :func:`read_section`) through ``snapshot_bytes`` / ``restore``;
    ROADMAP open item 3 names it the next candidate to go.
    """

    def __init__(
        self,
        sealing: SealingService,
        counters: MonotonicCounterService,
        counter_name: str = "shieldstore",
    ):
        self.sealing = sealing
        self.counters = counters
        self.counter_name = counter_name

    def snapshot_bytes(self, ctx: ExecContext, store: ShieldStore) -> bytes:
        """Produce a snapshot blob; bumps the monotonic counter."""
        counter = self.counters.increment(ctx, self.counter_name)
        blob = (
            _MAGIC
            + struct.pack("<Q", counter)
            + write_section(ctx, store, self.sealing, counter)
        )
        return faults.cross("persistence.snapshot", blob) or blob

    def restore(
        self,
        ctx: ExecContext,
        blob: bytes,
        store: ShieldStore,
        verify: bool = True,
    ) -> ShieldStore:
        """Load a snapshot into a freshly constructed, empty ``store``.

        Raises :class:`SnapshotError` on format/tamper problems and
        :class:`~repro.errors.RollbackError` on stale snapshots.
        """
        if len(store) != 0:
            raise SnapshotError("restore target store must be empty")
        blob = faults.cross("persistence.restore", blob) or blob
        reader = _Reader(blob)
        if reader.take(len(_MAGIC)) != _MAGIC:
            raise SnapshotError("snapshot has wrong magic")
        claimed_counter = reader.u64()
        read_section(
            ctx,
            store,
            self.sealing,
            reader.take(len(blob) - reader.off),
            claimed_counter,
            verify=verify,
            counters=self.counters,
            counter_name=self.counter_name,
        )
        return store


# ---------------------------------------------------------------------------
# multi-partition snapshots
# ---------------------------------------------------------------------------
class PartitionSnapshotter:
    """One versioned snapshot blob for every partition of a store.

    Blob layout::

        PMAGIC | counter u64 | num_partitions u32
               | sealed_len u32 | sealed_header
               | num_partitions x (section_len u64 | section)

    ``sealed_header`` seals ``counter || num_partitions || num_buckets
    || num_mac_hashes || suite || master_secret`` — the shared counter
    plus the routing geometry, so a restore into a store with a
    different partition count or table shape fails with
    :class:`SnapshotError` before any partition is touched, and the
    plaintext copies (used for file naming / quick inspection) cannot be
    tampered into a mismatched restore.

    Works with every engine of ``PartitionedShieldStore`` through the
    same two calls (``snapshot_all``/``restore_all``): each partition's
    host builds and consumes its own section — inline, or in its worker
    over ``OP_SNAPSHOT``/``OP_RESTORE``, which also installs the
    sections as the pool's crash-recovery checkpoint.
    """

    def __init__(
        self,
        sealing: SealingService,
        counters: MonotonicCounterService,
        counter_name: str = "shieldstore-partitions",
    ):
        self.sealing = sealing
        self.counters = counters
        self.counter_name = counter_name

    @classmethod
    def for_store(
        cls,
        store,
        counters: MonotonicCounterService,
        counter_name: str = "shieldstore-partitions",
    ) -> "PartitionSnapshotter":
        """Snapshotter on the store's own platform sealing secret."""
        return cls(SealingService(store.platform_secret), counters, counter_name)

    # -- write --------------------------------------------------------------
    def snapshot_bytes(self, store) -> bytes:
        """Snapshot every partition under one shared counter bump."""
        ctx = store.enclave.context()
        counter = self.counters.increment(ctx, self.counter_name)
        sealed = self.sealing.seal(ctx, store.enclave, self._header(store, counter))
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
        blob = b"".join(parts)
        return faults.cross("persistence.snapshot", blob) or blob

    @staticmethod
    def _header(store, counter: int) -> bytes:
        suite = store.config.suite_name.encode("ascii")
        master = store._keyring.master
        return (
            struct.pack(
                "<QIII",
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
    def restore(self, blob: bytes, store, verify: bool = True):
        """Restore a multi-partition snapshot into ``store``.

        The target's geometry (partition count, bucket/hash counts,
        cipher suite) must match the sealed header exactly; mismatches
        raise :class:`SnapshotError` with nothing modified.  Partition
        contents are replaced wholesale: each host rebuilds its store
        from its own section and replays its log tail.
        """
        ctx = store.enclave.context()
        blob = faults.cross("persistence.restore", blob) or blob
        reader = _Reader(blob)
        if reader.take(len(_PMAGIC)) != _PMAGIC:
            raise SnapshotError("partition snapshot has wrong magic")
        claimed_counter = reader.u64()
        claimed_parts = reader.u32()
        sealed = reader.take(reader.u32())
        header = _Reader(
            self.sealing.unseal(ctx, store.enclave, sealed), "snapshot header"
        )
        counter = header.u64()
        num_partitions = header.u32()
        num_buckets = header.u32()
        num_mac_hashes = header.u32()
        suite = header.take(header.u8()).decode("ascii", "replace")
        master = header.take(header.u16())
        header.done()
        if counter != claimed_counter or num_partitions != claimed_parts:
            raise SnapshotError(
                "snapshot plaintext header does not match its sealed values"
            )
        self.counters.check_not_rolled_back(self.counter_name, counter)
        if num_partitions != store.num_threads:
            raise SnapshotError(
                f"snapshot has {num_partitions} partitions but the store "
                f"has {store.num_threads}; restore into matching geometry"
            )
        if (
            num_buckets != store.config.num_buckets
            or num_mac_hashes != store.config.num_mac_hashes
            or suite != store.config.suite_name
        ):
            raise SnapshotError(
                f"snapshot geometry ({num_buckets} buckets, "
                f"{num_mac_hashes} hashes, {suite!r}) does not match the "
                f"store ({store.config.num_buckets} buckets, "
                f"{store.config.num_mac_hashes} hashes, "
                f"{store.config.suite_name!r})"
            )
        sections = [reader.take(reader.u64()) for _ in range(num_partitions)]
        reader.done()

        store._engine.restore_all(sections, counter, verify=verify)
        store._rekey(master)
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
