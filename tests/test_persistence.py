"""Snapshot persistence: functional roundtrips and the Fig. 19 model."""

import pytest

from repro.core import (
    MODE_NAIVE,
    MODE_NONE,
    MODE_OPTIMIZED,
    PartitionedShieldStore,
    PartitionSnapshotter,
    ShieldStore,
    SnapshotPolicy,
    SnapshotScheduler,
    shield_opt,
)
from repro.errors import (
    IntegrityError,
    ReplayError,
    RollbackError,
    SealingError,
    SnapshotError,
)
from repro.sim import MonotonicCounterService

# The platform sealing key derives from the master secret, so another
# master secret is another platform.
MASTER = bytes(range(32))
OTHER_MASTER = bytes(range(1, 33))


@pytest.fixture
def snapshotter():
    return PartitionSnapshotter(MonotonicCounterService())


def _config(**overrides):
    return shield_opt(num_buckets=32, num_mac_hashes=16, **overrides)


def fresh_store(**overrides):
    return ShieldStore(_config(**overrides))


def served_store():
    """One partition behind the router — the shape every snapshot has."""
    return PartitionedShieldStore(
        _config(), num_partitions=1, master_secret=MASTER
    )


def reopen(snapshotter, blob, master=MASTER):
    return snapshotter.open(
        blob, _config(), num_partitions=1, master_secret=master
    )


def populate(store, count=60):
    for i in range(count):
        store.set(f"key-{i}".encode(), f"value-{i}".encode() * (1 + i % 3))


class TestFunctionalSnapshots:
    def test_roundtrip(self, snapshotter):
        store = served_store()
        populate(store)
        restored = reopen(snapshotter, snapshotter.snapshot_bytes(store))
        assert len(restored) == len(store)
        for i in range(60):
            key = f"key-{i}".encode()
            assert restored.get(key) == store.get(key)

    def test_restored_store_is_writable(self, snapshotter):
        store = served_store()
        populate(store, 20)
        restored = reopen(snapshotter, snapshotter.snapshot_bytes(store))
        restored.set(b"new-key", b"new-value")
        restored.delete(b"key-3")
        assert restored.get(b"new-key") == b"new-value"
        assert not restored.contains(b"key-3")

    def test_snapshot_keeps_values_encrypted(self, snapshotter):
        store = served_store()
        store.set(b"secret-key-material", b"super-secret-value")
        blob = snapshotter.snapshot_bytes(store)
        assert b"secret-key-material" not in blob
        assert b"super-secret-value" not in blob

    def test_bad_magic_rejected(self, snapshotter):
        with pytest.raises(SnapshotError):
            reopen(snapshotter, b"NOTASNAP" + bytes(64))

    def test_rollback_detected(self, snapshotter):
        store = served_store()
        populate(store, 10)
        old_blob = snapshotter.snapshot_bytes(store)
        store.set(b"newer", b"data")
        snapshotter.snapshot_bytes(store)  # bumps the counter
        with pytest.raises(RollbackError):
            reopen(snapshotter, old_blob)

    def test_sealed_metadata_bound_to_enclave(self, snapshotter):
        store = served_store()
        populate(store, 5)
        blob = snapshotter.snapshot_bytes(store)
        # A different platform cannot unseal the metadata.
        with pytest.raises(SealingError):
            reopen(snapshotter, blob, master=OTHER_MASTER)

    def test_tampered_entry_mac_detected_at_restore(self, snapshotter):
        store = served_store()
        populate(store, 20)
        blob = bytearray(snapshotter.snapshot_bytes(store))
        blob[-3] ^= 0x10  # inside the last record's MAC
        with pytest.raises((ReplayError, IntegrityError, SnapshotError)):
            reopen(snapshotter, bytes(blob))

    def test_tampered_ciphertext_detected_at_get(self, snapshotter):
        store = served_store()
        populate(store, 20)
        blob = bytearray(snapshotter.snapshot_bytes(store))
        blob[-25] ^= 0x10  # inside the last record's ciphertext
        target = reopen(snapshotter, bytes(blob))
        detected = 0
        for i in range(20):
            try:
                target.get(f"key-{i}".encode())
            except (IntegrityError, ReplayError):
                detected += 1
        assert detected == 1


class TestSnapshotScheduler:
    def _run(self, mode, writes=True, ops=4000, interval_us=3000.0):
        store = fresh_store()
        populate(store, 30)
        store.machine.reset_measurement()
        policy = SnapshotPolicy(mode=mode, interval_us=interval_us)
        scheduler = SnapshotScheduler(store, policy)
        for i in range(ops):
            if writes and i % 2 == 0:
                store.set(f"key-{i % 30}".encode(), b"x" * 10)
            else:
                store.get(f"key-{i % 30}".encode())
            scheduler.tick(is_write=writes and i % 2 == 0)
        return scheduler, store.machine.elapsed_us(), ops

    def test_modes_are_ordered(self):
        _s_none, t_none, n = self._run(MODE_NONE)
        sched_naive, t_naive, _ = self._run(MODE_NAIVE)
        sched_opt, t_opt, _ = self._run(MODE_OPTIMIZED)
        assert sched_naive.snapshots_taken > 0
        assert sched_opt.snapshots_taken > 0
        assert t_none < t_opt < t_naive

    def test_read_only_optimized_is_nearly_free(self):
        _sched, t_none, _ = self._run(MODE_NONE, writes=False)
        sched_opt, t_opt, _ = self._run(MODE_OPTIMIZED, writes=False)
        assert sched_opt.snapshots_taken > 0
        assert t_opt < t_none * 1.10

    def test_naive_stall_recorded(self):
        scheduler, _t, _n = self._run(MODE_NAIVE)
        assert scheduler.total_stall_us > 0

    def test_temp_table_used_during_window(self):
        store = fresh_store()
        populate(store, 30)
        store.machine.reset_measurement()
        policy = SnapshotPolicy(mode=MODE_OPTIMIZED, interval_us=500.0)
        scheduler = SnapshotScheduler(store, policy)
        temp_writes = 0
        for i in range(3000):
            store.set(f"key-{i % 30}".encode(), b"y" * 10)
            scheduler.tick(is_write=True)
            temp_writes = max(temp_writes, scheduler.temp_table_writes)
        assert temp_writes > 0

    def test_bad_mode_rejected(self):
        with pytest.raises(SnapshotError):
            SnapshotPolicy(mode="sometimes")

    def test_counters_mirrored_into_store_stats(self):
        """Snapshot activity must reach StoreStats, not just the
        scheduler's private counters — ``repro stats`` and experiment
        reports read the store's stats."""
        store = fresh_store()
        populate(store, 30)
        store.machine.reset_measurement()
        policy = SnapshotPolicy(mode=MODE_OPTIMIZED, interval_us=500.0)
        scheduler = SnapshotScheduler(store, policy)
        for i in range(3000):
            store.set(f"key-{i % 30}".encode(), b"z" * 10)
            scheduler.tick(is_write=True)
        assert scheduler.snapshots_taken > 0
        assert store.stats.snapshots == scheduler.snapshots_taken
        assert store.stats.snapshot_stall_us == pytest.approx(
            scheduler.total_stall_us
        )
        assert store.stats.snapshot_stall_us > 0
        assert store.stats.temp_table_merges > 0

    def test_overlapping_window_pays_pending_merge(self):
        """An interval shorter than the copy-on-write window must not
        reset ``temp_table_writes`` without charging the pending merge
        (Algorithm 1 line 11)."""

        def begin_snapshot_cycles(pending_writes):
            store = fresh_store()
            populate(store, 10)
            store.machine.reset_measurement()
            policy = SnapshotPolicy(mode=MODE_OPTIMIZED, interval_us=100.0)
            scheduler = SnapshotScheduler(store, policy)
            # A previous snapshot's window is still open when the next
            # interval fires, with writes mirrored to the temp table.
            scheduler.window_end_us = float("inf")
            scheduler.temp_table_writes = pending_writes
            clock = store.machine.clock.threads[0]
            before = clock.cycles
            scheduler._begin_snapshot()
            assert scheduler.temp_table_writes == 0
            # The open window was finished (merged), not discarded.
            assert store.stats.temp_table_merges == 1
            return clock.cycles - before

        delta = begin_snapshot_cycles(7) - begin_snapshot_cycles(0)
        assert delta == pytest.approx(
            7 * SnapshotScheduler.MERGE_CYCLES_PER_ENTRY
        )


class TestMalformedSnapshots:
    """Untrusted snapshot bytes must fail cleanly (never struct.error)."""

    def _blob(self, snapshotter):
        store = served_store()
        populate(store, 12)
        return snapshotter.snapshot_bytes(store)

    def test_every_truncation_raises_snapshot_error(self, snapshotter):
        blob = self._blob(snapshotter)
        for cut in range(0, len(blob), 13):
            with pytest.raises(SnapshotError):
                reopen(snapshotter, blob[:cut])

    def test_truncation_at_every_framing_boundary(self, snapshotter):
        blob = self._blob(snapshotter)
        # magic | counter | partitions | sealed_len | (sealed header)
        #       | section_len | sealed_len | (sealed) | count | first record
        for cut in (0, 4, 8, 12, 16, 19, 20, 23, len(blob) - 1):
            with pytest.raises(SnapshotError):
                reopen(snapshotter, blob[:cut])

    def test_trailing_garbage_rejected(self, snapshotter):
        blob = self._blob(snapshotter)
        for extra in (b"\x00", b"junk-after-the-last-record"):
            with pytest.raises(SnapshotError, match="trailing"):
                reopen(snapshotter, blob + extra)

    def test_oversized_length_field_rejected(self, snapshotter):
        blob = bytearray(self._blob(snapshotter))
        # Claim a sealed header far larger than the file.
        blob[20:24] = (2**31).to_bytes(4, "little")
        with pytest.raises(SnapshotError):
            reopen(snapshotter, bytes(blob))
