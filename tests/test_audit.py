"""Full-table integrity audit."""

import struct

import pytest

from repro.core import ShieldStore, shield_opt
from repro.errors import IntegrityError, ReplayError
from repro.sim import Attacker


@pytest.fixture(params=["macbucket", "chained"])
def store(request):
    config = shield_opt(num_buckets=16, num_mac_hashes=8)
    if request.param == "chained":
        config = config.with_(mac_bucketing=False)
    s = ShieldStore(config)
    for i in range(80):
        s.set(f"key-{i:02d}".encode(), f"value-{i}".encode())
    return s


class TestAudit:
    def test_clean_store_passes(self, store):
        assert store.audit() == 80

    def test_empty_store_passes(self):
        s = ShieldStore(shield_opt(num_buckets=8, num_mac_hashes=4))
        assert s.audit() == 0

    def test_detects_any_entry_tamper(self, store):
        attacker = Attacker(store.machine.memory)
        bucket = store.keyring.keyed_bucket_hash(b"key-33", store.config.num_buckets)
        addr = int.from_bytes(
            store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
            "little",
        )
        attacker.flip_bit(addr + 40, 3)
        with pytest.raises((IntegrityError, ReplayError)):
            store.audit()

    def test_detects_chain_truncation(self, store):
        attacker = Attacker(store.machine.memory)
        for bucket in range(store.config.num_buckets):
            head = int.from_bytes(
                store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
                "little",
            )
            if head:
                attacker.write(head, struct.pack("<Q", 0))
                break
        with pytest.raises((IntegrityError, ReplayError)):
            store.audit()

    def test_audit_after_restore(self):
        from repro.core import PartitionedShieldStore, PartitionSnapshotter
        from repro.sim import MonotonicCounterService

        config = shield_opt(num_buckets=16, num_mac_hashes=8)
        source = PartitionedShieldStore(config, num_partitions=1)
        for i in range(30):
            source.set(f"k{i}".encode(), b"v")
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        target = snapshotter.open(
            snapshotter.snapshot_bytes(source), config, num_partitions=1
        )
        assert target.audit() == 30

    def test_audit_charges_cycles(self, store):
        store.machine.reset_measurement()
        store.audit()
        assert store.machine.clock.elapsed_cycles() > 0
