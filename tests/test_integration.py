"""Cross-module integration scenarios the unit suites don't cover."""

import pytest

from repro.core import (
    MODE_OPTIMIZED,
    PartitionedShieldStore,
    PartitionSnapshotter,
    ShieldStore,
    SnapshotPolicy,
    SnapshotScheduler,
    shield_opt,
)
from repro.core.persistence import read_section, write_section
from repro.errors import (
    EnclaveMemoryError,
    IntegrityError,
    KeyNotFoundError,
    PointerSafetyError,
    ReplayError,
    StoreError,
)
from repro.net import (
    FRONTEND_HOTCALLS,
    NetworkedServer,
    Request,
    make_secure_channels,
)
from repro.sim import (
    Attacker,
    AttestationService,
    Machine,
    MonotonicCounterService,
    SealingService,
    attested_handshake,
)


class TestFullPipeline:
    def test_attest_serve_snapshot_restore(self):
        """The whole lifecycle on one machine: attest, serve traffic over
        the secure session, snapshot, crash, restore, keep serving."""
        config = shield_opt(num_buckets=64, num_mac_hashes=32)
        store = PartitionedShieldStore(config, num_partitions=1)
        service = AttestationService(b"deployment-ias-secret")
        ctx = store.enclave.context()
        suites = attested_handshake(service, ctx, store.enclave, bytes(range(32)))
        cch, sch = make_secure_channels(*suites)
        server = NetworkedServer(
            store, frontend=FRONTEND_HOTCALLS, server_channel=sch, client_channel=cch
        )
        for i in range(50):
            server.handle(Request("set", f"k{i:02d}".encode(), f"v{i}".encode()))
        assert server.handle(Request("increment", b"visits", b"1")).value == b"1"

        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        blob = snapshotter.snapshot_bytes(store)

        restored = snapshotter.open(blob, config, num_partitions=1)
        assert restored.get(b"k07") == b"v7"
        assert restored.get(b"visits") == b"1"
        restored.set(b"post-restore", b"works")
        assert restored.get(b"post-restore") == b"works"

    def test_partitioned_store_under_attack(self):
        """Partitioning must not weaken the integrity guarantees."""
        machine = Machine(num_threads=4)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=128), machine=machine
        )
        for i in range(100):
            store.set(f"key-{i:03d}".encode(), b"value")
        attacker = Attacker(machine.memory)
        # Flip one byte in every untrusted allocation's midpoint.
        detected = 0
        for base, size in attacker.untrusted_allocations():
            attacker.flip_bit(base + size // 2, 2)
        for i in range(100):
            try:
                store.get(f"key-{i:03d}".encode())
            except (IntegrityError, ReplayError, KeyNotFoundError):
                detected += 1
            except (EnclaveMemoryError, PointerSafetyError, StoreError):
                detected += 1  # corrupted pointers refused, not followed
        assert detected > 0

    def test_snapshots_with_partitioned_store_scheduler(self):
        """The Fig. 19 scheduler runs against a partitioned store too."""
        machine = Machine(num_threads=2)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=128, num_mac_hashes=64), machine=machine
        )
        for i in range(60):
            store.set(f"key-{i}".encode(), b"v" * 32)
        machine.reset_measurement()
        scheduler = SnapshotScheduler(
            store, SnapshotPolicy(mode=MODE_OPTIMIZED, interval_us=2_000.0)
        )
        for i in range(3000):
            store.set(f"key-{i % 60}".encode(), b"w" * 32)
            scheduler.tick(is_write=True)
        assert scheduler.snapshots_taken > 0
        assert store.get(b"key-3") == b"w" * 32

    def test_networked_partitioned_4_threads(self):
        machine = Machine(num_threads=4)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=128), machine=machine
        )
        server = NetworkedServer(store, frontend=FRONTEND_HOTCALLS)
        for i in range(200):
            server.handle(Request("set", f"key-{i:03d}".encode(), b"v"))
        busy_threads = sum(1 for t in machine.clock.threads if t.cycles > 0)
        assert busy_threads == 4
        for i in range(200):
            assert server.handle(Request("get", f"key-{i:03d}".encode())).value == b"v"

    def test_two_stores_one_machine_are_isolated(self):
        """Different enclaves on one host must not share secrets: blobs
        sealed by one cannot restore into the other."""
        machine = Machine()
        from repro.sim import Enclave

        enclave_a = Enclave(machine, bytes([1]) * 32, name="a")
        enclave_b = Enclave(machine, bytes([2]) * 32, name="b")
        store_a = ShieldStore(
            shield_opt(num_buckets=16, num_mac_hashes=8),
            machine=machine,
            enclave=enclave_a,
        )
        store_b = ShieldStore(
            shield_opt(num_buckets=16, num_mac_hashes=8),
            machine=machine,
            enclave=enclave_b,
        )
        store_a.set(b"k", b"a-data")
        store_b.set(b"k", b"b-data")
        assert store_a.get(b"k") == b"a-data"
        assert store_b.get(b"k") == b"b-data"

        sealing = SealingService(b"platform-secret-y")
        section = write_section(store_a.enclave.context(), store_a, sealing, 1)
        target = ShieldStore(
            shield_opt(num_buckets=16, num_mac_hashes=8),
            machine=machine,
            enclave=enclave_b,
        )
        from repro.errors import SealingError

        with pytest.raises(SealingError):
            read_section(target.enclave.context(), target, sealing, section, 1)
