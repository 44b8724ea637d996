"""Hash-partitioned multi-threading (§5.3)."""

import pytest

from repro.core import PartitionedShieldStore, shield_opt
from repro.errors import KeyNotFoundError, StoreError
from repro.sim import Machine


@pytest.fixture
def store():
    machine = Machine(num_threads=4)
    return PartitionedShieldStore(
        shield_opt(num_buckets=256, num_mac_hashes=128), machine=machine
    )


def owner(store, key):
    """The in-process partition store that holds ``key``."""
    return store.partitions[store.partition_index_of(key)]


class TestPartitioning:
    def test_basic_operations(self, store):
        for i in range(200):
            store.set(f"key-{i}".encode(), f"value-{i}".encode())
        for i in range(200):
            assert store.get(f"key-{i}".encode()) == f"value-{i}".encode()
        assert len(store) == 200
        store.delete(b"key-7")
        assert not store.contains(b"key-7")
        assert store.append(b"key-8", b"!") == b"value-8!"
        assert store.increment(b"ctr") == 1

    def test_routing_is_stable(self, store):
        for i in range(50):
            key = f"key-{i}".encode()
            assert owner(store, key) is owner(store, key)

    def test_keys_spread_across_partitions(self, store):
        owners = {
            owner(store, f"key-{i}".encode()).thread_id for i in range(200)
        }
        assert owners == {0, 1, 2, 3}

    def test_partitions_are_disjoint(self, store):
        for i in range(100):
            store.set(f"key-{i}".encode(), b"v")
        total = sum(len(p) for p in store.partitions)
        assert total == len(store) == 100
        # Each key is present in exactly its owner partition.
        for i in range(100):
            key = f"key-{i}".encode()
            holder = owner(store, key)
            for partition in store.partitions:
                if partition is holder:
                    assert partition.contains(key)
                else:
                    assert not partition.contains(key)

    def test_work_charged_to_owner_thread(self, store):
        key = b"single-key"
        thread_id = owner(store, key).thread_id
        store.machine.reset_measurement()
        store.set(key, b"value")
        for thread in store.machine.clock.threads:
            if thread.thread_id == thread_id:
                assert thread.cycles > 0
            else:
                assert thread.cycles == 0

    def test_parallel_speedup(self):
        """The same op mix finishes faster on 4 threads than on 1."""

        def elapsed(threads):
            machine = Machine(num_threads=threads)
            ps = PartitionedShieldStore(
                shield_opt(num_buckets=256, num_mac_hashes=128), machine=machine
            )
            for i in range(400):
                ps.set(f"key-{i}".encode(), b"value")
            machine.reset_measurement()
            for i in range(400):
                ps.get(f"key-{i}".encode())
            return machine.clock.elapsed_cycles()

        assert elapsed(4) < elapsed(1) / 2.0

    def test_stats_merge(self, store):
        for i in range(40):
            store.set(f"key-{i}".encode(), b"v")
        merged = store.stats()
        assert merged.sets == 40
        assert merged.inserts == 40

    def test_missing_key(self, store):
        with pytest.raises(KeyNotFoundError):
            store.get(b"nope")

    def test_needs_buckets_per_thread(self):
        machine = Machine(num_threads=4)
        with pytest.raises(StoreError):
            PartitionedShieldStore(
                shield_opt(num_buckets=2, num_mac_hashes=1), machine=machine
            )

    def test_single_thread_machine(self):
        ps = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32), machine=Machine()
        )
        assert ps.num_threads == 1
        ps.set(b"k", b"v")
        assert ps.get(b"k") == b"v"
