"""Sharded cluster: routing, rebalancing, isolation."""

import pytest

from repro.core import shield_opt
from repro.errors import KeyNotFoundError, StoreError
from repro.ext.cluster import ShieldCluster
from repro.sim import AttestationService


@pytest.fixture
def cluster():
    return ShieldCluster(
        shield_opt(num_buckets=64, num_mac_hashes=32),
        AttestationService(b"cluster-ias-secret"),
        num_nodes=3,
    )


def populate(cluster, count=150):
    for i in range(count):
        cluster.set(f"key-{i:04d}".encode(), f"value-{i}".encode())


class TestRouting:
    def test_basic_operations(self, cluster):
        populate(cluster)
        assert len(cluster) == 150
        assert cluster.get(b"key-0042") == b"value-42"
        cluster.delete(b"key-0042")
        assert not cluster.contains(b"key-0042")
        assert cluster.append(b"key-0001", b"!") == b"value-1!"
        assert cluster.increment(b"counter", 7) == 7

    def test_stable_ownership(self, cluster):
        for i in range(50):
            key = f"key-{i}".encode()
            assert cluster.owner_of(key) is cluster.owner_of(key)

    def test_keys_spread_over_shards(self, cluster):
        populate(cluster, 300)
        sizes = cluster.shard_sizes()
        assert len(sizes) == 3
        assert all(size > 30 for size in sizes.values())  # rough balance

    def test_missing_key(self, cluster):
        with pytest.raises(KeyNotFoundError):
            cluster.get(b"never-stored")


class TestMembership:
    def test_add_node_migrates_only_moved_ranges(self, cluster):
        populate(cluster, 200)
        before = {
            f"key-{i:04d}".encode(): cluster.get(f"key-{i:04d}".encode())
            for i in range(200)
        }
        moved = cluster.keys_migrated
        cluster.add_node("node-3")
        migrated = cluster.keys_migrated - moved
        # Consistent hashing: roughly 1/4 of keys move, never all.
        assert 0 < migrated < 150
        for key, value in before.items():
            assert cluster.get(key) == value
        assert len(cluster) == 200

    def test_remove_node_drains(self, cluster):
        populate(cluster, 200)
        victim = next(iter(cluster.nodes))
        cluster.remove_node(victim)
        assert victim not in cluster.nodes
        assert len(cluster) == 200
        for i in range(200):
            assert cluster.get(f"key-{i:04d}".encode()) == f"value-{i}".encode()

    def test_cannot_drain_last_node(self):
        single = ShieldCluster(
            shield_opt(num_buckets=16, num_mac_hashes=8),
            AttestationService(b"cluster-ias-secret"),
            num_nodes=1,
        )
        with pytest.raises(StoreError):
            single.remove_node("node-0")

    def test_duplicate_node_rejected(self, cluster):
        with pytest.raises(StoreError):
            cluster.add_node("node-0")


class TestIsolation:
    def test_shards_have_distinct_secrets(self, cluster):
        def masters():
            return {node.store.keyring.master for node in cluster.nodes.values()}

        assert len(masters()) == len(cluster.nodes)
        # Drain-then-join must not hand the newcomer a live node's seed
        # (seeding from len(nodes) gave node-3 node-2's master secret).
        cluster.remove_node("node-0")
        cluster.add_node("node-3")
        assert len(masters()) == len(cluster.nodes) == 3

    def test_shard_ciphertexts_differ_for_same_pair(self, cluster):
        """The same (key, value) stored on two shards must produce
        different ciphertexts — no cross-shard key reuse."""
        nodes = list(cluster.nodes.values())
        nodes[0].store.set(b"same-key", b"same-value")
        nodes[1].store.set(b"same-key", b"same-value")

        def ciphertext_of(node):
            store = node.store
            bucket = store.keyring.keyed_bucket_hash(
                b"same-key", store.config.num_buckets
            )
            addr = int.from_bytes(
                store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
                "little",
            )
            return store.machine.memory.raw_read(addr + 33, 18)

        assert ciphertext_of(nodes[0]) != ciphertext_of(nodes[1])

    def test_per_shard_clocks(self, cluster):
        populate(cluster, 90)
        busy = [node.machine.elapsed_us() for node in cluster.nodes.values()]
        assert all(us > 0 for us in busy)
        assert cluster.total_elapsed_us() == max(busy)


@pytest.fixture
def replicated():
    return ShieldCluster(
        shield_opt(num_buckets=64, num_mac_hashes=32),
        AttestationService(b"cluster-ias-secret"),
        num_nodes=4,
        replicas=3,
    )


class TestReplicatedCluster:
    """replicas > 1: quorum placement on the shared ring (satellite)."""

    def test_validation(self):
        config = shield_opt(num_buckets=64, num_mac_hashes=32)
        service = AttestationService(b"cluster-ias-secret")
        with pytest.raises(StoreError, match="more replicas"):
            ShieldCluster(config, service, num_nodes=2, replicas=3)
        with pytest.raises(StoreError, match="consistency"):
            ShieldCluster(config, service, num_nodes=3, replicas=2,
                          consistency="eventual")

    def test_basic_operations(self, replicated):
        populate(replicated, 80)
        assert len(replicated) == 80
        assert replicated.get(b"key-0042") == b"value-42"
        replicated.delete(b"key-0042")
        with pytest.raises(KeyNotFoundError):
            replicated.get(b"key-0042")
        assert len(replicated) == 79

    def test_each_key_lands_on_its_preference_list(self, replicated):
        populate(replicated, 60)
        for i in range(60):
            key = f"key-{i:04d}".encode()
            holders = [
                node.node_id for node in replicated.nodes.values()
                if node.store.contains(key)
            ]
            expected = [n.node_id for n in replicated.preference_nodes(key)]
            assert sorted(holders) == sorted(expected)

    def test_survives_a_node_kill(self, replicated):
        populate(replicated, 80)
        replicated.kill_node("node-1")
        for i in range(80):
            assert replicated.get(f"key-{i:04d}".encode()) == \
                f"value-{i}".encode()
        # Writes still reach a majority of each key's replica set.
        replicated.set(b"key-after-kill", b"still-works")
        assert replicated.get(b"key-after-kill") == b"still-works"

    def test_below_quorum_write_fails_but_one_works(self, replicated):
        populate(replicated, 10)
        key = b"key-0003"
        prefs = [n.node_id for n in replicated.preference_nodes(key)]
        for node_id in prefs[:2]:  # 2 of 3 replicas down: no majority
            replicated.kill_node(node_id)
        with pytest.raises(StoreError):
            replicated.set(key, b"nope")
        replicated.set(key, b"yes", consistency="one")
        assert replicated.get(key, consistency="one") == b"yes"

    def test_add_node_keeps_replicated_data(self, replicated):
        populate(replicated, 60)
        replicated.add_node("node-9")
        for i in range(60):
            assert replicated.get(f"key-{i:04d}".encode()) == \
                f"value-{i}".encode()
        # Placement is re-established against the grown ring.
        for i in range(0, 60, 7):
            key = f"key-{i:04d}".encode()
            holders = sorted(
                node.node_id for node in replicated.nodes.values()
                if node.store.contains(key)
            )
            expected = sorted(
                n.node_id for n in replicated.preference_nodes(key)
            )
            assert holders == expected

    def test_remove_node_drains_without_loss(self, replicated):
        populate(replicated, 60)
        replicated.remove_node("node-2")
        assert len(replicated.nodes) == 3
        for i in range(60):
            assert replicated.get(f"key-{i:04d}".encode()) == \
                f"value-{i}".encode()

    def test_remove_below_replica_floor_refused(self, replicated):
        replicated.remove_node("node-3")
        with pytest.raises(StoreError, match="fewer nodes than replicas"):
            replicated.remove_node("node-2")
