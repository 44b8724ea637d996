#!/usr/bin/env python3
"""Scenario: a multi-tenant session cluster with TTLs and elasticity.

Combines the extensions into one deployment story:

* three ShieldStore shards (independent enclaves, secrets, attestation)
  behind consistent hashing;
* session items carry confidential TTLs (the host cannot even see when
  they lapse);
* the cluster scales out under load — a fourth shard joins and only the
  keys whose ring ownership changed migrate;
* one shard is drained for maintenance without losing a key.
"""

from repro import AttestationService, shield_opt
from repro.ext import ExpiringStore
from repro.ext.cluster import ShieldCluster


class _OwnerView:
    """The cluster's verbs, timed by one shard's simulated clock."""

    def __init__(self, cluster: ShieldCluster, node):
        self.machine = node.machine
        self.get, self.set, self.delete = cluster.get, cluster.set, cluster.delete


class ExpiringCluster:
    """TTL wrapper over every shard of a cluster.

    Envelopes go through the cluster's own verbs (every stored value is
    a versioned record the rebalancer understands); only the expiry
    clock is per shard.
    """

    def __init__(self, cluster: ShieldCluster):
        self.cluster = cluster
        self._wrappers = {}

    def _store_for(self, key: bytes) -> ExpiringStore:
        node = self.cluster.owner_of(key)
        if node.node_id not in self._wrappers:
            self._wrappers[node.node_id] = ExpiringStore(
                _OwnerView(self.cluster, node)
            )
        return self._wrappers[node.node_id]

    def set(self, key, value, ttl_us=None):
        self._store_for(key).set(key, value, ttl_us)

    def get(self, key):
        return self._store_for(key).get(key)


def main() -> None:
    cluster = ShieldCluster(
        shield_opt(num_buckets=512, num_mac_hashes=256),
        AttestationService(b"fleet-attestation-root"),
        num_nodes=3,
    )
    sessions = ExpiringCluster(cluster)

    print("== populate: 300 tenant sessions across 3 shards ==")
    for tenant in ("acme", "globex", "initech"):
        for i in range(100):
            sessions.set(
                f"{tenant}:session:{i:03d}".encode(),
                f"user={tenant}-{i}".encode(),
                ttl_us=30_000_000.0,  # 30 simulated seconds
            )
    print("shard sizes:", cluster.shard_sizes())
    print("lookup:", sessions.get(b"acme:session:042"))

    print("\n== scale out: add node-3 under load ==")
    migrated_before = cluster.keys_migrated
    cluster.add_node("node-3")
    print(f"migrated {cluster.keys_migrated - migrated_before} of {len(cluster)} keys")
    print("shard sizes:", cluster.shard_sizes())
    print("data intact:", sessions.get(b"globex:session:007"))

    print("\n== drain node-1 for maintenance ==")
    moved = cluster.remove_node("node-1")
    print(f"drained {moved} keys; shard sizes: {cluster.shard_sizes()}")
    print("data intact:", sessions.get(b"initech:session:099"))

    print("\n== per-shard isolation ==")
    masters = {n.store.keyring.master[:4].hex() for n in cluster.nodes.values()}
    print(f"{len(cluster.nodes)} shards, {len(masters)} distinct master secrets")
    print(f"cluster wall-clock (busiest shard): "
          f"{cluster.total_elapsed_us() / 1000:.1f} ms simulated")


if __name__ == "__main__":
    main()
