#!/usr/bin/env python3
"""Scenario: a multi-tenant session cluster that scales out and drains.

One deployment story over the cluster coordinator:

* three ShieldStore shards (independent enclaves, secrets, attestation)
  behind consistent hashing;
* the cluster scales out under load — a fourth shard joins and only the
  keys whose ring ownership changed migrate;
* one shard is drained for maintenance without losing a key.
"""

from repro import AttestationService, shield_opt
from repro.ext.cluster import ShieldCluster


def main() -> None:
    cluster = ShieldCluster(
        shield_opt(num_buckets=512, num_mac_hashes=256),
        AttestationService(b"fleet-attestation-root"),
        num_nodes=3,
    )

    print("== populate: 300 tenant sessions across 3 shards ==")
    for tenant in ("acme", "globex", "initech"):
        for i in range(100):
            cluster.set(
                f"{tenant}:session:{i:03d}".encode(),
                f"user={tenant}-{i}".encode(),
            )
    print("shard sizes:", cluster.shard_sizes())
    print("lookup:", cluster.get(b"acme:session:042"))

    print("\n== scale out: add node-3 under load ==")
    migrated_before = cluster.keys_migrated
    cluster.add_node("node-3")
    print(f"migrated {cluster.keys_migrated - migrated_before} of {len(cluster)} keys")
    print("shard sizes:", cluster.shard_sizes())
    print("data intact:", cluster.get(b"globex:session:007"))

    print("\n== drain node-1 for maintenance ==")
    moved = cluster.remove_node("node-1")
    print(f"drained {moved} keys; shard sizes: {cluster.shard_sizes()}")
    print("data intact:", cluster.get(b"initech:session:099"))

    print("\n== per-shard isolation ==")
    masters = {n.store.keyring.master[:4].hex() for n in cluster.nodes.values()}
    print(f"{len(cluster.nodes)} shards, {len(masters)} distinct master secrets")
    print(f"cluster wall-clock (busiest shard): "
          f"{cluster.total_elapsed_us() / 1000:.1f} ms simulated")


if __name__ == "__main__":
    main()
