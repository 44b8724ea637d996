"""Replication overhead, anti-entropy convergence and partition chaos.

Measures the replicated multi-node cluster (``repro.ext.replication``)
end to end over real TCP nodes:

* **replication-factor overhead** — acked QUORUM write throughput
  through a :class:`ReplicaClient` against groups of N = 2 and 3
  replicas, versus the same workload against one unreplicated
  ``TCPShieldServer`` (factor 1).  Every replicated write fans the
  versioned record to all N nodes and waits for a majority, so the
  ratio shows what durability costs;
* **anti-entropy convergence** — kill one of three replicas, keep
  writing at QUORUM, restart it empty, and time the Merkle
  push-pull rounds until every replica reports a byte-identical
  verified content digest (plus how many keys the exchange repaired);
* **partition chaos** — the CI gate scenario: three nodes, 5% frame
  drops, one replica partitioned away then healed, one replica killed
  and restarted.  Reports acked QUORUM writes, how many were lost
  (the gate requires **zero**) and whether the group converged.

Workloads are seeded and deterministic; only wall-clock rates vary
run to run.  Results land in ``BENCH_replication.json`` (override
with ``--out``).  ``--quick`` is the CI-sized variant.
"""

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import shield_opt
from repro.core.store import ShieldStore
from repro.errors import StoreError
from repro.ext.replication import ReplicationGroup
from repro.net import TCPShieldClient, TCPShieldServer
from repro.sim import AttestationService, faults
from repro.sim.faults import FaultPlan, FaultRule

VALUE = b"v" * 64


def _config():
    return shield_opt(num_buckets=256, num_mac_hashes=32)


def _baseline_writes(ops: int) -> dict:
    """Factor 1: one attested client against one unreplicated server."""
    store = ShieldStore(_config())
    service = AttestationService(b"bench-replication-ias")
    server = TCPShieldServer(store, service)
    server.start()
    try:
        client = TCPShieldClient(
            server.address, service, store.enclave.measurement,
            entropy=os.urandom(32),
        )
        start = time.perf_counter()
        for i in range(ops):
            client.set(b"bk%06d" % i, VALUE)
        wall = time.perf_counter() - start
        client.close()
    finally:
        server.close()
    return {
        "replicas": 1,
        "ops": ops,
        "wall_ms": round(wall * 1000.0, 2),
        "writes_per_s": round(ops / wall, 1),
    }


def _replicated_writes(num_nodes: int, ops: int, baseline: dict) -> dict:
    group = ReplicationGroup(num_nodes=num_nodes, config=_config())
    try:
        client = group.client("bench-writer")
        start = time.perf_counter()
        for i in range(ops):
            client.set(b"rk%06d" % i, VALUE)
        wall = time.perf_counter() - start
        client.close()
        group.flush_all()
        rate = ops / wall
        return {
            "replicas": num_nodes,
            "ops": ops,
            "wall_ms": round(wall * 1000.0, 2),
            "writes_per_s": round(rate, 1),
            "overhead_vs_single": round(
                baseline["writes_per_s"] / rate, 2
            ),
        }
    finally:
        group.close()


def _convergence(pairs: int) -> dict:
    """Time anti-entropy refilling a replica that missed ``pairs`` writes."""
    group = ReplicationGroup(num_nodes=3, config=_config())
    try:
        client = group.client("bench-sync")
        group.kill("node-2")
        for i in range(pairs):
            client.set(b"sk%06d" % i, VALUE)
        group.restart("node-2")
        start = time.perf_counter()
        rounds = 0
        while not group.converged():
            group.sync_all(rounds=1)
            rounds += 1
            if rounds > 16:
                raise StoreError("anti-entropy failed to converge")
        wall = time.perf_counter() - start
        repaired = sum(
            node.store.stats().sync_keys_repaired
            for node in group.live_nodes()
        )
        client.close()
        return {
            "pairs_behind": pairs,
            "rounds": rounds,
            "keys_repaired": repaired,
            "convergence_ms": round(wall * 1000.0, 2),
            "repaired_kpairs_per_s": round(pairs / wall / 1000.0, 2),
        }
    finally:
        group.close()


def _partition_chaos(ops: int) -> dict:
    """The CI gate scenario: drops + healed partition + node kill."""
    group = ReplicationGroup(num_nodes=3, config=_config(),
                             link_deadline_s=0.5)
    plan = FaultPlan([
        FaultRule(point="tcp.client.*", kind="partition",
                  groups=[["node-0"], ["node-1", "node-2"]]),
        FaultRule(point="tcp.client.send", kind="drop", probability=0.05),
    ], seed=11)
    client = group.client("bench-chaos", max_retries=4)
    acked = {}
    attempted = 0
    try:
        calm = ops // 3
        for i in range(calm):
            attempted += 1
            client.set(b"xk%06d" % i, VALUE)
            acked[b"xk%06d" % i] = VALUE
        faults.install(plan)
        try:
            for i in range(calm, 2 * ops // 3):
                attempted += 1
                try:
                    client.set(b"xk%06d" % i, VALUE)
                    acked[b"xk%06d" % i] = VALUE
                except StoreError:
                    pass
            group.kill("node-2")
            for i in range(2 * ops // 3, ops):
                attempted += 1
                try:
                    client.set(b"xk%06d" % i, VALUE)
                    acked[b"xk%06d" % i] = VALUE
                except StoreError:
                    pass
        finally:
            plan.heal()
            faults.uninstall()
        group.restart("node-2")
        group.sync_all(rounds=3)
        lost = sum(
            1 for key, value in acked.items()
            if any(node.store.get(key) != value
                   for node in group.live_nodes())
        )
        return {
            "attempted_writes": attempted,
            "acked_quorum_writes": len(acked),
            "lost_acked_quorum_writes": lost,
            "converged": group.converged(),
            "fault_fires": plan.fires(),
        }
    finally:
        client.close()
        group.close()


def run(ops: int, sync_pairs: int, chaos_ops: int) -> dict:
    baseline = _baseline_writes(ops)
    overhead = [baseline]
    for num_nodes in (2, 3):
        overhead.append(_replicated_writes(num_nodes, ops, baseline))
    return {
        "benchmark": "replication",
        "config": {"ops": ops, "sync_pairs": sync_pairs,
                   "chaos_ops": chaos_ops, "value_bytes": len(VALUE)},
        "write_overhead": overhead,
        "anti_entropy": _convergence(sync_pairs),
        "chaos": _partition_chaos(chaos_ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=600,
                        help="acked writes per throughput point")
    parser.add_argument("--sync-pairs", type=int, default=400,
                        help="keys the restarted replica is behind")
    parser.add_argument("--chaos-ops", type=int, default=90,
                        help="writes attempted across the chaos phases")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.quick:
        args.ops, args.sync_pairs, args.chaos_ops = 150, 120, 60

    report = run(args.ops, args.sync_pairs, args.chaos_ops)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_replication.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    chaos = report["chaos"]
    print(f"acked quorum writes: {chaos['acked_quorum_writes']} "
          f"({chaos['lost_acked_quorum_writes']} lost, "
          f"converged={chaos['converged']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
