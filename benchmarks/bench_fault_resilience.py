"""Transport resilience under scripted faults (shieldfault chaos bench).

Drives a seeded read-mostly workload through the real TCP deployment
(:class:`~repro.net.tcp.TCPShieldClient` -> ``TCPShieldServer`` -> the
multiprocess partition engine) under four scenarios:

* **baseline** — no faults: the cost floor of the resilient transport
  (deadlines + idempotency tokens active, nothing firing);
* **drop5**    — ~5% of wire frames dropped each way;
* **tamper1**  — ~1% of client -> server wire frames corrupted before
  authentication (every tamper costs a session drop + re-attested
  reconnect);
* **kill**     — one partition worker SIGKILLed mid-run, recovered from
  the pool checkpoint while the client retries through it.

Every scenario asserts *zero client-visible errors* and a final store
state that exactly matches the client's model (retried writes applied
exactly once — the idempotency-token dedup at work), then reports wall
time, throughput, and the retry/reconnect/tamper/recovery counters.
A faulted scenario whose counter in ``FIRED_IF`` stayed 0 never met its
fault, so surviving it proves nothing: the run exits 1.

Results land in ``BENCH_fault_resilience.json`` (override with
``--out``).  Run ``python benchmarks/bench_fault_resilience.py`` for
the full run or ``--quick`` for the CI-sized variant.
"""

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    MODE_PROCESSES,
    PartitionSnapshotter,
    PartitionedShieldStore,
    process_mode_supported,
    shield_opt,
)
from repro.net import TCPShieldClient, TCPShieldServer
from repro.sim import (
    AttestationService,
    FaultPlan,
    FaultRule,
    MonotonicCounterService,
    faults,
)
from repro.util import usable_cpus

SECRET = bytes(range(32))

SCENARIOS = {
    "baseline": [],
    "drop5": [
        FaultRule(point="tcp.client.recv", kind="drop", probability=0.05),
        FaultRule(point="tcp.server.recv", kind="drop", probability=0.05),
    ],
    "tamper1": [
        # Deterministic ~1% schedule so every run actually measures the
        # tamper -> session-drop -> re-attest path.
        FaultRule(point="tcp.server.recv", kind="tamper", every=100),
    ],
    "kill": [
        # The checkpoint is taken before the plan installs, so hit 0 is
        # the first worker frame of the measured run, on either plane.
        FaultRule(point="procpool.send", kind="crash", hits=[0]),
    ],
}

# The counter each faulted scenario's fault must move at least once.
FIRED_IF = {
    "drop5": "client_retries",
    "tamper1": "tamper_drops",
    "kill": "worker_recoveries",
}


def _scenario_point(name, rules, partitions, pairs, ops, seed) -> dict:
    store = PartitionedShieldStore(
        shield_opt(num_buckets=max(64 * partitions, pairs // 2),
                   num_mac_hashes=16 * partitions),
        master_secret=SECRET,
        num_partitions=partitions,
        mode=MODE_PROCESSES,
    )
    service = AttestationService(b"bench-attestation")
    server = TCPShieldServer(store, service, request_deadline_s=10.0)
    server.start()
    client = TCPShieldClient(
        server.address,
        service,
        store.enclave.measurement,
        bytes(range(32, 64)),
        request_deadline_s=2.0,
        max_retries=12,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
    )
    try:
        keys = [f"key-{i:06d}".encode() for i in range(pairs)]
        model = {}
        for key in keys:
            client.set(key, b"value-" + key)
            model[key] = b"value-" + key
        # Checkpoint before the storm: the kill scenario recovers from
        # here with nothing to lose.
        counters = MonotonicCounterService()
        PartitionSnapshotter(counters).snapshot_bytes(store)
        plan = faults.install(FaultPlan(list(rules), seed=seed))

        rng = random.Random(seed)
        counts = {}
        start = time.perf_counter()
        for i in range(ops):
            key = keys[rng.randrange(pairs)]
            r = rng.random()
            if r < 0.80:
                assert client.get(key) == model[key]
            elif r < 0.95:
                value = b"v%d-" % i + key
                client.set(key, value)
                model[key] = value
            else:
                ctr = b"ctr-%d" % (i % 4)
                client.increment(ctr)
                counts[ctr] = counts.get(ctr, 0) + 1
        wall = time.perf_counter() - start

        live = client.server_stats()
        faults.uninstall()
        # Exactly-once check: the store must match the client's model.
        for key, value in model.items():
            assert client.get(key) == value
        for ctr, count in counts.items():
            assert client.get(ctr) == str(count).encode()
        return {
            "scenario": name,
            "partitions": partitions,
            "pairs": pairs,
            "ops": ops,
            "wall_ms": round(wall * 1000.0, 2),
            "kops_per_s": round(ops / wall / 1000.0, 2),
            "client_retries": client.stats.net_retries,
            "client_reconnects": client.stats.net_reconnects,
            "client_timeouts": client.stats.net_timeouts,
            "tamper_drops": live["tamper_drops"],
            "deadline_drops": live["deadline_drops"],
            "degraded_replies": live["degraded_replies"],
            "idempotent_replays": live["idempotent_replays"],
            "worker_recoveries": live["worker_recoveries"],
            "faults_fired": plan.snapshot()["total_fires"],
            "client_visible_errors": 0,  # any error would have raised
        }
    finally:
        faults.uninstall()
        client.close()
        server.close()
        store.close()


def run(partitions, pairs, ops, seed) -> dict:
    points = []
    notes = []
    if not process_mode_supported():
        notes.append(
            "process mode unsupported on this platform; "
            "fault-resilience scenarios not measured"
        )
        return {
            "benchmark": "fault_resilience",
            "config": {"partitions": partitions, "pairs": pairs, "ops": ops,
                       "seed": seed},
            "scenarios": points,
            "notes": notes,
        }
    for name, rules in SCENARIOS.items():
        point = _scenario_point(name, rules, partitions, pairs, ops, seed)
        points.append(point)
        print(
            f"{name:10s} {point['ops']:5d} ops  "
            f"{point['wall_ms']:8.1f} ms  "
            f"{point['kops_per_s']:6.2f} Kop/s  "
            f"retries {point['client_retries']:3d}  "
            f"tampers {point['tamper_drops']:2d}  "
            f"recoveries {point['worker_recoveries']}"
        )
    baseline = points[0]["kops_per_s"] or 1.0
    for point in points[1:]:
        point["throughput_vs_baseline"] = round(
            point["kops_per_s"] / baseline, 3
        )
    return {
        "benchmark": "fault_resilience",
        "config": {"partitions": partitions, "pairs": pairs, "ops": ops,
                   "seed": seed},
        "cpus": usable_cpus(),
        "scenarios": points,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--pairs", type=int, default=64)
    parser.add_argument("--ops", type=int, default=800)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer ops, 2 partitions)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.quick:
        args.ops = 200
        args.partitions = 2

    report = run(args.partitions, args.pairs, args.ops, args.seed)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_fault_resilience.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    for note in report["notes"]:
        print(f"note: {note}")
    print(f"wrote {out}")
    unfired = [
        f"{point['scenario']}: {FIRED_IF[point['scenario']]} is 0"
        for point in report["scenarios"]
        if point["scenario"] in FIRED_IF
        and point[FIRED_IF[point["scenario"]]] < 1
    ]
    for line in unfired:
        print(f"error: fault never fired — {line}", file=sys.stderr)
    return 1 if unfired else 0


if __name__ == "__main__":
    sys.exit(main())
