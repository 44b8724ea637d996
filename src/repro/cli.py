"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                      — the experiment catalog with paper refs
* ``run <experiment> [...]``    — regenerate one table/figure (with an
  optional ASCII chart of the shape)
* ``demo``                      — one-minute guided tour of the store
  and its defenses
* ``serve --port N``            — start a real TCP ShieldStore server
  (``--snapshot-dir``/``--snapshot-interval`` add periodic §4.4
  checkpoints and restore-on-start, ``--snapshot-keep`` bounds the
  retained checkpoints, ``--fault-plan plan.json`` installs a seeded
  shieldfault schedule for chaos drills, and ``--node-id``/``--peer
  NAME=HOST:PORT``/``--replication-secret`` join the node to a
  replicated group with write fan-out and Merkle anti-entropy)
* ``stats --connect HOST:PORT --measurement HEX`` — attest a running
  ``serve`` deployment and print its live merged counters, batch,
  pool-stage and resilience counters included (``--format json`` for
  machine-readable output)
* ``lint``                      — shieldlint static analysis: enclave
  trust-boundary taint, verify-before-use, lock-order and the
  shieldcrypt key-domain / nonce-reuse / ct-compare rules over the
  package tree (exit 0 clean / 1 findings / 2 analyzer error)
* ``info``                      — cost-model constants and version

Examples::

    python -m repro run fig03 --scale 0.005 --ops 2000 --chart
    python -m repro run table1
    python -m repro demo
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import ALL_EXPERIMENTS

_PAPER_REFS = {
    "table1": "baseline parity with memcached (networked, no SGX)",
    "fig02": "memory latency w/ and w/o SGX vs working set",
    "fig03": "naive in-enclave store collapse beyond the EPC",
    "fig06": "extra heap allocator: OCALLs vs chunk size",
    "fig09": "key-hint decryption savings",
    "fig10": "overall normalized throughput (headline result)",
    "fig11": "per-workload throughput, large data set",
    "fig12": "append-operation mixes",
    "fig13": "1-4 thread scalability",
    "fig14": "optimization ablation over chain lengths",
    "fig15": "MAC-hash count trade-off",
    "fig16": "vs Eleos across value sizes",
    "fig17": "vs Eleos across working-set sizes",
    "fig18": "networked evaluation (HotCalls)",
    "fig19": "persistence: none/naive/optimized snapshots",
    "breakdown": "per-op cycle attribution by subsystem (beyond the paper)",
}

_CHARTS = {
    # experiment -> (kind, x/label header, series headers, log_y)
    "fig02": ("line", "WSS (MB)", ["NoSGX read", "SGX_Enclave read"], True),
    "fig03": ("line", "WSS (MB)", ["NoSGX (Kop/s)", "Baseline (Kop/s)"], True),
    "fig17": (
        "line",
        "WSS (MB)",
        ["Eleos Kop/s", "ShieldOpt Kop/s", "ShieldOpt+cache Kop/s"],
        False,
    ),
    "fig11": (
        "bars",
        "workload",
        ["baseline Kop/s", "shieldbase Kop/s", "shieldopt Kop/s"],
        False,
    ),
    "fig16": ("bars", "value (B)", ["Eleos Kop/s", "ShieldOpt Kop/s"], False),
}


def _cmd_list(_args) -> int:
    print("experiments (python -m repro run <name>):")
    for name in sorted(ALL_EXPERIMENTS):
        print(f"  {name:8s} {_PAPER_REFS.get(name, '')}")
    return 0


def _cmd_run(args) -> int:
    module = ALL_EXPERIMENTS.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; try `python -m repro list`")
        return 2
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.ops is not None:
        run_params = module.run.__code__.co_varnames[: module.run.__code__.co_argcount]
        kwargs["ops" if "ops" in run_params else "max_ops"] = args.ops
    result = module.run(**kwargs)
    print(result.format())
    if args.chart and args.experiment in _CHARTS:
        from repro.experiments import charts

        kind, x_header, series, log_y = _CHARTS[args.experiment]
        print()
        if kind == "line":
            print(charts.render_sweep(result, x_header, series, log_y=log_y))
        else:
            print(charts.render_bars(result, x_header, series, unit=" Kop/s"))
    return 0


def _cmd_demo(_args) -> int:
    from repro import Attacker, ShieldStore, shield_opt
    from repro.core.entry import TAMPER_PROBE_OFFSET
    from repro.errors import IntegrityError, ReplayError

    store = ShieldStore(shield_opt(num_buckets=512, num_mac_hashes=256))
    store.set(b"demo-key", b"demo-value")
    print("set/get:", store.get(b"demo-key"))
    attacker = Attacker(store.machine.memory)
    base, size = attacker.untrusted_allocations()[-1]
    print("untrusted memory holds only ciphertext:",
          b"demo-value" not in attacker.read(base, size))
    # Locate and tamper the entry.
    bucket = store.keyring.keyed_bucket_hash(b"demo-key", store.config.num_buckets)
    addr = int.from_bytes(
        store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8), "little"
    )
    attacker.flip_bit(addr + TAMPER_PROBE_OFFSET, 1)
    try:
        store.get(b"demo-key")
        print("tampering detected: NO (bug)")
        return 1
    except (IntegrityError, ReplayError) as exc:
        print(f"tampering detected: {type(exc).__name__}")
    print(f"simulated time so far: {store.machine.elapsed_us():.1f} us")
    return 0


def _cmd_serve(args) -> int:
    import hashlib
    import signal
    import time

    from repro import AttestationService, shield_opt
    from repro.errors import SealingError, SnapshotError
    from repro.node import Node
    from repro.sim.cycles import MB

    if args.workers < 1:
        print(f"--workers {args.workers}: need at least one partition",
              file=sys.stderr)
        return 2
    if args.snapshot_keep < 1:
        print(f"--snapshot-keep {args.snapshot_keep}: at least the newest "
              "checkpoint must be kept", file=sys.stderr)
        return 2
    config = shield_opt(num_buckets=8192, num_mac_hashes=4096,
                        cache_bytes=int(args.cache_mb * MB),
                        mac_cache_bytes=int(args.mac_cache_mb * MB))
    peers = []
    for spec in args.peer or ():
        name, eq, addr = spec.partition("=")
        host_part, colon, port_part = addr.rpartition(":")
        if not name or not eq or not colon or not port_part.isdigit():
            print(f"bad --peer {spec!r}: expected NAME=HOST:PORT",
                  file=sys.stderr)
            return 2
        peers.append((name, host_part, int(port_part)))
    replicated = bool(peers or args.node_id)
    if replicated and args.workers > 1:
        print("replication (--peer/--node-id) requires --workers 1: the "
              "partition engine shards one node; replication spans nodes",
              file=sys.stderr)
        return 2
    if peers and not args.replication_secret:
        print("--peer requires --replication-secret (all group members "
              "must share one master secret so anti-entropy digests and "
              "bucket placement line up)", file=sys.stderr)
        return 2

    master = None
    if args.replication_secret:
        # Stretch the operator passphrase into a full-width master
        # secret (every group member derives the same one).
        secret = b"shieldstore/replication-group:" + args.replication_secret.encode()
        master = hashlib.sha256(secret).digest()
    plan = None
    if args.fault_plan:
        from repro.sim import faults as faultsmod

        plan = faultsmod.FaultPlan.from_file(args.fault_plan)
        faultsmod.install(plan)
        print(f"fault plan: {len(plan.rules)} rule(s), seed {plan.seed} "
              f"({args.fault_plan})")

    # One store shape whatever the worker count: auto mode hosts a lone
    # partition in this process and gives each of several its own worker
    # process (falling back in-process on exotic platforms).  Building
    # it is the whole recovery (checkpoint, log tails, verdict) or a refusal.
    service = AttestationService(args.attestation_secret.encode())
    try:
        node = Node(
            config, service, args.snapshot_dir, args.wal_dir,
            node_id=(args.node_id or "node-0") if replicated else None,
            anti_entropy_interval_s=args.anti_entropy_interval,
            snapshot_interval_s=args.snapshot_interval, snapshot_keep=args.snapshot_keep,
            server_args=dict(
                host=args.host, port=args.port, max_connections=args.max_connections,
                request_deadline_s=args.request_deadline,
            ),
            master_secret=master, num_partitions=args.workers,
            data_plane=args.data_plane, wal_sync_ms=args.wal_sync_ms,
        )
    except (SnapshotError, SealingError) as exc:
        print(f"restore rejected: {exc}", file=sys.stderr)
        return 1
    store = node.durable
    print(f"partition engine: {args.workers} partition(s), mode={store.mode}"
          + (f", data-plane={store.data_plane}" if store.data_plane else ""))
    if args.wal_dir:
        print(f"write-ahead log: {args.wal_dir} "
              f"(group commit {args.wal_sync_ms:g} ms)")
    if node.restored_from:
        print(f"restored {len(store)} keys from {node.restored_from}")
    if node.replayed:
        print(f"replayed {node.replayed} operation(s) from the write-ahead log")
    for name, peer_host, peer_port in peers:
        node.store.add_peer(name, (peer_host, peer_port), service, store.enclave.measurement)

    # SIGTERM (kill, systemd, docker stop) stops the way Ctrl-C does.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        node.start()
        if node.daemon is not None:
            print(f"snapshots: every {args.snapshot_interval:g}s "
                  f"-> {args.snapshot_dir}")
        if replicated:
            print(f"replication: node {node.node_id}, {len(peers)} peer(s), "
                  f"anti-entropy every {args.anti_entropy_interval:g}s")
        bound_host, port = node.address
        print(f"ShieldStore enclave serving on {bound_host}:{port}")
        print(f"measurement: {store.enclave.measurement.hex()}")
        print("press Ctrl-C to stop")
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    try:
        final = node.close()
    except Exception as exc:
        print(f"final checkpoint failed: {exc}")
    else:
        if final is not None:
            print(f"final checkpoint: {final}")
    if plan is not None:
        report = plan.snapshot()
        print(f"faults injected: {report['total_fires']} "
              f"across {len(report['fires'])} point/kind pair(s)")
    print("stopped")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.planner import plan

    result = plan(
        args.pairs,
        key_size=args.key_size,
        val_size=args.value_size,
        num_buckets=args.buckets,
        num_mac_hashes=args.mac_hashes,
    )
    print(result.summary())
    return 0


def _emit_json(payload) -> None:
    """Shared machine-readable output path (``stats``/``lint`` --format
    json): one stable, sorted, indented JSON document on stdout."""
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_stats_connect(args) -> int:
    """Attest a running ``repro serve`` and print its live counters."""
    import os

    from repro.net import TCPShieldClient
    from repro.sim import AttestationService

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print("--connect needs HOST:PORT", file=sys.stderr)
        return 2
    service = AttestationService(args.attestation_secret.encode())
    client = TCPShieldClient(
        (host, int(port)),
        service,
        bytes.fromhex(args.measurement),
        os.urandom(32),
    )
    try:
        counters = client.server_stats()
    finally:
        client.close()
    if args.format == "json":
        _emit_json({"connect": args.connect, "counters": counters})
        return 0
    print(f"live counters from {args.connect}:")
    for name, value in sorted(counters.items()):
        print(f"  {name:28s} {value}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import AnalysisError, run_analysis

    try:
        report = run_analysis(root=args.path, rules=args.rule or None)
    except AnalysisError as exc:
        print(f"shieldlint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(report.format_text())
        if args.stale_suppressions:
            for path, line in report.stale_suppressions:
                print(f"{path}:{line}: stale suppression — every rule it "
                      "names ran and none fired; delete the comment")
    code = report.exit_code()
    if args.stale_suppressions and report.stale_suppressions:
        code = max(code, 1)
    return code


def _cmd_info(_args) -> int:
    import repro
    from repro.sim.cycles import DEFAULT_COST_MODEL as cost

    print(f"repro {repro.__version__} — ShieldStore (EuroSys'19) reproduction")
    print(f"platform model: {cost.freq_ghz} GHz, EPC {cost.epc_effective_bytes >> 20} MB "
          f"effective, LLC {cost.llc_bytes >> 20} MB")
    print(f"fault: read {cost.page_fault_read_cycles} cy / write "
          f"{cost.page_fault_write_cycles} cy ({cost.fault_serial_fraction:.0%} serialized)")
    print(f"crossings: ecall {cost.ecall_cycles} cy, hotcall {cost.hotcall_cycles} cy")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ShieldStore (EuroSys'19) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="regenerate a paper table/figure")
    run.add_argument("experiment")
    run.add_argument("--scale", type=float, default=None,
                     help="working-set scale vs paper (default per-experiment)")
    run.add_argument("--ops", type=int, default=None, help="measured requests")
    run.add_argument("--chart", action="store_true", help="also render ASCII chart")
    run.set_defaults(func=_cmd_run)

    sub.add_parser("demo", help="one-minute guided tour").set_defaults(func=_cmd_demo)

    serve = sub.add_parser("serve", help="start a real TCP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--attestation-secret", default="dev-attestation-secret")
    serve.add_argument("--workers", type=int, default=1,
                       help="partition worker processes (>1 enables the "
                            "process-parallel partition engine)")
    serve.add_argument("--data-plane", choices=["pipe", "shm"], default=None,
                       help="worker crossing transport: 'shm' = sealed "
                            "shared-memory rings (default where supported), "
                            "'pipe' = portable pipes")
    serve.add_argument("--snapshot-dir", default=None,
                       help="directory for periodic sealed checkpoints; "
                            "the newest one is restored on startup")
    serve.add_argument("--snapshot-interval", type=float, default=60.0,
                       help="seconds between checkpoints (default 60, "
                            "the paper's §4.4 schedule)")
    serve.add_argument("--snapshot-keep", type=int, default=5,
                       help="checkpoints retained in --snapshot-dir; older "
                            "snapshot-*.bin files are pruned (default 5)")
    serve.add_argument("--wal-dir", default=None,
                       help="directory for sealed per-partition write-ahead "
                            "logs; acknowledged mutations are appended "
                            "before apply and replayed on restart, so "
                            "crashes lose nothing")
    serve.add_argument("--wal-sync-ms", type=float, default=2.0,
                       help="group-commit window in milliseconds: fsync the "
                            "log in the background at most this often (0 = "
                            "fsync every append on the request; default 2)")
    serve.add_argument("--max-connections", type=int, default=64,
                       help="concurrent session cap; excess accepts are "
                            "refused and counted (default 64)")
    serve.add_argument("--request-deadline", type=float, default=30.0,
                       help="per-request wire deadline in seconds; stalled "
                            "connections are dropped (default 30)")
    serve.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                       help="install a seeded shieldfault injection plan "
                            "(see repro.sim.faults) for chaos drills")
    serve.add_argument("--cache-mb", type=float, default=0.0,
                       help="in-enclave plaintext value cache budget in MB "
                            "(§6.3 ShieldOpt+cache; split across workers; "
                            "0 disables)")
    serve.add_argument("--mac-cache-mb", type=float, default=0.0,
                       help="enclave-resident verified MAC-list cache "
                            "budget in MB (O(1) hit-path verification; "
                            "split across workers; 0 disables)")
    serve.add_argument("--node-id", default=None,
                       help="this node's replication-group name; enables "
                            "the replicated store (requires --workers 1)")
    serve.add_argument("--peer", action="append", default=None,
                       metavar="NAME=HOST:PORT",
                       help="replication peer (repeatable); every group "
                            "member lists every other member and shares "
                            "--replication-secret")
    serve.add_argument("--replication-secret", default=None,
                       help="shared group master secret; required with "
                            "--peer so anti-entropy digests and keyed "
                            "bucket placement agree across replicas")
    serve.add_argument("--anti-entropy-interval", type=float, default=5.0,
                       help="seconds between background Merkle anti-"
                            "entropy rounds against each peer (default 5)")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats", help="attest a running `repro serve` and print its live counters"
    )
    stats.add_argument("--format", default="text", choices=["text", "json"],
                       help="output format (json is stable and sorted)")
    stats.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="address of the running `repro serve`")
    stats.add_argument("--measurement", required=True, metavar="HEX",
                       help="expected enclave measurement, printed by "
                            "`repro serve` at startup")
    stats.add_argument("--attestation-secret", default="dev-attestation-secret",
                       help="attestation service secret")
    stats.set_defaults(func=_cmd_stats_connect)

    lint = sub.add_parser(
        "lint",
        help="shieldlint: trust-boundary, verify-before-use, "
             "lock-order, key-domain, nonce-reuse and ct-compare "
             "static analysis (exit 0 clean / 1 findings / "
             "2 analyzer error)",
    )
    lint.add_argument("path", nargs="?", default=None,
                      help="analysis root (default: the installed "
                           "repro package tree)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="output format (json is stable and sorted)")
    lint.add_argument("--rule", action="append", default=None,
                      choices=["trust-boundary", "verify-before-use",
                               "lock-order", "key-domain", "nonce-reuse",
                               "ct-compare"],
                      help="run only this rule (repeatable)")
    lint.add_argument("--stale-suppressions", action="store_true",
                      help="also report ignore-comments whose rules all "
                           "ran but no longer fire (exit 1 if any)")
    lint.set_defaults(func=_cmd_lint)

    sub.add_parser("info", help="cost-model constants").set_defaults(func=_cmd_info)

    planner = sub.add_parser("plan", help="size a deployment (§4.3 trade-offs)")
    planner.add_argument("pairs", type=int, help="expected key-value pairs")
    planner.add_argument("--key-size", type=int, default=16)
    planner.add_argument("--value-size", type=int, default=512)
    planner.add_argument("--buckets", type=int, default=None)
    planner.add_argument("--mac-hashes", type=int, default=None)
    planner.set_defaults(func=_cmd_plan)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
