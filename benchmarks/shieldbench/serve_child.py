"""The benchmark-owned server process.

Builds a scenario's store through the public constructors, bulk-loads it
and serves it with ``TCPShieldServer``, so generator and server do not
share an interpreter lock.  (``repro serve`` cannot stand in: its table
is hard-wired to 8192 buckets.)

Control channel: one JSON object per line.  The harness writes the
configuration line, then commands, on stdin; this process answers each
on stdout — ``ready`` (port, measurement, set-up split) first, then one
reply per ``stats`` / ``replay`` / ``stop``.  End of stdin or SIGTERM
shuts down cleanly (server drained, workers joined, shm unlinked), so a
dead harness cannot orphan a worker.

Spawn-safe: a ``processes``-mode store starts its workers with the
``spawn`` method, which re-imports this file in each worker — hence the
``__main__`` guard, and ``src/`` goes on ``PYTHONPATH`` for them.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _stats(server, store) -> dict:
    import procstat

    pids = procstat.tree_pids(os.getpid())
    stages = store.stage_timings() if hasattr(store, "stage_timings") else None
    return {
        "store": server.stats_snapshot().snapshot_dict(),
        "transport": server.transport_snapshot().snapshot_dict(),
        "stages": stages,
        "cpu_s": procstat.cpu_seconds(pids),
        "peak_rss_mib": procstat.peak_rss_mib(pids),
        "processes": len(pids),
    }


def _replay(store, dataset, wire_ops) -> dict:
    import gen
    import layers

    tracer = layers.Tracer()
    seconds = layers.layered_replay(store, gen.decode_ops(dataset, wire_ops), tracer)
    return {"seconds": seconds, "spans": tracer.spans}


def main() -> int:
    config = json.loads(sys.stdin.readline())
    started = time.perf_counter()

    import gen
    import scenarios
    from repro.net.sessions import AttestationService
    from repro.net.tcp import TCPShieldServer

    sc = scenarios.scenario(config["workload"], config["smoke"])
    dataset = gen.Dataset(config["seed"], sc.pairs)
    store = scenarios.build_store(sc, config.get("wal_dir"))
    built = time.perf_counter()
    if config["load"]:
        scenarios.load(store, dataset)
    loaded = time.perf_counter()
    server = TCPShieldServer(
        store, AttestationService(scenarios.ATTESTATION_SECRET), port=0
    )
    server.start()

    def terminate(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, terminate)
    try:
        _reply({
            "event": "ready",
            "port": server.address[1],
            "measurement": store.enclave.measurement.hex(),
            "build_s": built - started,
            "load_s": loaded - built,
            "keys": len(store),
        })
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stats":
                _reply(_stats(server, store))
            elif command["cmd"] == "replay":
                _reply(_replay(store, dataset, command["ops"]))
            elif command["cmd"] == "stop":
                break
    finally:
        server.close()
        if hasattr(store, "close"):
            store.close()
    _reply({"event": "stopped"})
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    sys.exit(main())
