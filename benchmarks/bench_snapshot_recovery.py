"""Snapshot cost and worker crash-recovery latency (paper §4.4).

Measures three things about the durable multi-partition checkpoints
produced by :class:`~repro.core.persistence.PartitionSnapshotter`:

* **snapshot cost** — wall time and blob size for a full checkpoint at
  several store sizes.  Entries are dumped already-encrypted (§4.4:
  no re-encryption at snapshot time), so the cost should scale with
  entry count, not value plaintext handling;
* **restore cost** — wall time to build a store from the blob
  (:meth:`PartitionSnapshotter.open`: worker spawn in ``processes``
  mode, MAC-bucket rebuild and set-hash verification included);
* **recovery latency** — with the multiprocess engine, SIGKILL one
  partition worker and time the respawn-plus-restore path end to end
  (first failed request through the pool reporting ``recovered``);
* **recovery-point objective** — acknowledged mutations lost to a
  SIGKILL after the last checkpoint, with and without the sealed
  write-ahead log (``wal``), plus the write-throughput cost of the
  log's group commit;
* **replay throughput** — operations per second replayed from a
  sealed log chain during recovery.

Store sizes are swept so the JSON shows how checkpoint and recovery
cost grow with resident entries.  All workloads are seeded and
deterministic; only wall-clock numbers vary run to run.

Results land in ``BENCH_snapshot_recovery.json`` (override with
``--out``).  Run ``python benchmarks/bench_snapshot_recovery.py`` for
the full sweep or ``--quick`` for the CI-sized variant.
"""

import argparse
import json
import os
import pathlib
import signal
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    MODE_PROCESSES,
    MODE_SEQUENTIAL,
    PartitionSnapshotter,
    PartitionedShieldStore,
    process_mode_supported,
    shield_opt,
)
from repro.errors import WorkerError
from repro.sim import Machine, MonotonicCounterService
from repro.util import usable_cpus

SECRET = bytes(range(32))


def _shape(mode: str, partitions: int, pairs: int, wal_dir=None):
    """``(config, store arguments)``: what a store of this size is built
    with, fresh or opened from a checkpoint."""
    config = shield_opt(
        num_buckets=max(64 * partitions, pairs // 2),
        num_mac_hashes=16 * partitions,
    )
    if mode == MODE_PROCESSES:
        return config, dict(
            master_secret=SECRET,
            num_partitions=partitions,
            mode=MODE_PROCESSES,
            wal_dir=wal_dir,
        )
    return config, dict(
        machine=Machine(num_threads=partitions),
        master_secret=SECRET,
        mode=MODE_SEQUENTIAL,
        wal_dir=wal_dir,
    )


def _build(
    mode: str, partitions: int, pairs: int, wal_dir=None
) -> PartitionedShieldStore:
    config, args = _shape(mode, partitions, pairs, wal_dir)
    return PartitionedShieldStore(config, **args)


def _populate(store, pairs: int, batch: int = 512):
    items = [
        (f"key-{i:08d}".encode(), f"value-{i:08d}".encode() * 4)
        for i in range(pairs)
    ]
    for base in range(0, pairs, batch):
        store.multi_set(items[base : base + batch])


def _snapshot_point(mode: str, partitions: int, pairs: int) -> dict:
    store = _build(mode, partitions, pairs)
    try:
        counters = MonotonicCounterService()
        snapshotter = PartitionSnapshotter(counters)
        _populate(store, pairs)

        start = time.perf_counter()
        blob = snapshotter.snapshot_bytes(store)
        snap_wall = time.perf_counter() - start

        # Restore is construction: the store is born from the blob
        # (worker spawn included, in ``processes`` mode).
        config, args = _shape(mode, partitions, pairs)
        start = time.perf_counter()
        target = snapshotter.open(blob, config, **args)
        restore_wall = time.perf_counter() - start
        try:
            assert target.audit() == pairs
        finally:
            target.close()
        return {
            "mode": mode,
            "pairs": pairs,
            "blob_bytes": len(blob),
            "snapshot_ms": round(snap_wall * 1000.0, 2),
            "restore_ms": round(restore_wall * 1000.0, 2),
            "snapshot_kpairs_per_s": round(pairs / snap_wall / 1000.0, 1),
            "restore_kpairs_per_s": round(pairs / restore_wall / 1000.0, 1),
        }
    finally:
        store.close()


def _recovery_point(partitions: int, pairs: int) -> dict:
    """SIGKILL one worker and time respawn + restore from checkpoint."""
    store = _build(MODE_PROCESSES, partitions, pairs)
    try:
        counters = MonotonicCounterService()
        snapshotter = PartitionSnapshotter(counters)
        _populate(store, pairs)
        snapshotter.snapshot_bytes(store)

        keys = [f"key-{i:08d}".encode() for i in range(pairs)]
        victim = store.partition_index_of(keys[0])
        os.kill(store._pool.workers[victim].process.pid, signal.SIGKILL)

        start = time.perf_counter()
        try:
            store.multi_get(keys[:64])
        except WorkerError:
            pass  # the interrupted call fails; the pool recovers in place
        recovery_wall = time.perf_counter() - start
        assert store.partition_state == "recovered"
        assert store.audit() == pairs
        stats = store.stats()
        return {
            "partitions": partitions,
            "pairs": pairs,
            "recovery_ms": round(recovery_wall * 1000.0, 2),
            "worker_recoveries": stats.worker_recoveries,
            "worker_ops_lost": stats.worker_ops_lost,
        }
    finally:
        store.close()


def _rpo_point(partitions: int, pairs: int, tail: int, wal: bool) -> dict:
    """Acknowledged-mutation loss after SIGKILL, with/without the WAL.

    Checkpoint, acknowledge ``tail`` more writes, SIGKILL every worker,
    then count how many acknowledged tail writes the recovered pool
    still serves.  Also times the batched populate so the group-commit
    overhead of the log is visible next to its durability win.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = _build(
            MODE_PROCESSES, partitions, pairs,
            wal_dir=os.path.join(tmp, "wal") if wal else None,
        )
        try:
            counters = MonotonicCounterService()
            snapshotter = PartitionSnapshotter(counters)
            start = time.perf_counter()
            _populate(store, pairs)
            populate_wall = time.perf_counter() - start
            snapshotter.snapshot_bytes(store)

            tail_items = {
                f"tail-{i:08d}".encode(): f"tv-{i:08d}".encode()
                for i in range(tail)
            }
            for key, value in tail_items.items():
                store.set(key, value)  # acknowledged, post-checkpoint

            for handle in store._pool.workers:
                os.kill(handle.process.pid, signal.SIGKILL)

            lost = 0
            for key, value in tail_items.items():
                got = None
                for _ in range(2):  # first probe may eat the WorkerError
                    try:
                        got = store.get(key)
                        break
                    except Exception:
                        continue
                if got != value:
                    lost += 1
            stats = store.stats()
            return {
                "partitions": partitions,
                "pairs": pairs,
                "wal": wal,
                "acked_tail_ops": tail,
                "acked_ops_lost": lost,
                "worker_ops_lost": stats.worker_ops_lost,
                "wal_replayed": stats.wal_replayed,
                "populate_kops_per_s": round(
                    pairs / populate_wall / 1000.0, 1
                ),
            }
        finally:
            store.close()


def _replay_point(pairs: int) -> dict:
    """Throughput of verified log replay into a fresh store."""
    from repro.core import ShieldStore, WriteAheadLog, apply_request

    config = shield_opt(num_buckets=max(64, pairs // 2), num_mac_hashes=16)
    with tempfile.TemporaryDirectory() as tmp:
        store = ShieldStore(config, master_secret=SECRET)
        store.wal = WriteAheadLog.recover(
            tmp, 0, SECRET, config.suite_name, 0, stats=store.stats
        )
        _populate(store, pairs)
        store.wal.close()

        replica = ShieldStore(config, master_secret=SECRET)
        start = time.perf_counter()
        wal = WriteAheadLog.recover(
            tmp, 0, SECRET, config.suite_name, 0,
            apply=lambda req: apply_request(replica, req),
            stats=replica.stats,
        )
        replay_wall = time.perf_counter() - start
        wal.close()
        assert len(replica) == pairs
        return {
            "pairs": pairs,
            "frames_replayed": wal.replayed,
            "replay_ms": round(replay_wall * 1000.0, 2),
            "replay_kops_per_s": round(pairs / replay_wall / 1000.0, 1),
        }


def run(pair_sizes, partitions: int) -> dict:
    cpus = usable_cpus()
    procs_ok = process_mode_supported()
    snapshots = []
    modes = [MODE_SEQUENTIAL] + ([MODE_PROCESSES] if procs_ok else [])
    for mode in modes:
        for pairs in pair_sizes:
            point = _snapshot_point(mode, partitions, pairs)
            snapshots.append(point)
            print(
                f"{mode:12s} {pairs:7d} pairs  "
                f"snapshot {point['snapshot_ms']:8.1f} ms  "
                f"restore {point['restore_ms']:8.1f} ms  "
                f"blob {point['blob_bytes'] / 1024.0:8.1f} KiB"
            )
    recoveries = []
    if procs_ok:
        for pairs in pair_sizes:
            point = _recovery_point(partitions, pairs)
            recoveries.append(point)
            print(
                f"{'recovery':12s} {pairs:7d} pairs  "
                f"SIGKILL->recovered {point['recovery_ms']:8.1f} ms"
            )
    rpo = []
    if procs_ok:
        tail = max(32, min(pair_sizes) // 8)
        for wal in (False, True):
            point = _rpo_point(partitions, min(pair_sizes), tail, wal)
            rpo.append(point)
            print(
                f"{'rpo':12s} wal={str(wal):5s}  "
                f"acked lost {point['acked_ops_lost']:4d}/{tail}  "
                f"populate {point['populate_kops_per_s']:8.1f} kops/s"
            )
    replays = []
    for pairs in pair_sizes:
        point = _replay_point(pairs)
        replays.append(point)
        print(
            f"{'replay':12s} {pairs:7d} pairs  "
            f"{point['replay_ms']:8.1f} ms  "
            f"{point['replay_kops_per_s']:8.1f} kops/s"
        )
    notes = []
    if not procs_ok:
        notes.append(
            "process mode unsupported on this platform; recovery latency "
            "and recovery-point objective not measured"
        )
    return {
        "benchmark": "snapshot_recovery",
        "config": {"pair_sizes": list(pair_sizes), "partitions": partitions},
        "cpus": cpus,
        "snapshots": snapshots,
        "recoveries": recoveries,
        "rpo": rpo,
        "replays": replays,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, nargs="+",
                        default=[1000, 4000, 16000])
    parser.add_argument("--partitions", type=int, default=2)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (small stores only)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs = [500, 2000]

    report = run(args.pairs, args.partitions)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_snapshot_recovery.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    for note in report["notes"]:
        print(f"note: {note}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
