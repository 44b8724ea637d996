#!/usr/bin/env python3
"""Scenario: crash recovery with checkpoints, the sealed WAL, and rollback defense.

An order-processing store survives a host crash through the path
``repro serve --wal-dir --snapshot-dir`` runs: every mutation is sealed
into the per-partition write-ahead log before it is applied, a
checkpoint seals the partition and rotates the log, and a restarting
node is *born* from the checkpoint's section plus an authenticated
replay of the log tail.  A malicious host then flips one bit of the
log — and later serves a *stale* checkpoint — and is caught both times.
"""

import os
import shutil
import tempfile

from repro.core import (
    PartitionedShieldStore,
    PartitionSnapshotter,
    WriteAheadLog,
    shield_opt,
)
from repro.errors import RollbackError, SnapshotError
from repro.sim import MonotonicCounterService

CONFIG = shield_opt(num_buckets=256, num_mac_hashes=128)


def shape(wal_dir):
    """What every incarnation of the node is built with."""
    return dict(mode="sequential", num_partitions=1, wal_dir=wal_dir)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="shieldstore-failover-") as tmp:
        run(os.path.join(tmp, "wal"), os.path.join(tmp, "tampered-wal"))


def run(wal_dir: str, tampered_dir: str) -> None:
    os.makedirs(wal_dir)
    counters = MonotonicCounterService()
    store = PartitionedShieldStore(CONFIG, **shape(wal_dir))
    snapshotter = PartitionSnapshotter(counters)

    print("== phase 1: live traffic, then a checkpoint ==")
    for i in range(50):
        store.set(f"order:{i:04d}".encode(), f"status=paid;amount={i * 10}".encode())
    snapshot_v1 = snapshotter.snapshot_bytes(store)  # seals + rotates the log
    # What the SnapshotDaemon does once the file is durable: segments
    # the checkpoint now contains may go.
    counter = counters.read(snapshotter.counter_name)
    retired = WriteAheadLog.retire(wal_dir, counter)
    print(f"checkpoint v1: {len(snapshot_v1)} bytes, counter={counter}, "
          f"{retired} log segment(s) retired")

    print("\n== phase 2: post-checkpoint writes live only in the sealed log ==")
    store.set(b"order:0050", b"status=paid;amount=500")
    store.set(b"order:0007", b"status=refunded;amount=70")
    store.delete(b"order:0013")
    store.increment(b"metrics:orders", 3)
    stats = store.stats()
    print(f"WAL: {stats.wal_appends} frames sealed, {stats.wal_fsyncs} fsync(s), "
          f"files {sorted(os.listdir(wal_dir))}")

    print("\n== phase 3: crash! restart on the same disk ==")
    shutil.copytree(wal_dir, tampered_dir)  # the host keeps a copy to play with
    del store  # no close(), no final checkpoint: the process just died
    # One node start-up: a fresh enclave built from what the disk holds.
    recovered = snapshotter.open(snapshot_v1, CONFIG, **shape(wal_dir))
    print(f"restored {len(recovered)} keys "
          f"({recovered.stats().wal_replayed} log frames replayed)")
    print("order:0007 ->", recovered.get(b"order:0007"))
    print("order:0013 deleted?", not recovered.contains(b"order:0013"))
    print("metrics:orders ->", recovered.get(b"metrics:orders"))

    print("\n== phase 4: the host flips one bit of a logged frame ==")
    segment = os.path.join(tampered_dir, sorted(os.listdir(tampered_dir))[-1])
    with open(segment, "r+b") as fh:
        fh.seek(30)  # inside the first frame's ciphertext
        byte = fh.read(1)[0]
        fh.seek(30)
        fh.write(bytes([byte ^ 0x01]))
    try:
        snapshotter.open(snapshot_v1, CONFIG, **shape(tampered_dir))
        print("-> TAMPERED LOG REPLAYED (bug!)")
    except SnapshotError as exc:
        print(f"-> tampered log refused: {exc}")

    print("\n== phase 5: the host serves a stale checkpoint ==")
    snapshotter.snapshot_bytes(recovered)  # counter -> 2
    try:
        snapshotter.open(snapshot_v1, CONFIG, **shape(None))  # ...and hides the log
        print("-> STALE CHECKPOINT ACCEPTED (bug!)")
    except RollbackError as exc:
        print(f"-> rollback detected: {exc}")

    print(f"\nsimulated recovery time: {recovered.elapsed_us() / 1000:.2f} ms")
    recovered.close()


if __name__ == "__main__":
    main()
