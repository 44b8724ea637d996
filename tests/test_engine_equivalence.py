"""One partition engine seam, two engines: byte-identical behaviour.

The same seeded op sequence — batched and single-key verbs, a snapshot,
a log tail, a crash, recovery, more ops — must leave the in-process
engine and the process engine (on both data planes) with identical
contents, length, audit count and semantic counters at every
checkpoint.  The crash is the harshest each engine admits: SIGKILL of
every worker (the pool respawns, restores the cached section and
replays the log tail) vs. a brand-new store over the same log directory
restored from the snapshot blob.

Also pins the determinism rule the deleted ``threads`` engine broke:
two identical ``sequential`` runs on an injected multi-thread machine
charge bit-identical simulated time and counters.
"""

import dataclasses
import os
import random
import signal

import pytest

from repro.core import (
    MODE_PROCESSES,
    MODE_SEQUENTIAL,
    PartitionedShieldStore,
    PartitionSnapshotter,
    StoreStats,
    process_mode_supported,
    shield_opt,
)
from repro.errors import KeyNotFoundError, WorkerError
from repro.sim import Machine, MonotonicCounterService

SECRET = bytes(range(32))
PARTITIONS = 2
# Engine health and host-time fields legitimately differ per engine.
_ENGINE_FIELDS = StoreStats.WALL_CLOCK_FIELDS | {
    "worker_recoveries", "worker_ops_lost",
}


def _config():
    return shield_opt(num_buckets=128, num_mac_hashes=32)


def _build(mode, data_plane, wal_dir, open_with=None):
    """A fresh store of ``mode``, or (``open_with=(snapshotter, blob)``)
    the same shape opened from a checkpoint."""
    shape = dict(master_secret=SECRET, wal_dir=wal_dir, wal_sync_ms=0)
    if mode == MODE_PROCESSES:
        shape.update(
            num_partitions=PARTITIONS, mode=MODE_PROCESSES, data_plane=data_plane
        )
    else:
        shape.update(machine=Machine(num_threads=PARTITIONS), mode=MODE_SEQUENTIAL)
    if open_with is not None:
        snapshotter, blob = open_with
        return snapshotter.open(blob, _config(), **shape)
    return PartitionedShieldStore(_config(), **shape)


def _drive(store, seed, rounds=4):
    """Seeded mix of every store verb, failures included."""
    rng = random.Random(seed)
    keys = [f"key-{i:03d}".encode() for i in range(80)]
    for _ in range(rounds):
        batch = rng.sample(keys, 24)
        store.multi_set([(k, b"v%d-" % rng.randrange(1000) + k) for k in batch])
        store.multi_get(rng.sample(keys, 16))
        store.multi_delete(rng.sample(keys, 6) + [b"never-there"])
        key = rng.choice(keys)
        store.set(key, b"single")
        store.append(key, b"+tail")
        store.increment(b"counter-%d" % rng.randrange(3), rng.randrange(1, 9))
        store.compare_and_swap(key, b"single+tail", b"swapped")
        store.compare_and_swap(key, b"stale", b"ignored")
        for victim in (rng.choice(keys), b"never-there"):
            try:
                store.delete(victim)
            except KeyNotFoundError:
                pass


def _observe(store):
    stats = store.stats().snapshot_dict()
    for field in _ENGINE_FIELDS:
        stats.pop(field)
    return {
        "items": sorted(store.iter_items()),
        "len": len(store),
        "audit": store.audit(),
        "stats": stats,
    }


def _scenario(mode, data_plane, wal_dir):
    """Run the whole lifecycle; return the observation at each stage."""
    stages = {}
    store = _build(mode, data_plane, wal_dir)
    try:
        _drive(store, seed=1)
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        blob = snapshotter.snapshot_bytes(store)
        _drive(store, seed=2, rounds=2)  # lives only in the log tail
        stages["before-crash"] = _observe(store)
        if mode == MODE_PROCESSES:
            for handle in store._pool.workers:
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=10)
            with pytest.raises(WorkerError, match="write-ahead log"):
                store.audit()  # the interrupted call; the pool recovers
            assert store.partition_state == "recovered"
            assert store.stats().worker_ops_lost == 0
        else:
            store.close()
            store = _build(mode, data_plane, wal_dir, open_with=(snapshotter, blob))
        stages["recovered"] = _observe(store)
        _drive(store, seed=3, rounds=2)
        stages["after-more-ops"] = _observe(store)
    finally:
        store.close()
    return stages


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _scenario(
        MODE_SEQUENTIAL, None, str(tmp_path_factory.mktemp("wal-reference"))
    )


@pytest.mark.parametrize(
    "mode,data_plane",
    [
        (MODE_SEQUENTIAL, None),
        pytest.param(
            MODE_PROCESSES, "pipe",
            marks=pytest.mark.skipif(
                not process_mode_supported(), reason="no worker processes"
            ),
        ),
        pytest.param(
            MODE_PROCESSES, "shm",
            marks=pytest.mark.skipif(
                not process_mode_supported(), reason="no worker processes"
            ),
        ),
    ],
)
def test_engines_agree_through_snapshot_crash_and_replay(
    mode, data_plane, reference, tmp_path
):
    observed = _scenario(mode, data_plane, str(tmp_path))
    assert observed.keys() == reference.keys()
    for stage, expected in reference.items():
        for what, value in expected.items():
            assert observed[stage][what] == value, (stage, what)
    # The recovery really replayed a tail, and lost nothing doing it.
    assert observed["recovered"]["stats"]["wal_replayed"] > 0
    assert observed["recovered"]["items"] == observed["before-crash"]["items"]


def test_sequential_runs_are_bit_identical_on_a_shared_machine():
    """Same seeded 30-batch run, twice, on an injected 4-thread machine:
    simulated time and every machine counter match to the bit."""

    def run():
        machine = Machine(num_threads=4)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            machine=machine, master_secret=SECRET,
        )
        assert store.mode == MODE_SEQUENTIAL
        rng = random.Random(7)
        keys = [f"key-{i:04d}".encode() for i in range(400)]
        for _ in range(30):
            batch = rng.sample(keys, 40)
            store.multi_set([(k, b"value-" + k) for k in batch])
            store.multi_get(rng.sample(keys, 40))
        return (
            machine.elapsed_us(),
            [clock.cycles for clock in machine.clock.threads],
            dataclasses.asdict(machine.counters),
            store.stats().snapshot_dict(),
        )

    first, second = run(), run()
    for field in StoreStats.WALL_CLOCK_FIELDS:
        first[3].pop(field)
        second[3].pop(field)
    assert first == second
