"""Multi-partition snapshots and worker crash recovery (§4.4 extended).

One :class:`~repro.core.persistence.PartitionSnapshotter` blob carries a
section per partition under a shared monotonic counter, with the
partition count and routing geometry sealed into the header, and is
*opened* into a new store.  These tests cover the roundtrips across
execution engines, the rejection paths (geometry mismatch, rollback,
truncated bytes — ``test_durable_sweep.py`` enumerates every byte), the
SIGKILL-a-worker recovery flow of the multiprocess pool, the checkpoint
daemon, and the ``repro snapshot`` / ``repro restore`` CLI.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    MODE_PROCESSES,
    MODE_SEQUENTIAL,
    PartitionSnapshotter,
    PartitionedShieldStore,
    SnapshotDaemon,
    process_mode_supported,
    shield_opt,
)
from repro.errors import RollbackError, SnapshotError, WorkerError
from repro.sim import Machine, MonotonicCounterService

SECRET = bytes(range(32))
PARTITIONS = 2

needs_processes = pytest.mark.skipif(
    not process_mode_supported(),
    reason="platform cannot run the multiprocess engine",
)


def _config(partitions=PARTITIONS, **overrides):
    return shield_opt(
        num_buckets=overrides.pop("num_buckets", 64 * partitions),
        num_mac_hashes=overrides.pop("num_mac_hashes", 16 * partitions),
        **overrides,
    )


def _shape(mode, partitions=PARTITIONS, config=None):
    """``(config, store arguments)`` of one engine — what a store is
    built with, fresh or from a blob."""
    config = config or _config(partitions)
    if mode == MODE_PROCESSES:
        return config, dict(
            master_secret=SECRET, num_partitions=partitions, mode=MODE_PROCESSES
        )
    return config, dict(
        machine=Machine(num_threads=partitions), master_secret=SECRET, mode=mode
    )


def _build(mode, partitions=PARTITIONS, config=None):
    config, args = _shape(mode, partitions, config)
    return PartitionedShieldStore(config, **args)


def _open(blob, mode, counters=None, **shape):
    config, args = _shape(mode, **shape)
    return _snapshotter(counters).open(blob, config, **args)


def _populate(store, count=100, prefix="key"):
    keys = [f"{prefix}-{i:04d}".encode() for i in range(count)]
    store.multi_set([(key, b"value-" + key) for key in keys])
    return keys


def _snapshotter(counters=None):
    return PartitionSnapshotter(counters or MonotonicCounterService())


class TestRoundtrip:
    def test_roundtrip_in_process(self):
        store = _build(MODE_SEQUENTIAL)
        keys = _populate(store)
        store.delete(keys[3])
        counters = MonotonicCounterService()
        blob = _snapshotter(counters).snapshot_bytes(store)
        target = _open(blob, MODE_SEQUENTIAL, counters)
        assert sorted(target.iter_items()) == sorted(store.iter_items())
        assert len(target) == len(store)
        assert target.audit() == len(target)
        # The opened store keeps serving — reads, writes, routing.
        target.set(b"after-restore", b"works")
        assert target.get(b"after-restore") == b"works"
        assert target.get(keys[0]) == b"value-" + keys[0]

    @needs_processes
    def test_roundtrip_processes(self):
        counters = MonotonicCounterService()
        with _build(MODE_PROCESSES) as store:
            keys = _populate(store)
            blob = _snapshotter(counters).snapshot_bytes(store)
            expected = sorted(store.iter_items())
        with _open(blob, MODE_PROCESSES, counters) as target:
            assert sorted(target.iter_items()) == expected
            assert target.audit() == len(target) == len(keys)
            target.set(b"after-restore", b"works")
            assert target.get(b"after-restore") == b"works"

    @needs_processes
    def test_cross_mode_restore(self):
        """A snapshot taken by worker processes opens into in-process
        partitions and vice versa — same platform, same format."""
        counters = MonotonicCounterService()
        with _build(MODE_PROCESSES) as procs:
            _populate(procs, 60)
            blob = _snapshotter(counters).snapshot_bytes(procs)
            expected = sorted(procs.iter_items())
        inproc = _open(blob, MODE_SEQUENTIAL, counters)
        assert sorted(inproc.iter_items()) == expected
        blob2 = _snapshotter(counters).snapshot_bytes(inproc)
        with _open(blob2, MODE_PROCESSES, counters) as target:
            assert sorted(target.iter_items()) == expected
            assert target.audit() == len(target)


class TestRejections:
    def _blob(self, counters=None):
        store = _build(MODE_SEQUENTIAL)
        _populate(store, 30)
        return _snapshotter(counters).snapshot_bytes(store)

    def test_partition_count_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="matching geometry"):
            _open(self._blob(), MODE_SEQUENTIAL, partitions=3)

    def test_table_geometry_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="does not match the store"):
            _open(
                self._blob(), MODE_SEQUENTIAL,
                config=_config(num_buckets=256, num_mac_hashes=32),
            )

    def test_rollback_rejected(self):
        counters = MonotonicCounterService()
        store = _build(MODE_SEQUENTIAL)
        _populate(store, 20)
        snapshotter = _snapshotter(counters)
        old_blob = snapshotter.snapshot_bytes(store)
        store.set(b"newer", b"data")
        snapshotter.snapshot_bytes(store)  # bumps the shared counter
        with pytest.raises(RollbackError):
            _open(old_blob, MODE_SEQUENTIAL, counters)

    def test_truncations_rejected(self):
        blob = self._blob()
        for cut in (0, 7, 8, 15, 16, 19, 20, 27, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SnapshotError):
                _open(blob[:cut], MODE_SEQUENTIAL)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(SnapshotError, match="trailing"):
            _open(self._blob() + b"\x00", MODE_SEQUENTIAL)

    def test_wrong_magic_rejected(self):
        with pytest.raises(SnapshotError):
            _open(b"NOTPSNAP" + bytes(32), MODE_SEQUENTIAL)

    @needs_processes
    def test_refused_section_leaves_no_worker_behind(self):
        """Partition 1's last record is damaged: its worker says so in
        the start-up handshake, the pool raises that error (not "worker
        died") and takes partition 0's healthy worker down with it."""
        def children():
            return {
                child
                for task in os.listdir("/proc/self/task")
                for child in Path(f"/proc/self/task/{task}/children").read_text().split()
            }

        blob = self._blob()
        before = children()
        with pytest.raises(SnapshotError, match="partition 1: .*failed verification"):
            _open(blob[:-5] + bytes(5), MODE_PROCESSES)
        assert children() <= before  # not even a zombie


@needs_processes
class TestCrashRecovery:
    def test_sigkill_worker_restores_from_snapshot(self):
        """The tentpole flow: SIGKILL one partition worker under a live
        workload; the pool respawns it, restores the latest snapshot,
        keeps serving, and accounts for the lost window."""
        with _build(MODE_PROCESSES) as store:
            snapshotter = _snapshotter()
            keys = _populate(store, 120)
            snapshotter.snapshot_bytes(store)
            # Mutations after the checkpoint are the at-risk window.
            post = [f"post-{i:04d}".encode() for i in range(40)]
            store.multi_set([(key, b"late-" + key) for key in post])

            victim = store.partition_index_of(keys[0])
            os.kill(store._pool.workers[victim].process.pid, signal.SIGKILL)
            with pytest.raises(WorkerError, match="restored from snapshot"):
                store.multi_get(keys)

            assert store.partition_state == "recovered"
            # Every snapshotted key is intact and integrity verifies.
            values = store.multi_get(keys)
            for key in keys:
                assert values[key] == b"value-" + key
            assert store.audit() == len(store)
            stats = store.stats()
            assert stats.worker_recoveries == 1
            assert stats.worker_ops_lost >= 1
            # The pool still serves writes after recovery...
            store.set(b"after-crash", b"ok")
            assert store.get(b"after-crash") == b"ok"
            # ...and a fresh checkpoint returns the engine to "ok".
            snapshotter.snapshot_bytes(store)
            assert store.partition_state == "ok"

    def test_worker_of_an_opened_pool_respawns_on_its_section(self):
        """The sections a pool is born from are its first recovery
        checkpoint: a worker killed before any new snapshot comes back
        with what the blob held, through the spawn path of start-up."""
        counters = MonotonicCounterService()
        with _build(MODE_PROCESSES) as source:
            keys = _populate(source, 50)
            blob = _snapshotter(counters).snapshot_bytes(source)
            expected = sorted(source.iter_items())
        with _open(blob, MODE_PROCESSES, counters) as store:
            os.kill(store._pool.workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(WorkerError, match="restored from snapshot counter 1"):
                store.multi_get(keys)
            assert store.partition_state == "recovered"
            assert sorted(store.iter_items()) == expected
            assert store.audit() == len(store)


class TestSnapshotDaemon:
    def test_periodic_checkpoints_and_latest(self, tmp_path):
        store = _build(MODE_SEQUENTIAL)
        counters = MonotonicCounterService()
        snapshotter = _snapshotter(counters)
        _populate(store, 30)
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store), tmp_path, 3600.0
        )
        first = daemon.run_once()
        store.set(b"between-checkpoints", b"v")
        second = daemon.run_once()
        assert daemon.snapshots_written == 2
        assert SnapshotDaemon.latest_snapshot(tmp_path) == second
        assert first != second
        with open(second, "rb") as fh:
            blob = fh.read()
        target = _open(blob, MODE_SEQUENTIAL, counters)
        assert target.get(b"between-checkpoints") == b"v"
        assert len(target) == len(store)

    def test_empty_directory_has_no_latest(self, tmp_path):
        assert SnapshotDaemon.latest_snapshot(tmp_path) is None


class TestSnapshotCLI:
    def _run(self, *argv):
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=repo,
            env=env,
            timeout=300,
        )

    def test_snapshot_restore_roundtrip(self, tmp_path):
        out = tmp_path / "cli.snap"
        taken = self._run(
            "snapshot", "--out", str(out), "--pairs", "150", "--partitions", "2"
        )
        assert taken.returncode == 0, taken.stderr
        assert out.exists()
        restored = self._run(
            "restore", "--snapshot", str(out), "--partitions", "2"
        )
        assert restored.returncode == 0, restored.stderr
        assert "restored 150 keys" in restored.stdout

    def test_restore_into_wrong_partition_count_fails(self, tmp_path):
        out = tmp_path / "cli.snap"
        taken = self._run(
            "snapshot", "--out", str(out), "--pairs", "60", "--partitions", "2"
        )
        assert taken.returncode == 0, taken.stderr
        mismatched = self._run(
            "restore", "--snapshot", str(out), "--partitions", "1"
        )
        assert mismatched.returncode == 1
        assert "restore rejected" in mismatched.stdout
