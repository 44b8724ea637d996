"""Sealed write-ahead log: crash matrix + checkpoint durability fixes.

The matrix the issue demands: SIGKILL between append and fsync, a torn
final frame, a tampered middle frame, a stale-incarnation segment, and
the checkpoint+rotate race — each recovering byte-identical state for
every acknowledged write (``worker_ops_lost == 0``), with torn tails
and tampering reported distinctly.  Plus the SnapshotDaemon durability
fixes: stale ``.tmp`` sweep, directory fsync, failure counter, and
log retirement only after a durable checkpoint.
"""

import os
import time

import pytest

from repro.analysis import sanitizer
from repro.core import (
    PartitionSnapshotter,
    PartitionedShieldStore,
    ShieldStore,
    SnapshotDaemon,
    WriteAheadLog,
    apply_request,
    fsync_directory,
    open_store,
    shield_opt,
    snapshot_counter,
)
from repro.core.procpool import process_mode_supported
from repro.core import wal as wal_module
from repro.core.wal import segment_path
from repro.errors import KeyNotFoundError, RollbackError, SnapshotError, StoreError
from repro.net.message import Request
from repro.net import TCPShieldClient, TCPShieldServer
from repro.sim import (
    AttestationService,
    FaultPlan,
    FaultRule,
    MonotonicCounterService,
    faults,
)
from repro.workloads.datasets import SMALL
from repro.workloads.ycsb import OP_GET, OP_SET, RD95_Z, OperationStream

needs_processes = pytest.mark.skipif(
    not process_mode_supported(), reason="no multiprocess engine here"
)

MASTER = bytes(range(32))


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def small_config():
    return shield_opt(num_buckets=128, num_mac_hashes=32)


def build_store():
    return ShieldStore(small_config(), master_secret=MASTER)


def recover_into(directory, store, counter=0, sync_ms=0.0):
    """Replay partition 0's chain into ``store`` and attach the tail."""
    wal = WriteAheadLog.recover(
        str(directory),
        0,
        MASTER,
        store.config.suite_name,
        counter,
        apply=lambda req: apply_request(store, req),
        stats=store.stats,
        sync_ms=sync_ms,
    )
    store.wal = wal
    return wal


def run_mixed_workload(store):
    """Every mutating op kind once-or-more; returns nothing — the store
    itself is the expected state."""
    store.set(b"alpha", b"1")
    store.set(b"beta", b"2")
    store.append(b"alpha", b"-tail")
    store.increment(b"count", 5)
    store.increment(b"count", -2)
    store.compare_and_swap(b"beta", b"2", b"two")
    store.compare_and_swap(b"beta", b"stale", b"never")  # fails both runs
    store.multi_set([(b"m1", b"x"), (b"m2", b"y")])
    store.multi_delete([b"m2"])
    store.delete(b"alpha")


def contents(store):
    return dict(store.iter_items())


SERVED = dict(master_secret=MASTER, mode="sequential", num_partitions=2)


def served_store(wal_dir):
    return PartitionedShieldStore(
        small_config(), wal_dir=wal_dir and str(wal_dir), wal_sync_ms=0.0, **SERVED
    )


def serve_daemon(store, snap_dir, wal_dir, retire=True):
    """``repro serve``'s checkpoint wiring: a persisted platform counter
    beside the checkpoints, segments retired once a checkpoint is durable."""
    snapshotter = PartitionSnapshotter(
        MonotonicCounterService(str(snap_dir / "counters.json"))
    )
    return SnapshotDaemon(
        lambda: snapshotter.snapshot_bytes(store),
        snap_dir,
        3600.0,
        on_checkpoint=(lambda c: WriteAheadLog.retire(str(wal_dir), c)) if retire else None,
    )


def restart(snap_dir, wal_dir):
    """What the next process does on the same two directories."""
    snapshotter = PartitionSnapshotter(
        MonotonicCounterService(str(snap_dir / "counters.json"))
    )
    return open_store(
        snapshotter, snap_dir, small_config(),
        wal_dir=wal_dir and str(wal_dir), wal_sync_ms=0.0, **SERVED,
    )


# ---------------------------------------------------------------------------
# replay correctness
# ---------------------------------------------------------------------------
class TestReplayRoundtrip:
    def test_every_op_kind_replays_byte_identical(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        run_mixed_workload(store)
        expected = contents(store)
        store.wal.close()

        replica = build_store()
        wal = recover_into(tmp_path, replica)
        assert wal.replayed == replica.stats.wal_replayed > 0
        assert contents(replica) == expected

    def test_replay_does_not_relog(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"k", b"v")
        store.wal.close()
        size = os.path.getsize(segment_path(str(tmp_path), 0, 0))

        replica = build_store()
        recover_into(tmp_path, replica)
        replica.wal.close()
        # Replay attaches the log only after re-applying, so the
        # segment must not have grown.
        assert os.path.getsize(segment_path(str(tmp_path), 0, 0)) == size
        assert replica.stats.wal_appends == 0

    def test_fresh_directory_starts_empty(self, tmp_path):
        store = build_store()
        wal = recover_into(tmp_path, store)
        assert wal.replayed == 0
        # Lazy creation: no segment until the first append.
        assert not os.path.exists(segment_path(str(tmp_path), 0, 0))


# ---------------------------------------------------------------------------
# torn tail vs tamper: the distinction the issue demands
# ---------------------------------------------------------------------------
class TestTornTail:
    def test_torn_final_frame_truncated_and_replay_continues(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        for i in range(4):
            store.set(b"k%d" % i, b"v%d" % i)
        store.wal.close()
        seg = segment_path(str(tmp_path), 0, 0)
        size = os.path.getsize(seg)
        with open(seg, "r+b") as fh:
            fh.truncate(size - 3)  # shear the last frame mid-body

        replica = build_store()
        wal = recover_into(tmp_path, replica)
        # Only the torn (never-acknowledged) final op is gone.
        assert wal.replayed == 3
        assert replica.stats.wal_torn_truncated == 1
        assert contents(replica) == {b"k%d" % i: b"v%d" % i for i in range(3)}
        # The file was given back a clean frame boundary: appends after
        # recovery extend a valid chain.
        replica.set(b"k3", b"v3-after")
        replica.wal.close()
        final = build_store()
        recover_into(tmp_path, final)
        assert final.get(b"k3") == b"v3-after"
        assert final.stats.wal_torn_truncated == 0

    def test_torn_length_prefix_truncated(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"k", b"v")
        store.wal.close()
        seg = segment_path(str(tmp_path), 0, 0)
        with open(seg, "ab") as fh:
            fh.write(b"\x10\x00")  # 2 of the next frame's 4 length bytes
        replica = build_store()
        wal = recover_into(tmp_path, replica)
        assert wal.replayed == 1
        assert replica.stats.wal_torn_truncated == 1


class TestTamper:
    def test_tampered_middle_frame_raises(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        for i in range(5):
            store.set(b"k%d" % i, b"v%d" % i)
        store.wal.close()
        seg = segment_path(str(tmp_path), 0, 0)
        data = bytearray(open(seg, "rb").read())
        data[len(data) // 2] ^= 0xFF  # a *complete* frame, corrupted
        open(seg, "wb").write(bytes(data))

        with pytest.raises(SnapshotError, match="failed authentication"):
            recover_into(tmp_path, build_store())

    def test_stale_incarnation_segment_rejected(self, tmp_path):
        # Frames sealed under incarnation 3 presented as incarnation 4:
        # wrong per-incarnation key, so authentication fails.
        store = build_store()
        recover_into(tmp_path, store, counter=3)
        store.set(b"a", b"b")
        store.wal.close()
        os.rename(
            segment_path(str(tmp_path), 0, 3),
            segment_path(str(tmp_path), 0, 4),
        )
        with pytest.raises(SnapshotError, match="failed authentication"):
            recover_into(tmp_path, build_store(), counter=4)

    def test_frames_after_truncation_record_rejected(self, tmp_path):
        # Splice: replay a pre-rotation frame after the truncation
        # record, as a host replaying stale writes would.
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"a", b"b")
        store.wal.rotate(1)
        store.wal.close()
        seg = segment_path(str(tmp_path), 0, 0)
        data = open(seg, "rb").read()
        first_len = 4 + int.from_bytes(data[:4], "little")
        with open(seg, "ab") as fh:
            fh.write(data[:first_len])
        with pytest.raises(SnapshotError, match="spliced"):
            recover_into(tmp_path, build_store())

    def test_implausible_length_prefix_rejected(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"a", b"b")
        store.wal.close()
        seg = segment_path(str(tmp_path), 0, 0)
        data = bytearray(open(seg, "rb").read())
        data[0:4] = (3).to_bytes(4, "little")  # < minimum sealed body
        open(seg, "wb").write(bytes(data))
        with pytest.raises(SnapshotError, match="implausible length"):
            recover_into(tmp_path, build_store())


class TestWriterBound:
    """The log writes no frame its own replay would refuse."""

    def test_an_op_replay_would_refuse_is_refused_before_it_is_logged(self, tmp_path):
        # A bare set this close to the 64 MiB session-frame limit seals
        # to a body just over the replay bound.
        wal = recover_into(tmp_path, build_store())
        wal.append(Request("set", b"a", b"1"))
        with pytest.raises(StoreError, match="too large"):
            wal.append(Request("set", b"k", bytes(2**26 - 34)))
        wal.append(Request("set", b"b", b"2"))
        wal.close()
        replica = build_store()
        recover_into(tmp_path, replica)
        assert contents(replica) == {b"a": b"1", b"b": b"2"}

    def test_writer_and_replay_share_the_bound(self, tmp_path, monkeypatch):
        # 33 bytes of frame header + MAC, 10 of request header and key.
        monkeypatch.setattr(wal_module, "WAL_BODY", 256)
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"k", b"x" * 213)  # a body of exactly the bound
        with pytest.raises(StoreError, match="too large"):
            store.set(b"k", b"y" * 214)
        with pytest.raises(StoreError, match="too large"):
            store.set(b"n", b"y" * 214)
        assert store.get(b"k") == b"x" * 213  # neither applied
        with pytest.raises(KeyNotFoundError):
            store.get(b"n")
        store.wal.close()
        replica = build_store()
        recover_into(tmp_path, replica)
        assert contents(replica) == {b"k": b"x" * 213}


# ---------------------------------------------------------------------------
# group commit + rotation chain
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_zero_window_syncs_every_append(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store, sync_ms=0.0)
        for i in range(8):
            store.set(b"k%d" % i, b"v")
        assert store.stats.wal_fsyncs == store.stats.wal_appends == 8

    def test_wide_window_batches_fsyncs(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store, sync_ms=60_000.0)
        for i in range(32):
            store.set(b"k%d" % i, b"v")
        assert store.stats.wal_appends == 32
        assert store.stats.wal_fsyncs < 32  # batched behind the window
        store.wal.close()  # close() drains the window with a final sync
        assert store.stats.wal_fsyncs >= 1


class TestRotationChain:
    def test_truncation_record_chains_segments(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"pre", b"1")
        store.wal.rotate(5)
        store.set(b"mid", b"2")
        store.wal.rotate(9)
        store.set(b"post", b"3")
        expected = contents(store)
        store.wal.close()

        # Full-chain replay from 0 crosses both truncation records.
        replica = build_store()
        wal = recover_into(tmp_path, replica)
        assert wal.replayed == 3
        assert wal.counter == 9
        assert contents(replica) == expected

        # Tail replay from a snapshot counter sees only the tail.
        tail = build_store()
        wal = recover_into(tmp_path, tail, counter=9)
        assert wal.replayed == 1
        assert contents(tail) == {b"post": b"3"}

    def test_rotation_must_advance(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store, counter=4)
        with pytest.raises(SnapshotError, match="must advance"):
            store.wal.rotate(4)

    def test_retire_removes_only_older_segments(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"a", b"1")
        store.wal.rotate(3)
        store.set(b"b", b"2")
        store.wal.rotate(7)
        store.wal.close()
        assert WriteAheadLog.retire(str(tmp_path), 7) == 2
        assert not os.path.exists(segment_path(str(tmp_path), 0, 0))
        assert not os.path.exists(segment_path(str(tmp_path), 0, 3))
        assert os.path.exists(segment_path(str(tmp_path), 0, 7))
        # Replay from the retirement point still works.
        replica = build_store()
        recover_into(tmp_path, replica, counter=7)
        assert replica.wal.counter == 7


    def test_orphaned_chain_is_refused(self, tmp_path):
        # A retired link with a later segment present: whoever opens
        # there was handed an older checkpoint than the log belongs to.
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"a", b"1")
        store.wal.rotate(3)
        store.wal.close()
        WriteAheadLog.retire(str(tmp_path), 3)
        with pytest.raises(SnapshotError, match="orphaned"):
            recover_into(tmp_path, build_store())
        with pytest.raises(SnapshotError, match="orphaned"):
            recover_into(tmp_path, build_store(), counter=2)
        assert recover_into(tmp_path, build_store(), counter=3).counter == 3
        assert recover_into(tmp_path, build_store(), counter=4).counter == 4


# ---------------------------------------------------------------------------
# start-up freshness: platform counter vs checkpoint + log chain
# ---------------------------------------------------------------------------
class TestStartUpFreshness:
    """One rule: start-up is fresh iff the counter its recovery reaches
    in every partition is not behind the (persisted) platform counter."""

    WRITES = {b"key-%02d" % i: b"value-%02d" % i for i in range(20)}

    def _crash_in_checkpoint(self, daemon):
        """The counter is bumped and the logs rotated; the process dies
        before the blob is renamed into place."""
        faults.install(FaultPlan(
            [FaultRule(point="snapshot.write", kind="crash", hits=[0])], seed=1
        ))
        with pytest.raises(OSError, match="injected crash"):
            daemon.run_once()
        faults.uninstall()

    @pytest.mark.parametrize("durable_before", [0, 1], ids=["first", "later"])
    def test_crash_between_counter_bump_and_rename(self, tmp_path, durable_before):
        snaps, wal = tmp_path / "snaps", tmp_path / "wal"
        store = served_store(wal)
        daemon = serve_daemon(store, snaps, wal)
        for n, (key, value) in enumerate(sorted(self.WRITES.items())):
            if n == 10 and durable_before:
                daemon.run_once()
            store.set(key, value)
        self._crash_in_checkpoint(daemon)
        store.set(b"after-the-rotation", b"kept")  # acknowledged before it died

        restarted, path, replayed = restart(snaps, wal)
        assert restarted.reached_counter == durable_before + 1
        assert (path is None) == (not durable_before)
        assert replayed == (11 if durable_before else 21)
        assert contents(restarted) == {**self.WRITES, b"after-the-rotation": b"kept"}
        # ...and the node checkpoints on from there.
        serve_daemon(restarted, snaps, wal).run_once()
        restarted.close()
        assert restart(snaps, wal)[0].reached_counter == durable_before + 2

    @pytest.mark.parametrize("log_kept", [True, False], ids=["log-kept", "log-gone"])
    def test_rollback_to_empty_is_refused(self, tmp_path, log_kept):
        snaps, wal = tmp_path / "snaps", tmp_path / "wal"
        store = served_store(wal)
        store.multi_set(self.WRITES)
        os.remove(serve_daemon(store, snaps, wal).run_once())
        store.close()
        if not log_kept:
            for name in os.listdir(wal):
                os.remove(wal / name)
        # No checkpoint, platform counter 1: an empty store is a rollback.
        with pytest.raises(SnapshotError if log_kept else RollbackError) as refusal:
            restart(snaps, wal)
        assert "no checkpoint: " in str(refusal.value)
        assert sorted(os.listdir(snaps)) == ["counters.json"]

    @pytest.mark.parametrize("rolled_back", [(0, 1), (1,)], ids=["both", "one"])
    def test_chain_that_stops_short_is_refused(self, tmp_path, rolled_back):
        """The host rolls partitions back to just before checkpoint 2:
        checkpoint 1 and their logs authenticate, but nothing leads to
        2 — in every partition, or (what a worker dying inside
        ``snapshot_all`` also leaves) in one of them."""
        snaps, wal = tmp_path / "snaps", tmp_path / "wal"
        store = served_store(wal)
        daemon = serve_daemon(store, snaps, wal, retire=False)
        daemon.run_once()
        store.multi_set(self.WRITES)
        before = {}
        for partition in rolled_back:
            with open(segment_path(str(wal), partition, 1), "rb") as fh:
                before[partition] = fh.read()
        os.remove(daemon.run_once())
        store.close()
        for partition, data in before.items():
            os.remove(segment_path(str(wal), partition, 2))
            with open(segment_path(str(wal), partition, 1), "wb") as fh:
                fh.write(data)
        with pytest.raises(
            RollbackError, match="counter 1 is older than platform counter 2"
        ):
            restart(snaps, wal)


# ---------------------------------------------------------------------------
# shieldfault injection points
# ---------------------------------------------------------------------------
class TestWalFaultPoints:
    def test_append_crash_leaves_recoverable_torn_tail(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"ok", b"1")
        faults.install(FaultPlan(
            [FaultRule(point="wal.append", kind="crash", hits=[0])], seed=1
        ))
        with pytest.raises(OSError, match="injected crash"):
            store.set(b"doomed", b"2")
        faults.uninstall()
        store.wal.close()

        replica = build_store()
        wal = recover_into(tmp_path, replica)
        assert wal.replayed == 1
        assert replica.stats.wal_torn_truncated == 1
        assert contents(replica) == {b"ok": b"1"}

    def test_append_drop_loses_exactly_that_frame(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        faults.install(FaultPlan(
            [FaultRule(point="wal.append", kind="drop", hits=[1])], seed=1
        ))
        store.set(b"kept", b"1")
        store.set(b"dropped", b"2")  # host swallowed the write
        store.set(b"kept2", b"3")
        faults.uninstall()
        store.wal.close()
        replica = build_store()
        recover_into(tmp_path, replica)
        assert contents(replica) == {b"kept": b"1", b"kept2": b"3"}

    def test_replay_tamper_detected(self, tmp_path):
        store = build_store()
        recover_into(tmp_path, store)
        store.set(b"a", b"b")
        store.wal.close()
        faults.install(FaultPlan(
            [FaultRule(point="wal.replay", kind="tamper", hits=[0])], seed=1
        ))
        with pytest.raises(SnapshotError):
            recover_into(tmp_path, build_store())


# ---------------------------------------------------------------------------
# crash matrix against real worker processes
# ---------------------------------------------------------------------------
@needs_processes
class TestCrashMatrix:
    _CONFIG = shield_opt(num_buckets=256, num_mac_hashes=64)

    def _shape(self, tmp_path, **kw):
        return dict(
            num_partitions=2,
            mode="processes",
            master_secret=MASTER,
            wal_dir=str(tmp_path / "wal"),
            **kw,
        )

    def _pool_store(self, tmp_path, **kw):
        return PartitionedShieldStore(self._CONFIG, **self._shape(tmp_path, **kw))

    def test_sigkill_between_append_and_fsync(self, tmp_path):
        # A huge commit window guarantees the kill lands before any
        # fsync: write() alone must be enough against process death.
        store = self._pool_store(tmp_path, wal_sync_ms=60_000.0)
        expected = {}
        for i in range(24):
            key, value = b"key-%03d" % i, b"val-%03d" % i
            store.set(key, value)
            expected[key] = value
        for handle in store._pool.workers:
            handle.process.kill()
            handle.process.wait()
        recovered = {}
        for key in expected:
            try:
                recovered[key] = store.get(key)
            except Exception:
                recovered[key] = store.get(key)  # retry after recovery
        assert recovered == expected
        assert store._pool.ops_lost == 0
        assert store._pool.state == "recovered"
        assert store.stats().worker_ops_lost == 0
        store.close()

    def test_checkpoint_rotate_race(self, tmp_path):
        # Kill right after a checkpoint rotated the logs: recovery must
        # replay the *new* segment on top of the restored section.
        store = self._pool_store(tmp_path)
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        store.set(b"pre", b"1")
        blob = snapshotter.snapshot_bytes(store)
        store.set(b"post", b"2")  # lives only in the rotated tail
        victim = store._pool.workers[0]
        victim.process.kill()
        victim.process.wait()
        values = {}
        for key in (b"pre", b"post"):
            try:
                values[key] = store.get(key)
            except Exception:
                values[key] = store.get(key)
        assert values == {b"pre": b"1", b"post": b"2"}
        assert store._pool.ops_lost == 0
        store.close()

        # Cold restart: born from the snapshot + verified tail replay.
        fresh = snapshotter.open(blob, self._CONFIG, **self._shape(tmp_path))
        assert fresh.get(b"pre") == b"1"
        assert fresh.get(b"post") == b"2"
        assert fresh.stats().wal_replayed >= 1
        assert snapshot_counter(blob) >= 1
        fresh.close()

    def test_wal_off_still_loses_mutations(self, tmp_path):
        # The log is strictly opt-in: without it the documented §4.4
        # loss bound still applies (mutations since the last snapshot).
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            num_partitions=2,
            mode="processes",
            master_secret=MASTER,
        )
        store.set(b"a", b"1")
        victim = store._pool.workers[store.partition_index_of(b"a")]
        victim.process.kill()
        victim.process.wait()
        with pytest.raises(Exception):
            for _ in range(2):
                store.get(b"a")
        assert store._pool.ops_lost >= 1
        store.close()


# ---------------------------------------------------------------------------
# SnapshotDaemon durability fixes
# ---------------------------------------------------------------------------
class TestSnapshotDaemonDurability:
    def _daemon(self, tmp_path, take=lambda: b"", **kw):
        return SnapshotDaemon(take, tmp_path, 3600.0, **kw)

    def test_stale_tmp_swept_at_start(self, tmp_path):
        stale = tmp_path / "snapshot-000000000007.bin.tmp"
        stale.write_bytes(b"half a checkpoint")
        daemon = self._daemon(tmp_path)
        assert not stale.exists()
        assert daemon.snapshots_pruned == 1

    def test_stale_tmp_swept_during_prune(self, tmp_path):
        daemon = self._daemon(tmp_path)
        assert daemon.snapshots_pruned == 0  # nothing to sweep at start
        stale = tmp_path / "snapshot-000000000009.bin.tmp"
        stale.write_bytes(b"crash debris")
        daemon._prune()
        assert not stale.exists()
        assert daemon.snapshots_pruned == 1

    def test_counter_file_survives_sweep(self, tmp_path):
        (tmp_path / "counters.json").write_text("{}")
        daemon = self._daemon(tmp_path)
        daemon._prune()
        assert (tmp_path / "counters.json").exists()
        assert daemon.snapshots_pruned == 0

    def test_snapshot_failures_counted(self, tmp_path):
        def explode():
            raise OSError("disk on fire")

        daemon = SnapshotDaemon(explode, tmp_path, 0.01)
        daemon.start()
        deadline = time.monotonic() + 10.0
        try:
            while daemon.snapshot_failures < 2:
                assert time.monotonic() < deadline, "failures never counted"
                time.sleep(0.01)
        finally:
            daemon.stop()
        assert isinstance(daemon.last_error, OSError)

    def test_on_checkpoint_fires_after_durable_write(self, tmp_path):
        store = served_store(None)
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        seen = []
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store),
            tmp_path,
            3600.0,
            on_checkpoint=seen.append,
        )
        path = daemon.run_once()
        assert os.path.exists(path)
        assert seen == [snapshot_counter(open(path, "rb").read())]

    def test_on_checkpoint_retires_wal_segments(self, tmp_path):
        # The serve wiring: checkpoint durable -> retire older segments.
        wal_dir = tmp_path / "wal"
        store = served_store(wal_dir)
        daemon = serve_daemon(store, tmp_path / "snaps", wal_dir)
        store.set(b"a", b"1")
        daemon.run_once()
        store.set(b"b", b"2")
        daemon.run_once()
        # Only the newest checkpoint's segment chain survives.
        assert sorted(os.listdir(wal_dir)) == [
            os.path.basename(segment_path(str(wal_dir), index, partition.wal.counter))
            for index, partition in enumerate(store.partitions)
        ]
        store.close()

    def test_fsync_directory_tolerates_missing_path(self, tmp_path):
        fsync_directory(str(tmp_path))  # real directory: must not raise
        fsync_directory(str(tmp_path / "nope"))  # missing: tolerated


# ---------------------------------------------------------------------------
# the acceptance scenario: chaos with zero acknowledged loss
# ---------------------------------------------------------------------------
@needs_processes
class TestChaosWALAcceptance:
    """TestChaosYCSB's storm, WAL-on: every acknowledged write survives."""

    NUM_PAIRS = 48
    NUM_OPS = 150

    def _chaos_plan(self, seed):
        return FaultPlan(
            [
                FaultRule(point="shmring.write", kind="crash",
                          after=4, hits=[0]),
                FaultRule(point="snapshot.write", kind="delay",
                          delay_s=0.2, hits=[0]),
                FaultRule(point="channel.server.open", kind="tamper",
                          every=60),
                FaultRule(point="tcp.client.recv", kind="drop", hits=[2]),
                FaultRule(point="tcp.client.recv", kind="drop",
                          probability=0.05),
                FaultRule(point="tcp.server.recv", kind="drop",
                          probability=0.05),
            ],
            seed=seed,
        )

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_no_acknowledged_mutation_lost(self, seed, tmp_path):
        # Sanitizer on: WAL appends, worker respawns and the recovery
        # replay must never reuse a (key, IV) pair.
        journal_dir = str(tmp_path / "crypto-sanitizer")
        sanitizer.enable(journal_dir)
        service = AttestationService(b"ias-secret-for-wal")
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            num_partitions=4,
            mode="processes",
            wal_dir=str(tmp_path / "wal"),
        )
        server = TCPShieldServer(store, service, request_deadline_s=10.0)
        server.start()
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store),
            tmp_path / "snaps",
            3600.0,
            lock=server.store_lock,
        )
        client = TCPShieldClient(
            server.address,
            service,
            store.enclave.measurement,
            bytes(range(32)),
            request_deadline_s=2.0,
            max_retries=12,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
        )
        model = {}
        counts = {}
        try:
            stream = OperationStream(RD95_Z, SMALL, self.NUM_PAIRS, seed=seed)
            for op in stream.load_operations():
                client.set(op.key, op.value)
                model[op.key] = op.value

            plan = faults.install(self._chaos_plan(seed))
            daemon.run_once()
            for i, op in enumerate(stream.operations(self.NUM_OPS)):
                if i % 10 == 0:
                    ctr = b"ctr-%d" % (i % 3)
                    client.increment(ctr)
                    counts[ctr] = counts.get(ctr, 0) + 1
                elif op.op == OP_GET:
                    assert client.get(op.key) == model[op.key]
                elif op.op == OP_SET:
                    client.set(op.key, op.value)
                    model[op.key] = op.value

            live = client.server_stats()

            # Recovered state byte-identical to the acknowledged writes.
            for key, value in sorted(model.items()):
                assert client.get(key) == value
            for ctr, count in sorted(counts.items()):
                assert client.get(ctr) == str(count).encode()

            # The win over WAL-off chaos (test_net_resilience): a worker
            # died and was respawned, yet nothing acknowledged was lost.
            assert plan.fires("shmring.write", "crash") == 1
            assert live["worker_recoveries"] >= 1
            assert live["worker_ops_lost"] == 0
            assert live["wal_appends"] >= 1
            faults.uninstall()
            daemon.run_once()
            assert store.partition_state in ("ok", "recovered")
        finally:
            faults.uninstall()
            client.close()
            server.close()
            store.close()
            sanitizer.disable()
        crypto = sanitizer.global_check(journal_dir)
        assert crypto.records > 0
