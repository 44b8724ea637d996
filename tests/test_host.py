"""PartitionHost: one partition's build (which is recovery) -> checkpoint.

The host is the single copy of that policy (workers and the in-process
engine both call it), so its guarantees are pinned here directly: a
partition is born from its section plus its log tail, a refused birth
harms nothing, and a dirty log is fsynced once its group-commit window
has passed even when no further append comes.
"""

import os
import time

import pytest

from repro.core import (
    MODE_PROCESSES,
    PartitionedShieldStore,
    PartitionHost,
    PartitionSnapshotter,
    process_mode_supported,
    shield_opt,
)
from repro.core.wal import segment_path
from repro.errors import SealingError, SnapshotError
from repro.sim import MonotonicCounterService

SECRET = bytes(range(32))


def _host(wal_dir=None, sync_ms=0.0, checkpoint=None):
    return PartitionHost(
        shield_opt(num_buckets=64, num_mac_hashes=16),
        master_secret=SECRET,
        wal_dir=None if wal_dir is None else str(wal_dir),
        wal_sync_ms=sync_ms,
        checkpoint=checkpoint,
    )


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 0x40]))


class TestLifecycle:
    def test_build_replays_the_chain_a_predecessor_left(self, tmp_path):
        first = _host(tmp_path)
        first.store.set(b"a", b"1")
        first.store.increment(b"n", 4)
        first.close()
        second = _host(tmp_path)
        assert second.store.stats.wal_replayed == 2 and second.reached == 0
        assert second.store.get(b"a") == b"1"
        assert second.store.get(b"n") == b"4"
        second.close()

    def test_restore_is_section_plus_log_tail(self, tmp_path):
        first = _host(tmp_path)
        first.store.set(b"in-section", b"1")
        section = first.snapshot(counter=1)
        first.store.set(b"in-tail", b"2")
        first.snapshot(counter=2)  # a checkpoint whose file never landed
        first.store.set(b"past-it", b"3")
        first.close()
        host = _host(tmp_path, checkpoint=(1, section))
        assert host.store.stats.wal_replayed == 2  # the two tail ops
        assert host.reached == 2  # ...and the truncation record between
        assert dict(host.store.iter_items()) == {
            b"in-section": b"1", b"in-tail": b"2", b"past-it": b"3",
        }
        # The reborn store logs again (append-before-apply survives).
        host.store.set(b"after", b"4")
        assert host.store.stats.wal_appends == 1
        host.close()

    def test_snapshot_rotates_inside_the_capture(self, tmp_path):
        host = _host(tmp_path)
        host.store.set(b"k", b"v")
        host.snapshot(counter=5)
        assert host.store.wal.counter == 5
        assert os.path.exists(segment_path(str(tmp_path), 0, 5))
        host.close()


class TestFailedRestoreLeavesTheServingStoreUntouched:
    """Nothing is restored *into* a serving store — a partition is born
    from its section — so what is pinned is that a refused birth is a
    typed error and harms nothing: the host that wrote the section keeps
    serving and logging, and the same directory still yields everything."""

    @pytest.mark.parametrize("damage", ["truncated", "flipped", "wrong-counter"])
    def test_malformed_section(self, tmp_path, damage):
        host = _host(tmp_path)
        host.store.set(b"k", b"v")
        good = section = host.snapshot(counter=1)
        host.store.set(b"later", b"w")
        counter = 1
        if damage == "truncated":
            section = section[: len(section) // 2]
        elif damage == "flipped":
            section = section[:10] + bytes([section[10] ^ 1]) + section[11:]
        else:
            counter = 2
        with pytest.raises((SnapshotError, SealingError)):
            _host(tmp_path, checkpoint=(counter, section))
        assert dict(host.store.iter_items()) == {b"k": b"v", b"later": b"w"}
        host.store.set(b"still-logging", b"x")  # the log is still its own
        host.close()
        reborn = _host(tmp_path, checkpoint=(1, good))
        assert dict(reborn.store.iter_items()) == {
            b"k": b"v", b"later": b"w", b"still-logging": b"x",
        }
        reborn.close()

    def test_tampered_log_tail(self, tmp_path):
        host = _host(tmp_path)
        host.store.set(b"k", b"v")
        section = host.snapshot(counter=1)
        host.store.set(b"tail-1", b"a")
        host.store.set(b"tail-2", b"b")
        _flip_byte(segment_path(str(tmp_path), 0, 1), 30)
        with pytest.raises(SnapshotError, match="failed authentication"):
            _host(tmp_path, checkpoint=(1, section))
        assert len(host.store) == 3
        host.close()

    def test_checkpoint_recover_roundtrip(self, tmp_path):
        """The store ``repro serve --workers 1`` builds, at test size."""
        config = shield_opt(num_buckets=64, num_mac_hashes=16)
        shape = dict(
            master_secret=SECRET, num_partitions=1,
            wal_dir=str(tmp_path / "wal"), wal_sync_ms=0.0,
        )
        store = PartitionedShieldStore(config, **shape)
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        store.set(b"a", b"1")
        blob = snapshotter.snapshot_bytes(store)
        store.set(b"b", b"2")  # log tail only
        store.close()
        restarted = snapshotter.open(blob, config, **shape)
        assert dict(restarted.iter_items()) == {b"a": b"1", b"b": b"2"}
        restarted.close()


class TestGroupCommitTail:
    def test_lone_append_is_fsynced_once_its_window_passes(self, tmp_path):
        host = _host(tmp_path, sync_ms=200.0)
        host.store.set(b"warm", b"up")
        synced = host.store.stats.wal_fsyncs
        host.store.set(b"k", b"v")  # inside the window: left dirty
        assert host.store.stats.wal_fsyncs == synced
        wait = host.store.flush_logs()
        assert wait is not None and 0 < wait <= 0.2
        time.sleep(wait)
        assert host.store.flush_logs() is None  # fell due: fsynced, now clean
        assert host.store.stats.wal_fsyncs == synced + 1
        assert host.store.flush_logs() is None  # clean log: nothing to do
        assert host.store.stats.wal_fsyncs == synced + 1
        host.close()

    def test_host_without_a_log_has_nothing_to_flush(self):
        assert _host().store.flush_logs() is None

    @pytest.mark.parametrize("served", ["partitioned", "hosted", "replicated"])
    def test_tcp_sweep_flushes_a_served_in_process_log(self, tmp_path, served):
        """Traffic stops after one burst; the event loop's sweep tick
        fsyncs the tail (no append, rotate or close does it) — for the
        router, for a bare hosted store, and through the replication
        wrapper, whose own peer-draining ``flush`` must never run on
        the loop."""
        from repro.ext.replication import ReplicatedStore
        from repro.net.sessions import AttestationService
        from repro.net.tcp import TCPShieldClient, TCPShieldServer

        peer_flushes = []
        if served == "partitioned":
            owner = store = PartitionedShieldStore(
                shield_opt(num_buckets=64, num_mac_hashes=16),
                master_secret=SECRET, mode="sequential", num_partitions=1,
                wal_dir=str(tmp_path), wal_sync_ms=300.0,
            )
            logged = store.partitions[0]
        else:
            owner = _host(tmp_path, sync_ms=300.0)
            store = logged = owner.store
            if served == "replicated":
                store = ReplicatedStore(logged, node_id="node-0")
                store.flush = lambda: peer_flushes.append(1)
        service = AttestationService(b"attestation-secret")
        server = TCPShieldServer(store, service, port=0)
        server.start()
        client = TCPShieldClient(
            server.address, service, store.enclave.measurement, b"e" * 32
        )
        try:
            client.set(b"warm", b"up")
            client.set(b"k", b"v")
            stats = logged.stats
            dirty = stats.wal_fsyncs
            assert logged.wal._dirty
            deadline = time.monotonic() + 5.0
            while stats.wal_fsyncs == dirty and time.monotonic() < deadline:
                time.sleep(0.05)
            assert stats.wal_fsyncs == dirty + 1
            assert not logged.wal._dirty
            assert peer_flushes == []
        finally:
            client.close()
            server.close()
            owner.close()

    def test_sweep_survives_a_failing_flush(self, tmp_path):
        """An fsync that raises is retried by the next append or close;
        it must not take the event-loop thread down with it."""
        from repro.errors import StoreError
        from repro.net.sessions import AttestationService
        from repro.net.tcp import TCPShieldClient, TCPShieldServer

        host = _host(tmp_path, sync_ms=50.0)
        calls = []

        def failing_flush():
            calls.append(1)
            raise OSError("disk gone") if len(calls) % 2 else StoreError("injected")

        host.store.flush_logs = failing_flush
        service = AttestationService(b"attestation-secret")
        server = TCPShieldServer(host.store, service, port=0)
        server.start()
        client = TCPShieldClient(
            server.address, service, host.store.enclave.measurement, b"e" * 32
        )
        try:
            deadline = time.monotonic() + 5.0
            while len(calls) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(calls) >= 2
            client.set(b"k", b"v")  # the loop is still serving
            assert client.get(b"k") == b"v"
        finally:
            client.close()
            server.close()
            host.close()

    @pytest.mark.skipif(
        not process_mode_supported(), reason="no worker processes"
    )
    @pytest.mark.parametrize("data_plane", ["pipe", "shm"])
    def test_worker_flushes_its_idle_log(self, tmp_path, data_plane):
        """No second append and no further frame: the worker bounds its
        receive by the window and fsyncs on its own."""
        with PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=16),
            master_secret=SECRET, num_partitions=1, mode=MODE_PROCESSES,
            data_plane=data_plane, wal_dir=str(tmp_path), wal_sync_ms=400.0,
        ) as store:
            store.set(b"warm", b"up")
            for i in range(4):  # a burst well inside one window
                store.set(b"k%d" % i, b"v")
            before = store.stats()
            time.sleep(1.0)  # idle: nothing is sent to the worker
            after = store.stats()
            assert before.wal_appends == after.wal_appends == 5
            assert after.wal_fsyncs == before.wal_fsyncs + 1
