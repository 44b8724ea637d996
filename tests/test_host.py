"""PartitionHost: one partition's build (which is recovery) -> checkpoint.

The host is the single copy of that policy (workers and the in-process
engine both call it), so its guarantees are pinned here directly: a
partition is born from its section plus its log tail, a refused birth
harms nothing, and a dirty log is fsynced by its own committer thread
once its group-commit window has passed — whoever hosts it, with no
further call, and never on the thread that appended.
"""

import os
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import (
    MODE_PROCESSES,
    PartitionedShieldStore,
    PartitionHost,
    PartitionSnapshotter,
    process_mode_supported,
    shield_opt,
)
from repro.core.stats import StoreStats
from repro.core.wal import WriteAheadLog, segment_path
from repro.errors import SealingError, SnapshotError, StoreError
from repro.net.message import Request
from repro.sim import MonotonicCounterService, faults

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


def _log(directory, sync_ms):
    return WriteAheadLog(
        str(directory), 0, SECRET, "fast-hashlib", 0,
        sync_ms=sync_ms, stats=StoreStats(),
    )


def _put(i):
    return Request("set", b"k%d" % i, b"v")


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.002)
    return predicate()


def _committers():
    return [t for t in threading.enumerate() if t.name.startswith("wal-commit")]


@contextmanager
def _served(store):
    """``store`` behind a TCPShieldServer; yields (server, client)."""
    from repro.net.sessions import AttestationService
    from repro.net.tcp import TCPShieldClient, TCPShieldServer

    service = AttestationService(b"attestation-secret")
    server = TCPShieldServer(store, service, port=0)
    server.start()
    client = TCPShieldClient(
        server.address, service, store.enclave.measurement, b"e" * 32
    )
    try:
        yield server, client
    finally:
        client.close()
        server.close()


@contextmanager
def _hosted_log(shape, directory, sync_ms):
    """One log under one of its hosts; yields (set one key, fsync count)."""
    config = shield_opt(num_buckets=64, num_mac_hashes=16)
    if shape == "bare":
        wal = _log(directory, sync_ms)
        try:
            yield (lambda: wal.append(_put(0))), (lambda: wal.stats.wal_fsyncs)
        finally:
            wal.close()
    elif shape.startswith("worker-"):
        with PartitionedShieldStore(
            config, master_secret=SECRET, num_partitions=1,
            mode=MODE_PROCESSES, data_plane=shape[len("worker-"):],
            wal_dir=str(directory), wal_sync_ms=sync_ms,
        ) as store:
            yield (lambda: store.set(b"k", b"v")), (lambda: store.stats().wal_fsyncs)
    else:
        if shape == "partitioned":
            owner = store = PartitionedShieldStore(
                config, master_secret=SECRET, mode="sequential",
                num_partitions=1, wal_dir=str(directory), wal_sync_ms=sync_ms,
            )
            logged = store.partitions[0]
        else:
            owner = _host(directory, sync_ms=sync_ms)
            store = logged = owner.store
            if shape == "replicated":
                from repro.ext.replication import ReplicatedStore

                store = ReplicatedStore(logged, node_id="node-0")
        try:
            with _served(store) as (_server, client):
                yield (lambda: client.set(b"k", b"v")), (
                    lambda: logged.stats.wal_fsyncs
                )
        finally:
            owner.close()


_needs_workers = pytest.mark.skipif(
    not process_mode_supported(), reason="no worker processes"
)


class TestGroupCommitTail:
    """The log commits itself (``core/wal.py``, "Group commit")."""

    @pytest.mark.parametrize("shape", [
        "bare", "partitioned", "hosted", "replicated",
        pytest.param("worker-pipe", marks=_needs_workers),
        pytest.param("worker-shm", marks=_needs_workers),
    ])
    def test_lone_append_is_fsynced_once_its_window_passes(self, tmp_path, shape):
        """One append, then nothing: no second append, no rotate, no
        close and no tick from the host — the committer alone fsyncs it
        within the window plus slack."""
        window = 0.05
        with _hosted_log(shape, tmp_path, window * 1000.0) as (put, fsyncs):
            put()
            appended = time.monotonic()
            assert _until(lambda: fsyncs() == 1)
            assert time.monotonic() - appended < window + 0.25
            time.sleep(2 * window)
            assert fsyncs() == 1  # a clean log is left alone

    @pytest.mark.parametrize("sync_ms", [1.0, 0.0])
    def test_fsync_leaves_the_appending_thread(self, tmp_path, monkeypatch, sync_ms):
        threads, real_fsync = [], os.fsync

        def recording_fsync(fd):
            threads.append(threading.get_ident())
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        wal = _log(tmp_path, sync_ms)
        try:
            for i in range(40):
                wal.append(_put(i))
                time.sleep(0.0005)
            if sync_ms > 0:
                assert _until(lambda: threads)
                assert threading.get_ident() not in threads
            else:
                assert threads == [threading.get_ident()] * 40
                assert wal.stats.wal_fsyncs == wal.stats.wal_appends == 40
        finally:
            wal.close()

    def test_request_latency_does_not_contain_the_disk(self, tmp_path):
        """Every fsync takes 30 ms; 100 sequential sets over TCP do not
        (an fsync on the request path makes this take >= 0.7 s)."""
        host = _host(tmp_path, sync_ms=1.0)
        plan = faults.FaultPlan(
            [faults.FaultRule("wal.fsync", "delay", delay_s=0.03)]
        )
        try:
            with _served(host.store) as (_server, client), faults.injected(plan):
                client.set(b"warm", b"up")
                started = time.monotonic()
                for i in range(100):
                    client.set(b"k%d" % i, b"v")
                elapsed = time.monotonic() - started
            assert elapsed < 0.35
            assert plan.fires("wal.fsync") >= 1
        finally:
            host.close()
        assert _host(tmp_path).store.stats.wal_replayed == 101

    def test_rotation_never_closes_a_handle_under_the_committer(self, tmp_path):
        wal = _log(tmp_path, 0.1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(200):
                wal.append(_put(i))
                wal.rotate(i + 1)
            wal.close()
        finally:
            sys.setswitchinterval(interval)
        assert _committers() == []
        replayed = []
        WriteAheadLog.recover(
            str(tmp_path), 0, SECRET, "fast-hashlib", 0, apply=replayed.append
        ).close()
        assert replayed == [_put(i) for i in range(200)]

    @pytest.mark.parametrize("rule, raised, refused", [
        (dict(kind="error"), OSError, "append"),
        (dict(kind="crash"), ConnectionResetError, "append"),
        (dict(kind="error", error="StoreError"), StoreError, "append"),
        (dict(kind="error"), OSError, "rotate"),
    ], ids=["error", "crash", "not-an-oserror", "rotate"])
    def test_failed_background_fsync_is_raised_once_then_retried(
        self, tmp_path, rule, raised, refused
    ):
        """The committer keeps what it could not fsync and keeps running:
        the next caller is refused with the failure — once, before it
        writes anything — and its retry makes the acknowledged frame
        durable."""
        wal = _log(tmp_path, 1.0)
        plan = faults.FaultPlan([faults.FaultRule("wal.fsync", hits=[0], **rule)])
        try:
            with faults.injected(plan):
                wal.append(_put(0))
                assert _until(lambda: wal._failure is not None)
                assert wal.stats.wal_fsyncs == 0 and wal._dirty
                with pytest.raises(raised, match="injected"):
                    if refused == "append":
                        wal.append(_put(1))
                    else:
                        wal.rotate(1)
                assert _until(lambda: wal.stats.wal_fsyncs == 1)  # the retry
                wal.append(_put(2))
                assert _committers() and wal._failure is None
        finally:
            wal.close()
        replayed = []
        WriteAheadLog.recover(
            str(tmp_path), 0, SECRET, "fast-hashlib", 0, apply=replayed.append
        ).close()
        assert replayed == [_put(0), _put(2)]

    def test_close_raises_a_failing_fsync_and_still_closes(self, tmp_path):
        wal = _log(tmp_path, 60_000.0)
        plan = faults.FaultPlan([faults.FaultRule("wal.fsync", "error")])
        with faults.injected(plan):
            wal.append(_put(0))
            with pytest.raises(OSError, match="injected"):
                wal.close()
        assert wal._fh is None and _committers() == []
        wal.close()  # idempotent: nothing left to raise or close

    def test_served_store_refuses_one_write_after_a_failed_fsync(self, tmp_path):
        """The event loop outlives a failing disk: the write after the
        failed fsync costs its connection (the client's one retry), and
        the loop keeps serving."""
        host = _host(tmp_path, sync_ms=1.0)
        plan = faults.FaultPlan([faults.FaultRule("wal.fsync", "error", hits=[0])])
        try:
            with _served(host.store) as (server, client), faults.injected(plan):
                client.set(b"a", b"1")  # acknowledged; its fsync then fails
                assert _until(lambda: host.store.wal._failure is not None)
                client.set(b"b", b"2")
                assert client.stats.net_retries == 1
                assert _until(lambda: host.store.stats.wal_fsyncs >= 1)
                assert server._loop_thread.is_alive()
                assert client.get(b"a") == b"1" and client.get(b"b") == b"2"
        finally:
            host.close()
        assert _host(tmp_path).store.stats.wal_replayed == 2
