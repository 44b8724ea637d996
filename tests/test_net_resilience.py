"""shieldfault chaos drills: the resilient transport under scripted faults.

The centerpiece is the acceptance scenario: a 4-partition YCSB-B run
through :class:`TCPShieldClient` while a seeded plan SIGKILLs a worker,
drops frames, tampers sealed records and stalls a checkpoint write —
and the run must complete with **zero client-visible errors** and
**every retried write observed exactly once** in the store.
"""

import os
import socket
import struct
import threading
import time

import pytest

from repro.analysis import sanitizer
from repro.core import (
    PartitionedShieldStore,
    PartitionSnapshotter,
    SnapshotDaemon,
    shield_opt,
)
from repro.core.procpool import process_mode_supported
from repro.errors import (
    KeyNotFoundError,
    ProtocolError,
    StoreError,
    WorkerError,
)
from repro.net import TCPShieldClient, TCPShieldServer
from repro.net.tcp import _IdempotencyCache, _recv_frame, _send_frame
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


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no ambient fault plan."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def service():
    return AttestationService(b"ias-secret-for-resilience")


def resilient_client(server, service, entropy=bytes(range(32)), **kw):
    kw.setdefault("request_deadline_s", 2.0)
    kw.setdefault("max_retries", 12)
    kw.setdefault("backoff_base_s", 0.01)
    kw.setdefault("backoff_max_s", 0.05)
    return TCPShieldClient(
        server.address,
        service,
        server.store.enclave.measurement,
        entropy,
        **kw,
    )


# ---------------------------------------------------------------------------
# frame codec: truncation vs clean EOF
# ---------------------------------------------------------------------------
class TestTruncatedFrames:
    def test_clean_eof_at_boundary_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert _recv_frame(b) is None

    def test_eof_inside_header_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x10\x00")  # 2 of the 4 header bytes
            a.close()
            with pytest.raises(ProtocolError, match="truncated frame"):
                _recv_frame(b)

    def test_eof_inside_body_raises(self):
        a, b = socket.socketpair()
        with b:
            _send_frame(a, b"full-frame")
            a.sendall(b"\x40\x00\x00\x00partial")  # 64-byte body, 7 sent
            a.close()
            assert _recv_frame(b) == b"full-frame"
            with pytest.raises(ProtocolError, match="truncated frame"):
                _recv_frame(b)

    def test_truncation_reports_progress(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x08\x00\x00\x00abc")
            a.close()
            with pytest.raises(ProtocolError, match="7 of 12"):
                _recv_frame(b)

    def test_session_buffer_keeps_the_read_ahead(self):
        # With a session buffer one recv may take several frames; the
        # surplus must wait in the buffer, and EOF semantics must match
        # the unbuffered form: mid-frame raises, at a boundary is None.
        a, b = socket.socketpair()
        buf = bytearray()
        with b:
            _send_frame(a, b"one")
            _send_frame(a, b"")
            a.sendall(b"\x40\x00\x00\x00partial")
            a.close()
            assert _recv_frame(b, buf=buf) == b"one"
            assert buf, "the read-ahead stays in the session buffer"
            assert _recv_frame(b, buf=buf) == b""
            with pytest.raises(ProtocolError, match="truncated frame"):
                _recv_frame(b, buf=buf)
        a, b = socket.socketpair()
        with b:
            _send_frame(a, b"last")
            a.close()
            buf = bytearray()
            assert _recv_frame(b, buf=buf) == b"last"
            assert _recv_frame(b, buf=buf) is None

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="too large"):
                _recv_frame(b)


# ---------------------------------------------------------------------------
# idempotency: cache unit behavior + end-to-end replay after a lost reply
# ---------------------------------------------------------------------------
class TestCrossingBlock:
    """``faults.cross``: the one unwrapping of a ``check`` hit that every
    byte-carrying site shares; the sites keep only their drop reaction."""

    def test_no_plan_hands_back_the_same_bytes(self):
        payload = b"frame"
        assert faults.cross("tcp.client.send", payload) is payload

    def test_tamper_substitutes_drop_is_dropped_crash_runs_callback(self):
        payload, crashed = bytes(64), []
        with faults.injected(FaultPlan([
            FaultRule(point="tcp.client.send", kind="tamper", hits=[0]),
            FaultRule(point="tcp.client.send", kind="drop", hits=[0]),
            FaultRule(point="tcp.client.send", kind="crash", hits=[0]),
        ], seed=3)):
            mutated = faults.cross("tcp.client.send", payload)
            assert mutated != payload and len(mutated) == len(payload)
            assert faults.cross("tcp.client.send", payload) is faults.DROPPED
            assert faults.cross(
                "tcp.client.send", payload, on_crash=lambda: crashed.append(1)
            ) is payload
            assert faults.cross("tcp.client.send", payload) is payload
        assert crashed == [1]

    def test_a_codec_has_nothing_to_drop(self):
        """A drop rule at a seal/open or snapshot-blob point proceeds
        with the bytes intact, as it always has."""
        from repro.crypto import make_suite
        from repro.net import SecureChannel

        suite = make_suite("fast-hashlib", b"e" * 16, b"m" * 16)
        client, server = SecureChannel(suite, "client"), SecureChannel(suite, "server")
        with faults.injected(FaultPlan([FaultRule(point="channel.*", kind="drop")])) as plan:
            assert server.open(client.seal(b"ping")) == b"ping"
            assert plan.fires(kind="drop") == 2


class TestIdempotencyCache:
    def test_lookup_roundtrip(self):
        cache = _IdempotencyCache()
        cache.store(b"c1", b"t" * 16, b"reply")
        assert cache.lookup(b"c1", b"t" * 16) == b"reply"
        assert cache.lookup(b"c1", b"u" * 16) is None
        assert cache.lookup(b"c2", b"t" * 16) is None

    def test_token_bound_evicts_oldest(self):
        cache = _IdempotencyCache(max_tokens=3)
        tokens = [bytes([i]) * 16 for i in range(5)]
        for i, token in enumerate(tokens):
            cache.store(b"c", token, b"r%d" % i)
        assert cache.lookup(b"c", tokens[0]) is None
        assert cache.lookup(b"c", tokens[1]) is None
        assert cache.lookup(b"c", tokens[4]) == b"r4"
        assert len(cache) == 3

    def test_client_bound_evicts_oldest_client(self):
        cache = _IdempotencyCache(max_clients=2)
        cache.store(b"c1", b"t" * 16, b"r1")
        cache.store(b"c2", b"t" * 16, b"r2")
        cache.store(b"c3", b"t" * 16, b"r3")
        assert cache.lookup(b"c1", b"t" * 16) is None
        assert cache.lookup(b"c3", b"t" * 16) == b"r3"


class TestIdempotentReplay:
    def test_lost_reply_replays_instead_of_reapplying(self, service):
        """An increment whose reply is dropped must not apply twice."""
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service)
        server.start()
        client = resilient_client(server, service)
        try:
            plan = FaultPlan(
                [FaultRule(point="tcp.client.recv", kind="drop", hits=[0])],
                seed=1,
            )
            with faults.injected(plan):
                # Attempt 1 executes server-side and caches the reply;
                # the reply frame is dropped; the retry (same token over
                # a fresh session) is answered from the cache.
                assert client.increment(b"ctr") == 1
            assert store.get(b"ctr") == b"1"  # applied exactly once
            assert client.stats.net_retries >= 1
            assert client.stats.net_reconnects >= 1
            merged = server.stats_snapshot()
            assert merged.idempotent_replays == 1
        finally:
            client.close()
            server.close()

    def test_reads_carry_no_token(self, service):
        """Dropped read replies re-execute; nothing is cached for them."""
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service)
        server.start()
        client = resilient_client(server, service)
        try:
            client.set(b"k", b"v")
            plan = FaultPlan(
                [FaultRule(point="tcp.client.recv", kind="drop", hits=[0])],
                seed=1,
            )
            with faults.injected(plan):
                assert client.get(b"k") == b"v"
            assert server.stats_snapshot().idempotent_replays == 0
        finally:
            client.close()
            server.close()


# ---------------------------------------------------------------------------
# server limits: connection cap, thread reaping, drain on close
# ---------------------------------------------------------------------------
class TestServerLimits:
    def test_connection_cap_sheds_with_sealed_busy(self, service):
        # Over-cap connections are not silently refused: they complete
        # the attested handshake and every request is answered with a
        # *sealed* STATUS_BUSY until a slot frees up.  A client with no
        # retry budget surfaces that as a StoreError.
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service, max_connections=1)
        server.start()
        first = resilient_client(server, service)
        try:
            first.set(b"k", b"v")  # the one admitted session works
            second = resilient_client(
                server,
                service,
                entropy=bytes(range(32, 64)),
                max_retries=1,
                backoff_base_s=0.01,
            )
            try:
                with pytest.raises(StoreError, match="shedding"):
                    second.get(b"k")
                assert second.stats.busy_retries >= 1
                # Shed was load-shedding, never a transport fault.
                assert second.stats.net_retries == 0
            finally:
                second.close()
            assert server.stats_snapshot().rejected_connections >= 1
            assert server.stats_snapshot().busy_sheds >= 1
            assert first.get(b"k") == b"v"  # cap never hurt the admitted one
        finally:
            first.close()
            server.close()

    def test_shed_connection_is_promoted_when_slot_frees(self, service):
        # The oldest shed connection becomes a first-class session as
        # soon as an admitted connection leaves — the client's backoff
        # retry then succeeds on the *same* session, no reconnect.
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service, max_connections=1)
        server.start()
        first = resilient_client(server, service)
        first.set(b"k", b"v")
        second = resilient_client(
            server,
            service,
            entropy=bytes(range(32, 64)),
            max_retries=8,
            backoff_base_s=0.05,
        )
        try:
            releaser = threading.Timer(0.2, first.close)
            releaser.start()
            try:
                assert second.get(b"k") == b"v"
            finally:
                releaser.cancel()
            assert second.stats.busy_retries >= 1
            assert second.stats.net_reconnects == 0, (
                "promotion must reuse the shed session, not re-handshake"
            )
        finally:
            second.close()
            server.close()

    def test_close_drains_and_joins_the_loop(self, service):
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service, drain_timeout_s=5.0)
        server.start()
        client = resilient_client(server, service)
        client.set(b"k", b"v")
        server.close()  # client still connected and idle
        assert not server._loop_thread.is_alive()
        assert server.live_connections == 0
        client.close()

    def test_pipelined_requests_on_one_connection(self, service):
        # The event loop parses back-to-back frames from one socket
        # buffer and answers them in FIFO order under the channel's
        # sequence discipline.
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service)
        server.start()
        client = resilient_client(server, service)
        try:
            for i in range(8):
                client.set(b"pipe%d" % i, b"v%d" % i)
            values = client.multi_get([b"pipe%d" % i for i in range(8)])
            assert values == {b"pipe%d" % i: b"v%d" % i for i in range(8)}
        finally:
            client.close()
            server.close()


    def test_slow_inline_request_is_not_a_wire_stall_for_others(
        self, service, monkeypatch
    ):
        # The loop runs in-process requests itself, so while A's slow
        # request holds it, B's bytes sit unread.  That wait is the
        # store's, not B's: B — half a frame on the wire before the
        # stall, the rest during it, far past request_deadline_s — must
        # be answered on the same session, never deadline-dropped.
        from repro.core import ShieldStore
        from repro.net.message import Request, encode_envelope, encode_request

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, service, request_deadline_s=0.2)
        server.start()
        a = resilient_client(server, service)
        b = resilient_client(server, service, entropy=bytes(range(32, 64)))
        try:
            a.set(b"k", b"v")
            real_get = store.get
            entered = threading.Event()

            def slow_get(key):
                if key == b"slow":
                    entered.set()
                    time.sleep(0.8)
                    key = b"k"
                return real_get(key)

            monkeypatch.setattr(store, "get", slow_get)
            frame = b._channel.seal(
                encode_envelope(None, encode_request(Request("get", b"k")))
            )
            wire = struct.pack("<I", len(frame)) + frame
            b._sock.sendall(wire[:10])
            slow = threading.Thread(target=lambda: a.get(b"slow"))
            slow.start()
            assert entered.wait(5)
            b._sock.sendall(wire[10:])
            reply = b._channel.open(b._recv())
            slow.join(timeout=10)
            assert not slow.is_alive()
            assert reply.endswith(b"v")
            assert b.get(b"k") == b"v"
            for client in (a, b):
                assert client.stats.net_reconnects == 0
            assert server.stats_snapshot().deadline_drops == 0
        finally:
            a.close()
            b.close()
            server.close()

    def test_silent_handshake_cannot_hold_a_slot(self, service):
        # A peer that takes the quote and never answers it is stalled on
        # the wire, not idle: the deadline drops it, so it cannot keep
        # the only admitted slot from an honest client.
        from repro.core import ShieldStore

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(
            store, service, max_connections=1, request_deadline_s=0.3
        )
        server.start()
        silent = socket.create_connection(server.address, timeout=5)
        try:
            assert _recv_frame(silent) is not None  # the quote, unanswered
            time.sleep(1.0)
            client = resilient_client(server, service)
            try:
                client.set(b"k", b"v")
                assert client.get(b"k") == b"v"
                assert client.stats.busy_retries == 0
            finally:
                client.close()
            assert silent.recv(1) == b""  # dropped: EOF
            assert server.stats_snapshot().deadline_drops == 1
        finally:
            silent.close()
            server.close()

    @needs_processes
    def test_worker_respawn_blocks_the_loop_and_costs_no_connection(
        self, service, monkeypatch
    ):
        # A process-engine request holds the loop for its whole worker
        # round trip, a respawn included.  A's write meets a SIGKILLed
        # worker: a degraded reply, which A's retry gets past.  B has
        # half a frame on the wire before the respawn and sends the rest
        # during it, with the deadline below the respawn time: B's bytes
        # are the loop's backlog, not a wire stall, so B is answered.
        from repro.net.message import Request, encode_envelope, encode_request

        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            num_partitions=2,
            mode="processes",
        )
        pool = store._pool
        owner = {}
        for i in range(64):
            owner.setdefault(store.partition_index_of(b"k%d" % i), b"k%d" % i)
        a_key, b_key = owner[0], owner[1]
        respawning = threading.Event()
        respawn_s = []
        real_recover = pool._recover_worker

        def timed_recover(handle, why):
            respawning.set()
            started = time.monotonic()
            try:
                time.sleep(0.4)  # a respawn restoring a large checkpoint
                return real_recover(handle, why)
            finally:
                respawn_s.append(time.monotonic() - started)

        def kill_worker(index):
            process = pool.workers[index].process
            process.kill()
            process.wait(timeout=10)

        monkeypatch.setattr(pool, "_recover_worker", timed_recover)
        server = None
        a = b = None
        try:
            # One respawn off the server, to size the deadline below it.
            kill_worker(0)
            with pytest.raises(WorkerError):
                store.set(a_key, b"lost")
            deadline = respawn_s[0] / 2
            respawning.clear()
            server = TCPShieldServer(store, service, request_deadline_s=deadline)
            server.start()
            a = resilient_client(server, service, request_deadline_s=10.0)
            b = resilient_client(
                server, service, entropy=bytes(range(32, 64)),
                request_deadline_s=10.0,
            )
            b.set(b_key, b"vb")
            frame = b._channel.seal(
                encode_envelope(None, encode_request(Request("get", b_key)))
            )
            wire = struct.pack("<I", len(frame)) + frame
            kill_worker(0)
            b._sock.sendall(wire[:10])
            writer = threading.Thread(target=lambda: a.set(a_key, b"va"))
            writer.start()
            assert respawning.wait(10)
            b._sock.sendall(wire[10:])
            reply = b._channel.open(b._recv())
            writer.join(timeout=20)
            assert not writer.is_alive()
            assert reply.endswith(b"vb")
            assert respawn_s[1] > deadline
            assert a.stats.net_retries == 1  # the degraded reply, retried
            assert a.get(a_key) == b"va"
            assert b.stats.net_reconnects == 0
            stats = server.stats_snapshot()
            assert stats.degraded_replies == 1
            assert stats.deadline_drops == 0
        finally:
            for client in (a, b):
                if client is not None:
                    client.close()
            if server is not None:
                server.close()
            store.close()

    def test_checkpoint_while_clients_hammer_an_inline_server(
        self, service, tmp_path
    ):
        # The loop thread takes the same exclusive gate the checkpoint
        # does: requests wait out the cut, none fails, no connection is
        # dropped, and the snapshot is a consistent prefix — restoring
        # it yields exactly what the writers had acked by some point.
        config = shield_opt(num_buckets=64, num_mac_hashes=32)
        store = PartitionedShieldStore(config, num_partitions=1)
        server = TCPShieldServer(store, service)
        server.start()
        snapshotter = PartitionSnapshotter(
            MonotonicCounterService(str(tmp_path / "counters.json"))
        )
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store),
            tmp_path,
            3600.0,
            lock=server.store_lock,
        )
        clients = [
            resilient_client(server, service, entropy=bytes([c]) * 32)
            for c in (1, 2)
        ]
        stop = threading.Event()
        failures = []
        written = [0, 0]

        def hammer(index):
            client = clients[index]
            try:
                while not stop.is_set():
                    n = written[index]
                    client.set(b"c%d-%04d" % (index, n), b"v%d" % n)
                    written[index] = n + 1
                    assert client.get(b"c%d-%04d" % (index, n)) == b"v%d" % n
            except Exception as exc:  # surfaced below, with the others
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            paths = []
            for _ in range(3):
                while min(written) < 20 * (len(paths) + 1) and not failures:
                    stop.wait(0.01)
                paths.append(daemon.run_once())
            stop.set()
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            for client in clients:
                assert client.stats.net_retries == 0
                assert client.stats.net_reconnects == 0
            stats = server.stats_snapshot()
            assert stats.deadline_drops == 0 and stats.tamper_drops == 0
        finally:
            stop.set()
            for client in clients:
                client.close()
            server.close()
        # The last checkpoint restores to a prefix of each writer's run.
        with open(paths[-1], "rb") as fh:
            blob = fh.read()
        restored = snapshotter.open(blob, config, num_partitions=1)
        total = 0
        for index in range(2):
            n = 0
            while n < written[index]:
                try:
                    assert restored.get(b"c%d-%04d" % (index, n)) == b"v%d" % n
                except KeyNotFoundError:
                    break
                n += 1
            assert n >= 60, "checkpoint taken after 60 acked writes each"
            total += n
        assert len(restored) == total


# ---------------------------------------------------------------------------
# snapshot retention
# ---------------------------------------------------------------------------
class TestSnapshotRetention:
    def _daemon(self, tmp_path, keep):
        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32), num_partitions=1
        )
        snapshotter = PartitionSnapshotter(
            MonotonicCounterService(os.path.join(tmp_path, "counters.json"))
        )
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store),
            tmp_path,
            3600.0,
            keep=keep,
        )
        return store, daemon

    def test_keeps_newest_n_and_counter_file(self, tmp_path):
        store, daemon = self._daemon(tmp_path, keep=3)
        paths = []
        for i in range(6):
            store.set(b"k%d" % i, b"v")
            paths.append(daemon.run_once())
        blobs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".bin"))
        assert len(blobs) == 3
        assert [os.path.join(tmp_path, b) for b in blobs] == paths[-3:]
        assert daemon.snapshots_pruned == 3
        # The monotonic-counter state must survive every prune: it is
        # the rollback defense for whichever snapshot remains.
        assert os.path.exists(os.path.join(tmp_path, "counters.json"))
        assert SnapshotDaemon.latest_snapshot(tmp_path) == paths[-1]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError, match="keep"):
            SnapshotDaemon(lambda: b"", tmp_path, 3600.0, keep=0)

    def test_injected_write_crash_leaves_previous_checkpoint(self, tmp_path):
        store, daemon = self._daemon(tmp_path, keep=3)
        store.set(b"k", b"v1")
        first = daemon.run_once()
        plan = FaultPlan(
            [FaultRule(point="snapshot.write", kind="crash", hits=[0])], seed=2
        )
        store.set(b"k", b"v2")
        with faults.injected(plan):
            with pytest.raises(OSError, match="injected crash"):
                daemon.run_once()
        # The atomic temp-file protocol kept the previous checkpoint as
        # the newest complete one; the wreckage is only a .tmp file.
        assert SnapshotDaemon.latest_snapshot(tmp_path) == first
        assert daemon.run_once() != first  # and the next write recovers

    def test_load_latest_reads_newest_blob(self, tmp_path):
        store, daemon = self._daemon(tmp_path, keep=3)
        store.set(b"k", b"v")
        path = daemon.run_once()
        loaded = SnapshotDaemon.load_latest(tmp_path)
        assert loaded is not None
        with open(path, "rb") as fh:
            assert loaded == (path, fh.read())
        assert SnapshotDaemon.load_latest(os.path.join(tmp_path, "empty")) is None


# ---------------------------------------------------------------------------
# the acceptance scenario
# ---------------------------------------------------------------------------
@needs_processes
class TestChaosYCSB:
    """4-partition YCSB-B through the TCP front under a scripted plan."""

    NUM_PAIRS = 48
    NUM_OPS = 150

    def _chaos_plan(self, seed):
        return FaultPlan(
            [
                # SIGKILL one partition worker: first data-plane ring
                # write after the checkpoint (the checkpoint itself is 4
                # OP_SNAPSHOT sends, hence after=4).
                FaultRule(point="shmring.write", kind="crash",
                          after=4, hits=[0]),
                # Stall one snapshot write.
                FaultRule(point="snapshot.write", kind="delay",
                          delay_s=0.2, hits=[0]),
                # Tamper ~1% of sealed records entering the server.
                FaultRule(point="channel.server.open", kind="tamper",
                          every=60),
                # Drop ~5% of wire frames, plus one guaranteed early
                # drop each way so the counters are nonzero under every
                # seed.
                FaultRule(point="tcp.client.recv", kind="drop", hits=[2]),
                FaultRule(point="tcp.client.recv", kind="drop",
                          probability=0.05),
                FaultRule(point="tcp.server.recv", kind="drop",
                          probability=0.05),
            ],
            seed=seed,
        )

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_ycsb_b_exactly_once_under_faults(self, seed, tmp_path, service):
        # The crypto sanitizer rides along: every (key, IV) pair the
        # storm consumes — across worker respawns too — must be unique.
        journal_dir = str(tmp_path / "crypto-sanitizer")
        sanitizer.enable(journal_dir)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            num_partitions=4,
            mode="processes",
        )
        server = TCPShieldServer(store, service, request_deadline_s=10.0)
        server.start()
        counters = MonotonicCounterService()
        snapshotter = PartitionSnapshotter(counters)
        daemon = SnapshotDaemon(
            lambda: snapshotter.snapshot_bytes(store),
            tmp_path,
            3600.0,
            lock=server.store_lock,
        )
        client = resilient_client(server, service)
        model = {}
        counts = {}
        try:
            # Phase 1 (clean): YCSB preload through the wire.
            stream = OperationStream(RD95_Z, SMALL, self.NUM_PAIRS, seed=seed)
            for op in stream.load_operations():
                client.set(op.key, op.value)
                model[op.key] = op.value

            # Phase 2: checkpoint, then YCSB-B under the scripted plan.
            plan = faults.install(self._chaos_plan(seed))
            daemon.run_once()  # hits the snapshot.write stall
            for i, op in enumerate(stream.operations(self.NUM_OPS)):
                if i % 10 == 0:
                    # Non-idempotent writes are the sharp probe: a retry
                    # that applied twice (or a lost apply) shows up as a
                    # wrong final count, not just a stale value.
                    ctr = b"ctr-%d" % (i % 3)
                    client.increment(ctr)
                    counts[ctr] = counts.get(ctr, 0) + 1
                elif op.op == OP_GET:
                    expected = model[op.key]
                    assert client.get(op.key) == expected
                elif op.op == OP_SET:
                    client.set(op.key, op.value)
                    model[op.key] = op.value

            # Counters while the plan is still active (faults_injected
            # reads the live plan), served over the wire like any op.
            live = client.server_stats()

            # Phase 3: every write observed exactly once.
            for key, value in sorted(model.items()):
                assert client.get(key) == value
            for ctr, count in sorted(counts.items()):
                assert client.get(ctr) == str(count).encode()

            assert client.stats.net_retries >= 1
            assert client.stats.net_reconnects >= 1
            assert live["tamper_drops"] >= 1
            assert live["worker_recoveries"] >= 1
            assert live["degraded_replies"] >= 1
            assert live["faults_injected"] >= 4
            assert plan.fires("shmring.write", "crash") == 1
            assert plan.fires("snapshot.write", "delay") == 1
            assert plan.fires(kind="drop") >= 1
            assert plan.fires(kind="tamper") >= 1
            # The deployment still checkpoints cleanly after the storm.
            faults.uninstall()
            daemon.run_once()
            assert store.partition_state == "ok"
        finally:
            faults.uninstall()
            client.close()
            server.close()
            store.close()
            sanitizer.disable()
        # All journals (parent + spawned workers) merged: no overlap.
        crypto = sanitizer.global_check(journal_dir)
        assert crypto.records > 0
