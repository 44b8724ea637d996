"""Real TCP deployment: attestation handshake, secure session, attacks."""

import socket
import struct
import sys
import threading

import pytest

from repro.core import PartitionedShieldStore, ShieldStore, shield_opt
from repro.core import wal as wal_module
from repro.core.procpool import process_mode_supported
from repro.errors import AttestationError, KeyNotFoundError, StoreError
from repro.net import TCPShieldClient, TCPShieldServer
from repro.net import tcp as tcpmod
from repro.net.message import (
    Request,
    decode_response,
    encode_envelope,
    encode_request,
)
from repro.sim import Attacker, AttestationService
from repro.sim.attestation import _DH_PRIME


@pytest.fixture
def service():
    return AttestationService(b"ias-secret-for-tests")


@pytest.fixture
def server(service):
    store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
    srv = TCPShieldServer(store, service)
    srv.start()
    yield srv
    srv.close()


def connect(server, service, entropy=bytes(range(32)), **kw):
    return TCPShieldClient(
        server.address, service, server.store.enclave.measurement, entropy,
        **kw,
    )


def send_sealed(client, payload):
    """Put one sealed record on the client's socket without reading."""
    frame = client._channel.seal(payload)
    client._sock.sendall(struct.pack("<I", len(frame)) + frame)


class TestEndToEnd:
    def test_operations(self, server, service):
        client = connect(server, service)
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
            assert client.append(b"k", b"!") == b"v!"
            assert client.increment(b"ctr", 3) == 3
            client.delete(b"k")
            with pytest.raises(KeyNotFoundError):
                client.get(b"k")
        finally:
            client.close()

    def test_two_clients(self, server, service):
        a = connect(server, service, bytes(range(32)))
        b = connect(server, service, bytes(range(32, 64)))
        try:
            a.set(b"shared", b"from-a")
            assert b.get(b"shared") == b"from-a"
        finally:
            a.close()
            b.close()


class TestAttestationGate:
    def test_wrong_measurement_rejected(self, server, service):
        with pytest.raises(AttestationError):
            TCPShieldClient(
                server.address, service, bytes(32), bytes(range(32))
            )

    def test_wrong_service_secret_rejected(self, server):
        rogue = AttestationService(b"not-the-real-service")
        with pytest.raises(AttestationError):
            TCPShieldClient(
                server.address,
                rogue,
                server.store.enclave.measurement,
                bytes(range(32)),
            )


    def test_quote_must_bind_the_offered_dh_key(self, service):
        """A validly signed quote whose report data is not the hash of
        the DH key on offer (a swapped key) keys no session."""

        class UnboundQuotes(AttestationService):
            def quote(self, ctx, enclave, report_data):
                return super().quote(ctx, enclave, b"\x00" * 32)

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        server = TCPShieldServer(store, UnboundQuotes(b"ias-secret-for-tests"))
        server.start()
        try:
            with pytest.raises(AttestationError, match="bind"):
                connect(server, service)
        finally:
            server.close()


def raw_handshake_reply(server, *frames):
    """Answer the quote frame with ``frames`` over a bare socket; returns
    what the server sends back (b"" = it closed the connection)."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        quote = tcpmod._recv_frame(sock)
        assert quote is not None and len(quote) == 32 + 32 + 32 + 256
        sock.sendall(b"".join(struct.pack("<I", len(f)) + f for f in frames))
        try:
            return sock.recv(1)
        except ConnectionResetError:
            return b""


class TestHandshakeReplyIsUntrusted:
    """The frame answering the quote arrives before anything is keyed:
    whatever it holds costs that connection, never the event loop."""

    @pytest.mark.parametrize(
        "reply",
        [
            (0).to_bytes(256, "big"),
            (1).to_bytes(256, "big"),
            (_DH_PRIME - 1).to_bytes(256, "big"),
            (2**2048 - 1).to_bytes(256, "big"),
            b"",
            b"\x05",
            (2**64).to_bytes(255, "big"),
            bytes(257),
        ],
        ids=["zero", "one", "p-1", "all-ones", "empty", "one-byte", "short", "long"],
    )
    def test_bad_dh_value_drops_the_connection_only(self, server, service, reply):
        assert raw_handshake_reply(server, reply) == b""
        assert server._loop_thread.is_alive()
        assert server.stats_snapshot().tamper_drops == 1
        client = connect(server, service, max_retries=0)
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
        finally:
            client.close()

    def test_unexpected_handler_exception_is_contained_and_reported(
        self, server, service, monkeypatch
    ):
        # Whatever a handler raises that nobody foresaw is reported like
        # an uncaught thread exception and costs that connection alone.
        reported = []
        monkeypatch.setattr(threading, "excepthook", reported.append)
        bystander = connect(server, service, bytes(range(32, 64)))
        victim = connect(server, service, max_retries=1, backoff_base_s=0.01)
        try:
            bystander.set(b"k", b"v")
            real_open = tcpmod.SecureChannel.open
            armed = [True]

            def exploding_open(channel, sealed):
                if channel.role == "server" and armed[0]:
                    armed[0] = False
                    raise RuntimeError("handler bug")
                return real_open(channel, sealed)

            monkeypatch.setattr(tcpmod.SecureChannel, "open", exploding_open)
            assert victim.get(b"k") == b"v"  # dropped, reconnected, served
            assert victim.stats.net_reconnects == 1
            assert bystander.get(b"k") == b"v"  # same session throughout
            assert bystander.stats.net_reconnects == 0
            assert server._loop_thread.is_alive()
            assert len(reported) == 1
            assert reported[0].exc_type is RuntimeError
            assert reported[0].thread is server._loop_thread
        finally:
            victim.close()
            bystander.close()


class TestPreHandshakeFrames:
    """Before a peer is attested, the only frame it may send is its
    handshake frame; a longer length prefix costs the connection before
    a byte of the body is buffered."""

    def test_oversized_prefix_before_handshake_drops_the_connection(
        self, server
    ):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            assert tcpmod._recv_frame(sock) is not None  # the quote
            try:
                sock.sendall(struct.pack("<I", 60 << 20) + bytes(1 << 20))
            except (BrokenPipeError, ConnectionResetError):
                pass  # already dropped mid-filler
            sock.settimeout(2.0)
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass
        assert server._loop_thread.is_alive()
        assert server.stats_snapshot().tamper_drops == 1

    def test_client_refuses_an_oversized_quote_frame(self, service):
        # A peer posing as the server announces a 60 MiB quote: the
        # client gives up at the prefix instead of waiting to buffer it.
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def pose():
            conn, _ = listener.accept()
            accepted.append(conn)
            conn.sendall(struct.pack("<I", 60 << 20) + bytes(1024))

        poser = threading.Thread(target=pose, daemon=True)
        poser.start()
        try:
            with pytest.raises(StoreError, match="frame too large"):
                TCPShieldClient(
                    listener.getsockname(), service, bytes(32),
                    bytes(range(32)), connect_timeout_s=5.0, max_retries=0,
                )
        finally:
            poser.join(timeout=5)
            for conn in accepted:
                conn.close()
            listener.close()


class TestWireTamper:
    def test_tampered_frame_drops_session_then_recovers(self, server, service):
        """A corrupted frame kills the session, not the deployment.

        The server must drop the session on the unauthenticated record
        (without crashing), count the incident, and admit a fresh
        handshake — which the resilient client performs transparently,
        so the next operation succeeds instead of erroring.
        """
        client = connect(server, service)
        try:
            client.set(b"k", b"v")
            # Hand-craft a corrupted frame on the raw socket.
            from repro.net.message import Request, encode_request

            frame = bytearray(
                client._channel.seal(encode_request(Request("get", b"k")))
            )
            frame[12] ^= 0xFF
            client._sock.sendall(struct.pack("<I", len(frame)) + bytes(frame))
            # The server drops the poisoned session; the client notices,
            # re-attests on a fresh connection, and the read succeeds.
            assert client.get(b"k") == b"v"
            assert client.stats.net_retries >= 1
            assert client.stats.net_reconnects >= 1
            assert server.stats_snapshot().tamper_drops >= 1
        finally:
            client.close()

    def test_tampering_never_yields_wrong_data(self, server, service):
        """Whatever tampering does, it never surfaces as silent corruption."""
        client = connect(server, service)
        try:
            client.set(b"k", b"v")
            from repro.net.message import Request, encode_request

            frame = bytearray(
                client._channel.seal(encode_request(Request("get", b"k")))
            )
            frame[12] ^= 0xFF
            client._sock.sendall(struct.pack("<I", len(frame)) + bytes(frame))
            for _ in range(3):
                assert client.get(b"k") == b"v"
        finally:
            client.close()


    def test_cross_session_records_rejected(self, server, service):
        """A record sealed on A's channel and written to B's socket
        cannot be laundered through B's session: it costs B its
        connection, and A's session never notices."""
        a = connect(server, service, bytes(range(32)), max_retries=0)
        b = connect(server, service, bytes(range(32, 64)), max_retries=0)
        try:
            a.set(b"k", b"from-a")
            drops = server.stats_snapshot().tamper_drops
            frame = a._channel.seal(
                encode_envelope(None, encode_request(Request("get", b"k")))
            )
            a._channel._send_seq -= 1  # the record never went out on A's wire
            b._sock.sendall(struct.pack("<I", len(frame)) + frame)
            assert b._sock.recv(1) == b""  # dropped: EOF, no reply
            assert server.stats_snapshot().tamper_drops == drops + 1
            with pytest.raises(StoreError):
                b.get(b"k")
            assert a.get(b"k") == b"from-a"
            assert a.stats.net_reconnects == 0
        finally:
            a.close()
            b.close()


class TestRunToCompletion:
    """Every engine's requests run to completion on the loop thread."""

    def test_back_to_back_requests_answered_in_order(self, server, service):
        # N sealed requests land in one socket buffer before any reply
        # is read; the loop answers them in FIFO order, and the replies
        # carry consecutive channel sequence numbers (open() rejects
        # anything else).
        client = connect(server, service)
        try:
            count = 32
            for i in range(count):
                client.set(b"k%02d" % i, b"v%02d" % i)
            base = client._channel._recv_seq
            wire = b""
            for i in range(count):
                frame = client._channel.seal(encode_envelope(
                    None, encode_request(Request("get", b"k%02d" % i))
                ))
                wire += struct.pack("<I", len(frame)) + frame
            client._sock.sendall(wire)
            for i in range(count):
                sealed = client._recv()
                assert struct.unpack("<Q", sealed[:8]) == (base + i,)
                reply = decode_response(client._channel.open(sealed))
                assert reply.value == b"v%02d" % i
            assert client.get(b"k00") == b"v00"  # session still in step
        finally:
            client.close()

    def test_bad_payload_and_store_exception_drop_the_connection(
        self, server, service, monkeypatch
    ):
        # The loop maps a request's failure to its connection alone: an
        # authenticated but malformed payload is tampering (counted,
        # session dropped); a store exception drops the session
        # uncounted.  Either way the loop keeps serving.
        client = connect(server, service, max_retries=1, backoff_base_s=0.01)
        try:
            client.set(b"k", b"v")
            send_sealed(client, b"\xff not an envelope")
            assert client.get(b"k") == b"v"  # reconnects after the drop
            assert client.stats.net_reconnects == 1
            assert server.stats_snapshot().tamper_drops == 1

            real_get = server.store.get

            def exploding_get(key):
                if key == b"boom":
                    raise RuntimeError("store bug")
                return real_get(key)

            monkeypatch.setattr(server.store, "get", exploding_get)
            with pytest.raises(StoreError, match="failed after"):
                client.get(b"boom")
            assert client.get(b"k") == b"v"
            assert server.stats_snapshot().tamper_drops == 1
            assert server._loop_thread.is_alive()
        finally:
            client.close()

    def test_in_process_engine_never_touches_an_executor(
        self, server, service, monkeypatch
    ):
        threads = _spy_on_store_calls(monkeypatch, server.store)
        client = connect(server, service)
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
        finally:
            client.close()
        assert threads == [server._loop_thread] * 2

    @pytest.mark.skipif(
        not process_mode_supported(), reason="no multiprocess engine here"
    )
    def test_process_engine_runs_on_the_loop_thread(
        self, service, monkeypatch
    ):
        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            num_partitions=2,
            mode="processes",
        )
        srv = TCPShieldServer(store, service)
        threads = _spy_on_store_calls(monkeypatch, store)
        srv.start()
        client = connect(srv, service)
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
        finally:
            client.close()
            srv.close()
            store.close()
        assert threads == [srv._loop_thread] * 2


def _spy_on_store_calls(monkeypatch, store):
    """Record the thread each ``store.set`` / ``store.get`` runs on."""
    threads = []
    for name in ("set", "get"):
        real = getattr(store, name)

        def spy(*args, _real=real):
            threads.append(threading.current_thread())
            return _real(*args)

        monkeypatch.setattr(store, name, spy)
    return threads


class TestRefusals:
    """A plain ``StoreError`` is the store's deterministic answer: one
    sealed refusal, no retry, no reconnect, and the session serves on."""

    @staticmethod
    def _refused_once(server, client, call, match):
        sock = client._sock
        with pytest.raises(StoreError, match=match) as info:
            call()
        assert "failed after" not in str(info.value)
        assert client.stats.net_retries == 0
        assert client.stats.net_reconnects == 0
        assert server.stats_snapshot().tamper_drops == 0
        assert client._sock is sock  # the same connection

    def test_non_integer_increment_is_refused_once(self, server, service):
        client = connect(server, service)
        try:
            client.set(b"n", b"not-a-number")
            self._refused_once(
                server, client, lambda: client.increment(b"n"), "not an ASCII integer"
            )
            assert server.store.stats.increments == 1  # executed once
            assert client.get(b"n") == b"not-a-number"
            assert client._sock is not None and client.stats.net_reconnects == 0
        finally:
            client.close()

    def test_write_too_large_for_the_log_is_refused_once(
        self, service, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(wal_module, "WAL_BODY", 256)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            mode="sequential",
            num_partitions=1,
            wal_dir=str(tmp_path),
            wal_sync_ms=0.0,
        )
        srv = TCPShieldServer(store, service)
        srv.start()
        client = connect(srv, service)
        try:
            client.set(b"k", b"v")
            self._refused_once(
                srv, client, lambda: client.set(b"big", bytes(300)), "too large for the log"
            )
            assert client.get(b"k") == b"v"
            with pytest.raises(KeyNotFoundError):
                client.get(b"big")
            assert client.stats.net_reconnects == 0
        finally:
            client.close()
            srv.close()
            store.close()

    def test_corrupted_chain_is_no_refusal(self, service):
        """A MAC-bucket node pointed at itself is tampering, not the
        store's answer: the server drops the session, sends no
        refusal, and serves the next session."""
        store = ShieldStore(
            shield_opt(num_buckets=8, num_mac_hashes=8, mac_bucket_capacity=2)
        )
        by_bucket = {}
        for i in range(64):
            key = b"key-%d" % i
            by_bucket.setdefault(
                store.keyring.keyed_bucket_hash(key, store.config.num_buckets), []
            ).append(key)
        bucket, keys = next(item for item in by_bucket.items() if len(item[1]) >= 3)
        store.set(keys[0], b"one")
        store.set(keys[1], b"two")  # fills the bucket's first node
        (node,) = struct.unpack(
            "<Q", store.machine.memory.raw_read(store.buckets.slot_addr(bucket) + 8, 8)
        )
        Attacker(store.machine.memory).write(node + 8, struct.pack("<Q", node))
        other = next(k for b, ks in by_bucket.items() if b != bucket for k in ks)
        store.set(other, b"fine")
        srv = TCPShieldServer(store, service)
        srv.start()
        client = connect(srv, service, max_retries=0)
        try:
            with pytest.raises(StoreError) as info:
                client.get(keys[2])
            assert "refused" not in str(info.value)
            assert "closed the connection" in str(info.value)
            assert client.get(other) == b"fine"  # a new session is served
            assert client.stats.net_reconnects == 1
        finally:
            client.close()
            srv.close()


# The ``stats`` verb's keys, pinned: every store, transport and admission
# counter an operator or a dashboard may already read, and the pool's four
# stage seconds.
_STATS_KEYS = (
    "alloc_ocalls", "alloc_requests", "appends", "batch_ops",
    "batch_set_updates_saved", "batch_sets_verified", "batch_verifications_saved",
    "batches", "busy_retries", "busy_sheds", "cache_hits", "cache_misses",
    "chain_steps", "deadline_drops", "degraded_replies", "deletes",
    "fanout_missed", "faults_injected", "full_searches", "gets", "hint_skips",
    "hits", "idempotent_replays", "increments",
    "inserts", "integrity_checks", "mac_cache_evictions", "mac_cache_hits",
    "mac_cache_misses", "misses", "net_reconnects", "net_retries", "net_timeouts",
    "quorum_failures", "quorum_reads", "quorum_writes", "read_repairs",
    "rejected_connections", "replicated_in", "replicated_out",
    "replication_conflicts", "ring_bytes", "ring_doorbell_rings",
    "ring_doorbell_waits", "ring_frames", "ring_full_waits", "ring_max_occupancy",
    "search_decryptions", "sets", "snapshot_failures", "snapshot_stall_us",
    "snapshots", "stage_crypto_s", "stage_verify_s", "stage_walk_s",
    "sync_keys_repaired", "sync_rounds", "sync_sets_diverged", "tamper_drops",
    "temp_table_merges", "updates", "wal_appends", "wal_fsyncs", "wal_replayed",
    "wal_rotations", "wal_torn_truncated", "worker_ops_lost", "worker_recoveries",
    "worker_ring_doorbell_waits",
) + ("serialize_s", "ipc_wait_s", "worker_compute_s", "worker_cpu_s")


@pytest.mark.skipif(not process_mode_supported(), reason="no multiprocess engine here")
def test_stats_verb_is_one_record_on_every_engine(service):
    """A seeded run served by two in-process partitions and by two shm
    workers: the ``stats`` verb answers the same pinned keys, and the
    same value for every field that only the operations determine."""
    from repro.core import StoreStats

    replies = {}
    for mode, shape in (
        ("sequential", {}),
        ("processes", {"data_plane": "shm"}),
    ):
        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            master_secret=bytes(range(32)), num_partitions=2, mode=mode, **shape,
        )
        srv = TCPShieldServer(store, service)
        srv.start()
        client = connect(srv, service)
        try:
            keys = [b"key-%02d" % i for i in range(40)]
            client.multi_set([(k, b"value-" + k) for k in keys])
            assert client.multi_get(keys[::3])[keys[0]] == b"value-key-00"
            client.set(b"n", b"1")
            client.increment(b"n")
            client.multi_delete(keys[:5] + [b"absent"])
            replies[mode] = client.server_stats()
        finally:
            client.close()
            srv.close()
            store.close()
    for reply in replies.values():
        assert sorted(reply) == sorted(_STATS_KEYS)
    pool = replies["processes"]
    assert pool["ring_frames"] > 0 and pool["worker_compute_s"] > 0
    assert replies["sequential"]["ring_frames"] == 0
    assert replies["sequential"]["gets"] > 0
    same = set(_STATS_KEYS) - StoreStats.varying()
    assert {k: replies["sequential"][k] for k in same} == {k: pool[k] for k in same}


# The Python calls one warm ``get`` of a 128 B value makes into the served
# request path, per side (this revision's count; a regression shows here
# before the benchmark sees it).  The server's count includes the store's
# entry crypto (``crypto/suite.py`` / ``crypto/fast.py``).
_PATH_FILES = ("net/tcp.py", "net/message.py", "reader.py", "crypto/suite.py", "crypto/fast.py")
_CALL_BUDGET = {"client": 25, "server": 35}


class TestPointRoundTripCallBudget:
    def test_one_get_stays_within_its_call_budget(self, service):
        calls = {"client": 0, "server": 0}
        window = threading.Event()
        served = threading.Event()
        reading = [0]

        def counted(frame):
            name = frame.f_code.co_filename.replace("\\", "/")
            return name.endswith(_PATH_FILES)

        def server_profile(frame, event, arg):
            # Only calls made while a request is read and answered; the
            # loop's idle deadline sweeps are not the request's.
            if event == "call":
                if frame.f_code.co_name == "_readable":
                    reading[0] += 1
                if reading[0] and window.is_set() and counted(frame):
                    calls["server"] += 1
            elif event == "return" and frame.f_code.co_name == "_readable":
                reading[0] -= 1
                if window.is_set():
                    served.set()

        def client_profile(frame, event, arg):
            if event == "call" and counted(frame):
                calls["client"] += 1

        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        threading.setprofile(server_profile)
        try:
            srv = TCPShieldServer(store, service)
            srv.start()
        finally:
            threading.setprofile(None)
        client = connect(srv, service)
        try:
            client.set(b"user000000000001", bytes(128))
            assert client.get(b"user000000000001") == bytes(128)  # warm
            window.set()
            sys.setprofile(client_profile)
            try:
                value = client.get(b"user000000000001")
            finally:
                sys.setprofile(None)
            assert served.wait(5.0)
            window.clear()
        finally:
            client.close()
            srv.close()
        assert value == bytes(128)
        for side, budget in _CALL_BUDGET.items():
            assert calls[side] <= budget, (side, calls[side], budget)
