"""Real TCP deployment: attestation handshake, secure session, attacks."""

import socket
import struct
import threading

import pytest

from repro.core import PartitionedShieldStore, ShieldStore, shield_opt
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
from repro.sim import AttestationService
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
    """Who executes a request: the loop (in-process) or the executor."""

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
        # The inline path maps failures exactly as the executor path
        # does: an authenticated but malformed payload is tampering
        # (counted, session dropped); a store exception drops the
        # session uncounted.  Either way the loop keeps serving.
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
        submits = _spy_on_submits(monkeypatch)
        client = connect(server, service)
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
        finally:
            client.close()
        assert submits == []
        assert server._executor is None

    @pytest.mark.skipif(
        not process_mode_supported(), reason="no multiprocess engine here"
    )
    def test_process_engine_keeps_the_concurrent_executor(
        self, service, monkeypatch
    ):
        submits = _spy_on_submits(monkeypatch)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=32),
            num_partitions=2,
            mode="processes",
        )
        srv = TCPShieldServer(store, service)
        # Hold every request inside the store until two are in flight
        # at once: only concurrent executor threads can get there.
        both_inside = threading.Barrier(2, timeout=10)
        real_get = store.get

        def rendezvous_get(key):
            both_inside.wait()
            return real_get(key)

        srv.start()
        a = connect(srv, service, bytes(range(32)))
        b = connect(srv, service, bytes(range(32, 64)))
        try:
            a.set(b"k", b"v")
            monkeypatch.setattr(store, "get", rendezvous_get)
            results = []
            threads = [
                threading.Thread(target=lambda c=c: results.append(c.get(b"k")))
                for c in (a, b)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            assert results == [b"v", b"v"]
            assert len(submits) >= 3
        finally:
            a.close()
            b.close()
            srv.close()
            store.close()


def _spy_on_submits(monkeypatch):
    """Record every ``submit`` on an executor ``net.tcp`` creates."""
    submits = []

    class SpyExecutor(tcpmod.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submits.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(tcpmod, "ThreadPoolExecutor", SpyExecutor)
    return submits
