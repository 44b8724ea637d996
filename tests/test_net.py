"""Wire protocol, secure channels, and the simulated networked server."""

import pytest

from repro.core import ShieldStore, shield_opt
from repro.crypto.suite import make_suite
from repro.errors import ProtocolError
from repro.net import (
    STATUS_MISS,
    STATUS_OK,
    FRONTEND_DIRECT,
    FRONTEND_HOTCALLS,
    FRONTEND_OCALL,
    NetworkedServer,
    Request,
    Response,
    SecureChannel,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    make_secure_channels,
)


def suite_pair():
    a = make_suite("fast-hashlib", bytes(16), bytes(range(16)))
    b = make_suite("fast-hashlib", bytes(16), bytes(range(16)))
    return a, b


class TestCodec:
    def test_request_roundtrip(self):
        for op in ("get", "set", "append", "delete", "increment"):
            request = Request(op, b"the-key", b"the-value")
            assert decode_request(encode_request(request)) == request

    def test_response_roundtrip(self):
        response = Response(0, b"payload")
        assert decode_response(encode_response(response)) == response

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request(Request("explode", b"k"))

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b"")
        with pytest.raises(ProtocolError):
            decode_request(bytes(9) + b"extra-that-does-not-match-lengths")
        with pytest.raises(ProtocolError):
            decode_response(b"")


class TestSecureChannel:
    def test_seal_open(self):
        sa, sb = suite_pair()
        client = SecureChannel(sa, "client")
        server = SecureChannel(sb, "server")
        sealed = client.seal(b"request-1")
        assert b"request-1" not in sealed
        assert server.open(sealed) == b"request-1"
        back = server.seal(b"response-1")
        assert client.open(back) == b"response-1"

    def test_replay_rejected(self):
        sa, sb = suite_pair()
        client, server = SecureChannel(sa, "client"), SecureChannel(sb, "server")
        sealed = client.seal(b"pay $10")
        server.open(sealed)
        with pytest.raises(ProtocolError):
            server.open(sealed)  # same sequence again

    def test_reorder_rejected(self):
        sa, sb = suite_pair()
        client, server = SecureChannel(sa, "client"), SecureChannel(sb, "server")
        first = client.seal(b"one")
        second = client.seal(b"two")
        with pytest.raises(ProtocolError):
            server.open(second)

    def test_tamper_rejected(self):
        sa, sb = suite_pair()
        client, server = SecureChannel(sa, "client"), SecureChannel(sb, "server")
        sealed = bytearray(client.seal(b"data"))
        sealed[10] ^= 1
        with pytest.raises(ProtocolError):
            server.open(bytes(sealed))

    def test_directions_use_distinct_keystreams(self):
        sa, sb = suite_pair()
        client, server = SecureChannel(sa, "client"), SecureChannel(sb, "server")
        c2s = client.seal(b"same-plaintext!!")
        s2c = server.seal(b"same-plaintext!!")
        assert c2s[8:-16] != s2c[8:-16]

    def test_unknown_role(self):
        sa, _ = suite_pair()
        with pytest.raises(ProtocolError):
            SecureChannel(sa, "eavesdropper")


class TestNetworkedServer:
    def make_server(self, frontend, secured=True):
        store = ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32))
        if secured:
            cch, sch = make_secure_channels(*suite_pair())
            server = NetworkedServer(
                store, frontend=frontend, server_channel=sch, client_channel=cch
            )
        else:
            server = NetworkedServer(store, frontend=frontend)
        return server

    @pytest.mark.parametrize("frontend", [FRONTEND_OCALL, FRONTEND_HOTCALLS])
    def test_full_op_surface(self, frontend):
        handle = self.make_server(frontend).handle
        assert handle(Request("set", b"k", b"v")).status == STATUS_OK
        assert handle(Request("get", b"k")).value == b"v"
        assert handle(Request("append", b"k", b"!")).value == b"v!"
        assert handle(Request("increment", b"n", b"41")).value == b"41"
        assert handle(Request("increment", b"n", b"1")).value == b"42"
        assert handle(Request("delete", b"k")).status == STATUS_OK
        assert handle(Request("get", b"k")).status == STATUS_MISS

    def test_direct_frontend_unsecured(self):
        handle = self.make_server(FRONTEND_DIRECT, secured=False).handle
        assert handle(Request("set", b"k", b"v")).status == STATUS_OK
        assert handle(Request("get", b"k")).value == b"v"

    def test_hotcalls_cheaper_than_ocalls(self):
        def cost(frontend):
            server = self.make_server(frontend)
            server.handle(Request("set", b"k", b"v" * 64))
            server.machine.reset_measurement()
            for _ in range(50):
                server.handle(Request("get", b"k"))
            return server.machine.elapsed_us()

        assert cost(FRONTEND_HOTCALLS) < cost(FRONTEND_OCALL)

    def test_secure_session_costs_more_than_plain(self):
        def cost(secured):
            server = self.make_server(FRONTEND_HOTCALLS, secured=secured)
            server.handle(Request("set", b"k", b"v" * 64))
            server.machine.reset_measurement()
            for _ in range(50):
                server.handle(Request("get", b"k"))
            return server.machine.elapsed_us()

        assert cost(True) > cost(False)

    def test_unknown_frontend(self):
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        with pytest.raises(ProtocolError):
            NetworkedServer(store, frontend="carrier-pigeon")
