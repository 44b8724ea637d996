"""Adversarial input fuzzing of the wire protocol and secure channel."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ShieldStore, shield_opt
from repro.crypto.suite import make_suite
from repro.errors import ProtocolError
from repro.net import TCPShieldClient, TCPShieldServer
from repro.net.message import (
    ENVELOPE_MAGIC,
    TOKEN_SIZE,
    Request,
    SecureChannel,
    decode_envelope,
    decode_request,
    decode_response,
    encode_envelope,
    encode_request,
)
from repro.sim import AttestationService
from tests.test_net_tcp import raw_handshake_reply

_FUZZ_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def channel_pair(suite_name="fast-hashlib"):
    a = make_suite(suite_name, bytes(16), bytes(range(16)))
    b = make_suite(suite_name, bytes(16), bytes(range(16)))
    return SecureChannel(a, "client"), SecureChannel(b, "server")


# Both record ciphers (the fast suite's XOF, the reference suite's
# AES-CTR) sit under one record layout and must fail the same way.
# Drawn, not pytest-parametrised, so the test ids stay what they were.
_SUITES = st.sampled_from(["fast-hashlib", "aes-reference"])


class TestCodecFuzz:
    @given(raw=st.binary(max_size=256))
    @_FUZZ_SETTINGS
    def test_decode_request_never_crashes_unexpectedly(self, raw):
        """Arbitrary bytes either parse or raise ProtocolError — never
        anything else."""
        try:
            request = decode_request(raw)
            # Whatever parsed must re-encode to the same bytes.
            assert encode_request(request) == raw
        except ProtocolError:
            pass

    @given(raw=st.binary(max_size=256))
    @_FUZZ_SETTINGS
    def test_decode_response_never_crashes_unexpectedly(self, raw):
        try:
            decode_response(raw)
        except ProtocolError:
            pass

    @given(
        op=st.sampled_from(["get", "set", "append", "delete", "increment"]),
        key=st.binary(max_size=64),
        value=st.binary(max_size=128),
    )
    @_FUZZ_SETTINGS
    def test_request_roundtrip_property(self, op, key, value):
        request = Request(op, key, value)
        assert decode_request(encode_request(request)) == request


class TestEnvelopeFuzz:
    """The idempotency-token envelope wrapping mutating requests."""

    @given(raw=st.binary(max_size=256))
    @_FUZZ_SETTINGS
    def test_decode_envelope_never_crashes_unexpectedly(self, raw):
        """Arbitrary bytes either split cleanly or raise ProtocolError."""
        try:
            token, record = decode_envelope(raw)
            if token is None:
                assert record == raw  # bare records pass through verbatim
            else:
                assert len(token) == TOKEN_SIZE
                assert bytes([ENVELOPE_MAGIC]) + token + record == raw
        except ProtocolError:
            pass

    @given(
        token=st.binary(min_size=TOKEN_SIZE, max_size=TOKEN_SIZE),
        op=st.sampled_from(["get", "set", "append", "delete", "increment"]),
        key=st.binary(max_size=64),
        value=st.binary(max_size=128),
    )
    @_FUZZ_SETTINGS
    def test_envelope_roundtrip_property(self, token, op, key, value):
        record = encode_request(Request(op, key, value))
        got_token, got_record = decode_envelope(encode_envelope(token, record))
        assert got_token == token
        assert got_record == record

    @given(
        token=st.binary(min_size=TOKEN_SIZE, max_size=TOKEN_SIZE),
        key=st.binary(max_size=32),
        position=st.integers(min_value=0, max_value=TOKEN_SIZE - 1),
        flip=st.integers(min_value=1, max_value=255),
    )
    @_FUZZ_SETTINGS
    def test_corrupted_token_is_a_different_token_or_rejected(
        self, token, key, position, flip
    ):
        """Flipping token bytes never bleeds into the request record.

        Server-side dedup keys on the token, so a corrupted token must
        either surface as a *different* token (a cache miss — the write
        re-executes, which is safe) or fail parsing — never as the same
        token paired with altered request bytes.
        """
        record = encode_request(Request("set", key, b"v"))
        wire = bytearray(encode_envelope(token, record))
        wire[1 + position] ^= flip
        try:
            got_token, got_record = decode_envelope(bytes(wire))
        except ProtocolError:
            return
        assert got_token != token
        assert got_record == record

    @given(record=st.binary(max_size=128))
    @_FUZZ_SETTINGS
    def test_bare_record_survives_unless_it_collides_with_magic(self, record):
        try:
            token, out = decode_envelope(encode_envelope(None, record))
        except ProtocolError:
            # Only reachable when the bare record itself starts with the
            # envelope magic; real request records never do (opcodes are
            # all < 0x40).
            assert record[:1] == bytes([ENVELOPE_MAGIC])
            return
        if record[:1] != bytes([ENVELOPE_MAGIC]):
            assert token is None and out == record


class TestChannelFuzz:
    @given(suite_name=_SUITES, garbage=st.binary(max_size=200))
    @_FUZZ_SETTINGS
    def test_open_rejects_garbage(self, suite_name, garbage):
        _client, server = channel_pair(suite_name)
        with pytest.raises(ProtocolError):
            server.open(garbage)

    @given(
        suite_name=_SUITES,
        payload=st.binary(min_size=1, max_size=64),
        position=st.integers(min_value=0, max_value=10_000),
        flip=st.integers(min_value=1, max_value=255),
    )
    @_FUZZ_SETTINGS
    def test_any_single_byte_corruption_detected(
        self, suite_name, payload, position, flip
    ):
        client, server = channel_pair(suite_name)
        sealed = bytearray(client.seal(payload))
        sealed[position % len(sealed)] ^= flip
        with pytest.raises(ProtocolError):
            server.open(bytes(sealed))

    @given(
        suite_name=_SUITES,
        payloads=st.lists(st.binary(max_size=32), min_size=1, max_size=10),
    )
    @_FUZZ_SETTINGS
    def test_in_order_stream_always_accepted(self, suite_name, payloads):
        client, server = channel_pair(suite_name)
        for payload in payloads:
            assert server.open(client.seal(payload)) == payload

    @given(
        suite_name=_SUITES,
        payloads=st.lists(st.binary(max_size=32), min_size=1, max_size=6),
        data=st.data(),
    )
    @_FUZZ_SETTINGS
    def test_replayed_record_rejected(self, suite_name, payloads, data):
        client, server = channel_pair(suite_name)
        sealed = [client.seal(payload) for payload in payloads]
        for record in sealed:
            server.open(record)
        replayed = data.draw(st.sampled_from(sealed))
        with pytest.raises(ProtocolError):
            server.open(replayed)

    @given(
        suite_name=_SUITES,
        payloads=st.lists(st.binary(max_size=32), min_size=2, max_size=6),
        data=st.data(),
    )
    @_FUZZ_SETTINGS
    def test_reordered_record_rejected(self, suite_name, payloads, data):
        client, server = channel_pair(suite_name)
        sealed = [client.seal(payload) for payload in payloads]
        early = data.draw(st.integers(min_value=1, max_value=len(sealed) - 1))
        with pytest.raises(ProtocolError):
            server.open(sealed[early])  # arrives before its predecessors
        assert server.open(sealed[0]) == payloads[0]  # the stream is intact


class TestHandshakeFuzz:
    """Arbitrary bytes as the reply to the quote frame — the one frame a
    live server parses before any key exists — never kill its loop."""

    @pytest.fixture(scope="class")
    def live_server(self):
        service = AttestationService(b"ias-secret-for-tests")
        server = TCPShieldServer(
            ShieldStore(shield_opt(num_buckets=64, num_mac_hashes=32)), service
        )
        server.start()
        yield server, service
        server.close()

    @given(
        reply=st.one_of(
            st.binary(max_size=300),
            st.binary(min_size=256, max_size=256),
            st.sampled_from([bytes(256), b"\xff" * 256, bytes(255) + b"\x01"]),
        )
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_arbitrary_handshake_reply_never_kills_the_loop(
        self, live_server, reply
    ):
        server, service = live_server
        # A second frame rides along: with a handshake that "worked" it
        # is an unauthenticated record, with one that did not it lands
        # on a dropped connection.  Either way: closed.
        assert raw_handshake_reply(server, reply, bytes(24)) == b""
        assert server._loop_thread.is_alive()
        client = TCPShieldClient(
            server.address, service, server.store.enclave.measurement,
            bytes(range(32)), max_retries=0,
        )
        try:
            client.set(b"k", b"v")
            assert client.get(b"k") == b"v"
        finally:
            client.close()
