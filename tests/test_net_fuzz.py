"""Adversarial input fuzzing of the wire protocol and secure channel."""

import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import ShieldStore, shield_opt
from repro.crypto.suite import make_suite
from repro.errors import ProtocolError
from repro.ext.replication import (
    decode_sync_set,
    encode_sync_set,
    pack_record,
    unpack_record,
)
from repro.net import TCPShieldClient, TCPShieldServer
from repro.net.message import (
    ENVELOPE_MAGIC,
    TOKEN_SIZE,
    Request,
    SecureChannel,
    decode_cas_value,
    decode_envelope,
    decode_multi_items,
    decode_multi_keys,
    decode_multi_values,
    decode_request,
    decode_response,
    encode_cas_value,
    encode_envelope,
    encode_multi_items,
    encode_multi_keys,
    encode_multi_values,
    encode_request,
)
from repro.reader import BATCH_COUNT
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


_BYTES = st.binary(max_size=24)
_ITEMS = st.lists(st.tuples(_BYTES, _BYTES), max_size=6)


@st.composite
def _damaged(draw, encoded):
    """A valid encoding, then at most one hostile edit: a flipped byte,
    a cut, extra bytes, or a u32 field overwritten with a drawn count."""
    raw = bytearray(draw(encoded))
    edit = draw(st.sampled_from(["none", "flip", "cut", "extend", "u32"]))
    where = draw(st.integers(min_value=0, max_value=max(0, len(raw) - 1)))
    if edit == "flip" and raw:
        raw[where] ^= draw(st.integers(min_value=1, max_value=255))
    elif edit == "cut":
        del raw[where:]
    elif edit == "extend":
        raw += draw(st.binary(min_size=1, max_size=8))
    elif edit == "u32" and len(raw) >= 4:
        where = min(where, len(raw) - 4)
        count = draw(st.sampled_from([0, 1, 2, BATCH_COUNT, BATCH_COUNT + 1, 2**32 - 1]))
        raw[where : where + 4] = struct.pack("<I", count)
    return bytes(raw)


def _canonical(decode, encode, raw):
    """``raw`` is refused with ProtocolError, or re-encodes to itself."""
    try:
        parsed = decode(raw)
    except ProtocolError:
        return
    assert encode(*parsed) == raw


class TestBatchFieldFuzz:
    """The MGET / MSET / MDELETE value fields: a parse is canonical."""

    @given(raw=_damaged(st.lists(_BYTES, max_size=8).map(encode_multi_keys)))
    @_FUZZ_SETTINGS
    def test_key_field(self, raw):
        _canonical(lambda r: (decode_multi_keys(r),), encode_multi_keys, raw)

    @given(raw=_damaged(_ITEMS.map(encode_multi_items)))
    @_FUZZ_SETTINGS
    def test_item_field(self, raw):
        _canonical(lambda r: (decode_multi_items(r),), encode_multi_items, raw)

    @given(
        raw=_damaged(
            st.lists(st.one_of(st.none(), _BYTES), max_size=8).map(encode_multi_values)
        )
    )
    @example(raw=struct.pack("<IBI", 1, 2, 0))  # an unknown flag
    @example(raw=struct.pack("<IBI", 1, 1, 3) + b"abc")  # a miss with bytes
    @_FUZZ_SETTINGS
    def test_value_field(self, raw):
        _canonical(lambda r: (decode_multi_values(r),), encode_multi_values, raw)

    @pytest.mark.parametrize(
        "decode, entry",
        [
            (decode_multi_keys, struct.pack("<I", 0)),
            (decode_multi_items, struct.pack("<II", 0, 0)),
            (decode_multi_values, struct.pack("<BI", 1, 0)),
        ],
        ids=["keys", "items", "values"],
    )
    def test_a_claimed_count_costs_only_what_arrived(self, decode, entry):
        """A count of 2**20 over 200 entries allocates for what arrived,
        not for what the count claims; one more is refused outright."""
        raw = struct.pack("<I", BATCH_COUNT) + entry * 200
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="truncated"):
                decode(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * len(raw)
        with pytest.raises(ProtocolError, match="too large"):
            decode(struct.pack("<I", BATCH_COUNT + 1) + entry)


class TestRecordFieldFuzz:
    """The CAS value field, the versioned record and the sync set payload."""

    @given(raw=_damaged(st.tuples(_BYTES, _BYTES).map(lambda p: encode_cas_value(*p))))
    @_FUZZ_SETTINGS
    def test_cas_field(self, raw):
        _canonical(decode_cas_value, encode_cas_value, raw)

    @given(
        raw=_damaged(
            st.tuples(
                st.integers(0, 255), st.integers(0, 2**64 - 1),
                st.integers(0, 2**64 - 1), _BYTES,
            ).map(lambda r: pack_record(*r))
        )
    )
    @_FUZZ_SETTINGS
    def test_versioned_record(self, raw):
        _canonical(unpack_record, pack_record, raw)

    @given(
        raw=_damaged(
            st.tuples(st.integers(0, 2**32 - 1), _ITEMS).map(lambda p: encode_sync_set(*p))
        )
    )
    @_FUZZ_SETTINGS
    def test_sync_set_payload(self, raw):
        _canonical(decode_sync_set, encode_sync_set, raw)


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
