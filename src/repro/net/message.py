"""Wire protocol between clients and the key-value server.

Plaintext request/response records::

    request:  op(1) | key_len(4) | val_len(4) | key | value
    response: status(1) | val_len(4) | value

When the session is secure (§3.2), the record is wrapped as::

    seq(8) | ciphertext | mac(16)

with the sequence number bound into the MAC, so replayed or reordered
requests are rejected (:class:`~repro.errors.ProtocolError`).  The
ciphertext is the suite's *record mode* (``encrypt_record`` /
``decrypt_record``, see :mod:`repro.crypto.suite`): a session record is
ephemeral — it dies with its session key and nothing pins or persists
its bytes — so the fast suite encrypts it with one XOF call per record
instead of the entry cipher's one hash call per 32 bytes.  Both ends of
a channel must run the same build; there is no negotiation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.suite import MAC_SIZE, CipherSuite
from repro.errors import ProtocolError
from repro.reader import BATCH_COUNT, U32, U64, Reader
from repro.sim import faults

OP_CODES = {
    "get": 1,
    "set": 2,
    "append": 3,
    "delete": 4,
    "increment": 5,
    "cas": 6,
    # Pipelined batch operations: one wire record carries many keyed
    # operations, so the per-request network, crossing, and session
    # crypto costs are paid once per batch.
    "mget": 7,
    "mset": 8,
    "mdelete": 9,
    # Introspection: the TCP server answers with its merged StoreStats
    # (JSON) so ``repro stats --connect`` can read a live deployment.
    "stats": 10,
    # Replication group (repro.ext.replication): versioned reads, peer
    # record push (OP_REPLICATE), and the anti-entropy digest/set
    # exchange (OP_SYNC).  All flow inside the same attested sealed
    # sessions as client traffic.
    "vget": 11,
    "replicate": 12,
    "sync": 13,
}
OP_NAMES = {v: k for k, v in OP_CODES.items()}
BATCH_OPS = frozenset({"mget", "mset", "mdelete"})
# Ops that change the store — the one copy.  The TCP client stamps them
# with idempotency tokens so the server can deduplicate retries (reads
# are naturally idempotent), the process pool counts them toward a
# worker's loss bound, and WAL replay rejects any frame outside the set.
MUTATING_OPS = frozenset(
    {"set", "delete", "append", "increment", "cas", "mset", "mdelete",
     # Replication pushes are strictly-LWW idempotent already, but the
     # token costs nothing and keeps retry dedup uniform.
     "replicate"}
)

STATUS_OK = 0
STATUS_MISS = 1
STATUS_ERROR = 2
# Load shed: the server is at its admission limits and refused to queue
# the request.  Sealed like every reply (a host observer cannot tell
# shed from served), retryable with backoff, never cached.
STATUS_BUSY = 3

_REQUEST = struct.Struct("<BII")
_RESPONSE = struct.Struct("<BI")


@dataclass
class Request:
    """One decoded client request."""

    op: str
    key: bytes
    value: bytes = b""


@dataclass
class Response:
    """One decoded server response."""

    status: int
    value: bytes = b""


def encode_request(request: Request) -> bytes:
    """Serialize a request record (plaintext form)."""
    try:
        code = OP_CODES[request.op]
    except KeyError:
        raise ProtocolError(f"unknown operation {request.op!r}") from None
    return (
        struct.pack("<BII", code, len(request.key), len(request.value))
        + request.key
        + request.value
    )


def decode_request(raw: bytes) -> Request:
    """Parse a request record; raises :class:`ProtocolError` when bad."""
    reader = Reader(raw, ProtocolError, "request record")
    code, klen, vlen = reader.unpack(_REQUEST)
    if code not in OP_NAMES:
        raise ProtocolError(f"unknown opcode {code}")
    key, value = reader.take(klen), reader.take(vlen)
    reader.end()
    return Request(OP_NAMES[code], key, value)


def encode_response(response: Response) -> bytes:
    """Serialize a response record (plaintext form)."""
    return _RESPONSE.pack(response.status, len(response.value)) + response.value


def decode_response(raw: bytes) -> Response:
    """Parse a response record."""
    reader = Reader(raw, ProtocolError, "response record")
    status, vlen = reader.unpack(_RESPONSE)
    value = reader.take(vlen)
    reader.end()
    return Response(status, value)


# -- idempotency envelope -----------------------------------------------------
#
# A retried write must apply exactly once even when the first attempt's
# reply was lost, so the TCP client wraps mutating requests in a sealed
# envelope carrying a per-request idempotency token::
#
#     envelope: 0xE1 | token(16) | request record
#
# The magic byte can never collide with a bare request record, whose
# first byte is an opcode (all < 0x40), so the server accepts both forms
# and legacy clients keep working.
ENVELOPE_MAGIC = 0xE1
TOKEN_SIZE = 16


def encode_envelope(token: Optional[bytes], record: bytes) -> bytes:
    """Prepend an idempotency token to a request record (None = bare)."""
    if token is None:
        return record
    if len(token) != TOKEN_SIZE:
        raise ProtocolError(f"idempotency token must be {TOKEN_SIZE} bytes")
    return bytes([ENVELOPE_MAGIC]) + token + record


def decode_envelope(raw: bytes) -> Tuple[Optional[bytes], bytes]:
    """Split a sealed payload into (token or None, request record)."""
    if not raw or raw[0] != ENVELOPE_MAGIC:
        return None, raw
    reader = Reader(raw, ProtocolError, "enveloped request")
    return reader.take(1 + TOKEN_SIZE)[1:], reader.rest()


def encode_cas_value(expected: bytes, new_value: bytes) -> bytes:
    """Pack a CAS request's (expected, new) pair into the value field."""
    return struct.pack("<I", len(expected)) + expected + new_value


def decode_cas_value(value: bytes):
    """Unpack a CAS value field; raises :class:`ProtocolError` when bad."""
    reader = Reader(value, ProtocolError, "CAS value field")
    return reader.take(reader.u32()), reader.rest()


# -- pipelined batch payloads (MGET / MSET / MDELETE) -------------------------
#
# A batch request/response travels in the ``value`` field of one protocol
# record:
#
#     keys:   count(4) | ( key_len(4)  | key )*
#     items:  count(4) | ( key_len(4)  | val_len(4) | key | value )*
#     values: count(4) | ( flag(1)     | val_len(4) | value )*      flag 0=hit
#
_ITEM = struct.Struct("<II")
_VALUE = struct.Struct("<BI")
_HIT, _MISS = 0, 1


def encode_multi_keys(keys) -> bytes:
    """Pack a key list into a batch request's value field."""
    keys = [bytes(key) for key in keys]
    parts = [U32.pack(len(keys))]
    for key in keys:
        parts.append(U32.pack(len(key)) + key)
    return b"".join(parts)


def decode_multi_keys(value: bytes) -> list:
    """Unpack a batch key list; raises :class:`ProtocolError` when bad."""
    reader = Reader(value, ProtocolError, "batch key field")
    take, unpack = reader.take, reader.unpack
    keys = [take(unpack(U32)[0]) for _ in range(reader.length(BATCH_COUNT))]
    reader.end()
    return keys


def encode_multi_items(items) -> bytes:
    """Pack ``(key, value)`` pairs into an MSET request's value field."""
    if isinstance(items, dict):
        items = items.items()
    pairs = [(bytes(key), bytes(value)) for key, value in items]
    parts = [U32.pack(len(pairs))]
    for key, value in pairs:
        parts.append(_ITEM.pack(len(key), len(value)) + key + value)
    return b"".join(parts)


def decode_multi_items(value: bytes) -> list:
    """Unpack MSET pairs; raises :class:`ProtocolError` when bad."""
    reader = Reader(value, ProtocolError, "batch item field")
    take, unpack = reader.take, reader.unpack
    items = []
    for _ in range(reader.length(BATCH_COUNT)):
        klen, vlen = unpack(_ITEM)
        items.append((take(klen), take(vlen)))
    reader.end()
    return items


def encode_multi_values(values) -> bytes:
    """Pack per-key results (``None`` = miss) into a response value field."""
    parts = [U32.pack(len(values))]
    for value in values:
        if value is None:
            parts.append(_VALUE.pack(_MISS, 0))
        else:
            value = bytes(value)
            parts.append(_VALUE.pack(_HIT, len(value)) + value)
    return b"".join(parts)


def decode_multi_values(value: bytes) -> list:
    """Unpack per-key results; misses come back as ``None``.

    Only the two records the encoder writes parse: a hit (flag 0) and
    an empty miss (flag 1, length 0).
    """
    reader = Reader(value, ProtocolError, "batch value field")
    take, unpack = reader.take, reader.unpack
    values = []
    for _ in range(reader.length(BATCH_COUNT)):
        flag, vlen = unpack(_VALUE)
        if flag == _HIT:
            values.append(take(vlen))
        elif flag == _MISS and vlen == 0:
            values.append(None)
        else:
            raise ProtocolError(f"batch value record has flag {flag}, length {vlen}")
    reader.end()
    return values


def batch_result(op: str, keys, value: bytes):
    """What a batch verb hands its caller, from the reply's value field.

    ``{key: value-or-None}`` for ``mget``, ``{key: was_present}`` for
    ``mdelete``, ``None`` for ``mset``.
    """
    if op == "mset":
        return None
    values = decode_multi_values(value)
    if op == "mget":
        return dict(zip(keys, values))
    return {key: flag is not None for key, flag in zip(keys, values)}


class StoreVerbs:
    """The store API spoken over the wire: nine methods over one ``_call``.

    The only client-side copy of the wire-verb <-> store-API mapping
    (``net.server.STORE_VERBS`` is its server-side inverse).  A subclass
    supplies the transport: ``_call(op, key, value)`` returns the
    reply's value field and raises
    :class:`~repro.errors.KeyNotFoundError` on ``STATUS_MISS``.
    """

    def _call(self, op: str, key: bytes, value: bytes = b"") -> bytes:
        raise NotImplementedError

    def get(self, key: bytes) -> bytes:
        return self._call("get", key)

    def set(self, key: bytes, value: bytes) -> None:
        self._call("set", key, value)

    def append(self, key: bytes, suffix: bytes) -> bytes:
        return self._call("append", key, suffix)

    def delete(self, key: bytes) -> None:
        self._call("delete", key)

    def increment(self, key: bytes, delta: int = 1) -> int:
        return int(self._call("increment", key, str(delta).encode()))

    def compare_and_swap(self, key: bytes, expected: bytes, new_value: bytes) -> bool:
        return self._call("cas", key, encode_cas_value(expected, new_value)) == b"1"

    def multi_get(self, keys) -> dict:
        """Pipelined MGET: many keys, one record; misses map to ``None``."""
        keys = [bytes(key) for key in keys]
        return batch_result(
            "mget", keys, self._call("mget", b"", encode_multi_keys(keys))
        )

    def multi_set(self, items) -> None:
        """Pipelined MSET: many ``(key, value)`` pairs, one record."""
        self._call("mset", b"", encode_multi_items(items))

    def multi_delete(self, keys) -> dict:
        """Pipelined MDELETE; returns ``{key: was_present}``."""
        keys = [bytes(key) for key in keys]
        return batch_result(
            "mdelete", keys, self._call("mdelete", b"", encode_multi_keys(keys))
        )


class SecureChannel:
    """One endpoint of an authenticated session.

    ``role`` fixes the IV domain per direction so the client->server and
    server->client streams never reuse a (key, IV) pair.  Each endpoint
    keeps independent send/receive sequence counters; a mismatch
    (replay, reorder, truncation) fails authentication.
    """

    _DIRECTIONS = {"client": (0xC25, 0x52C), "server": (0x52C, 0xC25)}

    def __init__(self, suite: CipherSuite, role: str):
        if role not in self._DIRECTIONS:
            raise ProtocolError(f"unknown channel role {role!r}")
        self.suite = suite
        self.role = role
        self._send_domain, self._recv_domain = self._DIRECTIONS[role]
        self._seal_point = f"channel.{role}.seal"
        self._open_point = f"channel.{role}.open"
        self._send_seq = 0
        self._recv_seq = 0

    @staticmethod
    def _iv_for(seq: int, domain: int) -> bytes:
        return struct.pack("<QQ", seq, domain)

    def seal(self, plaintext: bytes) -> bytes:
        """Encrypt + MAC one record under the next send sequence."""
        seq = self._send_seq
        self._send_seq += 1
        header = struct.pack("<Q", seq)
        ciphertext = self.suite.encrypt_record(
            self._iv_for(seq, self._send_domain), plaintext
        )
        tag = self.suite.mac(header + ciphertext)
        sealed = header + ciphertext + tag
        # Scripted corruption of the sealed record; a codec has nothing
        # to drop, so a drop hit proceeds.
        return faults.cross(self._seal_point, sealed) or sealed

    def open(self, sealed: bytes) -> bytes:
        """Verify + decrypt one record; enforces sequence monotonicity."""
        # Scripted corruption before authentication.
        sealed = faults.cross(self._open_point, sealed) or sealed
        reader = Reader(sealed, ProtocolError, "sealed record")
        (seq,) = reader.unpack(U64)
        ciphertext = reader.take(len(sealed) - U64.size - MAC_SIZE)
        tag = reader.rest()
        if seq != self._recv_seq:
            raise ProtocolError(
                f"sequence mismatch: expected {self._recv_seq}, got {seq} "
                "(replayed or dropped record)"
            )
        if not self.suite.verify(sealed[:-MAC_SIZE], tag):
            raise ProtocolError("record failed authentication")
        self._recv_seq += 1
        return self.suite.decrypt_record(
            self._iv_for(seq, self._recv_domain), ciphertext
        )
