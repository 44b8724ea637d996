"""Data-entry codec: the byte layout of Figure 5.

Each key-value pair lives in untrusted memory as one contiguous record::

    offset  size  field       protection
    0       8     next_ptr    plaintext (untrusted chain metadata, §7)
    8       1     key_hint    plaintext keyed hash of the key (§5.4)
    9       4     key_size    plaintext (per Fig. 5)
    13      4     val_size    plaintext
    17      16    iv_ctr      plaintext combined IV/counter (§4.2)
    33      k+v   enc_kv      AES-CTR ciphertext of key || value
    33+k+v  16    mac         CMAC binding enc_kv, sizes, hint, iv_ctr

The MAC input follows §4.2 exactly: "encrypted key/value, key/value
sizes, key-index, and IV/counter".  The ``next_ptr`` is deliberately NOT
covered — it is availability-only metadata an attacker may corrupt
without compromising confidentiality or integrity (§7); relocating an
entry to another bucket is caught by the bucket-set MAC hashes instead.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple, Tuple

from repro.errors import StoreError

HEADER_SIZE = 33
MAC_SIZE = 16
IV_SIZE = 16

# Record offset of a byte guaranteed to sit inside ``enc_kv`` for any
# key of >= 3 bytes.  Tamper probes (tests, demos, the worker OP_TAMPER
# frame) flip a bit here to prove integrity detection; deriving it from
# the layout keeps the probes on ciphertext if the header ever changes.
TAMPER_PROBE_OFFSET = HEADER_SIZE + 2

_HEADER = struct.Struct("<QBII16s")
assert _HEADER.size == HEADER_SIZE
# What the entry MAC covers after ``enc_kv``: sizes, key hint, IV/counter.
_MAC_TRAILER = struct.Struct("<IIB16s")


class EntryHeader(NamedTuple):
    """Parsed plaintext header of one data entry."""

    next_ptr: int
    key_hint: int
    key_size: int
    val_size: int
    iv_ctr: bytes

    @property
    def kv_size(self) -> int:
        return self.key_size + self.val_size

    @property
    def total_size(self) -> int:
        return HEADER_SIZE + self.kv_size + MAC_SIZE


def mac_span(index: int) -> slice:
    """Where MAC ``index`` sits in a bucket's contiguous MAC blob (§5.2).

    A bucket's MACs travel as the bytes they are stored as — node body to
    set-hash message to MAC cache — so MAC *i* is this one span of the
    blob, and replacing or removing it is a :func:`mac_splice`.
    """
    return slice(index * MAC_SIZE, (index + 1) * MAC_SIZE)


def mac_splice(blob: bytes, index: int, mac: bytes = b"") -> bytes:
    """``blob`` with MAC ``index`` replaced by ``mac`` (removed when empty)."""
    span = mac_span(index)
    return blob[: span.start] + mac + blob[span.stop :]


def entry_total_size(key_size: int, val_size: int) -> int:
    """Bytes one entry occupies in untrusted memory."""
    return HEADER_SIZE + key_size + val_size + MAC_SIZE


def pack_header(header: EntryHeader) -> bytes:
    """Serialize a header to its 33-byte wire form."""
    if not 0 <= header.key_hint <= 0xFF:
        raise StoreError("key hint must fit one byte")
    if len(header.iv_ctr) != IV_SIZE:
        raise StoreError(f"IV/counter must be {IV_SIZE} bytes")
    return _HEADER.pack(
        header.next_ptr,
        header.key_hint,
        header.key_size,
        header.val_size,
        header.iv_ctr,
    )


# The five :class:`EntryHeader` fields as the plain tuple 33 header bytes
# unpack to (an ``EntryHeader`` is one too): the chain walk unpacks them
# where it uses them instead of wrapping every header it passes.
HeaderFields = Tuple[int, int, int, int, bytes]
unpack_header_fields: Callable[[bytes], HeaderFields] = _HEADER.unpack


def unpack_header(raw: bytes) -> EntryHeader:
    """Parse 33 header bytes read from untrusted memory."""
    if len(raw) != HEADER_SIZE:
        raise StoreError(f"header must be {HEADER_SIZE} bytes, got {len(raw)}")
    return EntryHeader._make(_HEADER.unpack(raw))


def mac_message(header: HeaderFields, enc_kv: bytes) -> bytes:
    """The exact byte string the entry MAC authenticates (§4.2)."""
    _next_ptr, key_hint, key_size, val_size, iv_ctr = header
    return enc_kv + _MAC_TRAILER.pack(key_size, val_size, key_hint, iv_ctr)
