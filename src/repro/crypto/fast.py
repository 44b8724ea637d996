"""Fast hashlib-backed cipher suite for scaled benchmarks.

The reference suite (:mod:`repro.crypto.aes` / :mod:`repro.crypto.cmac`)
is pure Python; it is exactly what the paper's enclave does but costs tens
of microseconds per entry, which would dominate a 100k-entry benchmark
with *Python* overhead rather than *simulated* cycles.  This module
provides a drop-in suite built on the C-speed primitives in the standard
library.  It has two cipher modes, chosen by *what is encrypted*, never
by an option:

* **entry mode** (:func:`prf_transform`, behind ``FastSuite.encrypt`` /
  ``decrypt``): a CTR-style keystream where each 32-byte keystream block
  is ``SHA-256(key || iv_ctr+i)`` — a PRF-based stream cipher with the
  same IV/counter discipline as AES-CTR.  Everything that is stored,
  persisted or pinned uses it — entry records, WAL frames, snapshot
  sections, sealed blobs — and its bytes cannot change:
  ``tests/test_exact_ledger.py`` pins every untrusted byte, and a
  snapshot or log written by one build must open in the next.  It costs
  one ``hashlib`` call per 32 bytes (≈ 0.7 µs each, most of it the
  call, not the hash);
* **record mode** (:func:`xof_transform`, behind
  ``FastSuite.encrypt_record`` / ``decrypt_record``): the keystream of a
  whole record is one ``SHAKE-256(key || iv)`` output of the record's
  length — a prefix-keyed XOF, one ``hashlib`` call per record whatever
  its size.  Only :class:`~repro.net.message.SecureChannel` uses it: a
  session record lives as long as its session key, nothing pins or
  persists it, and a 64-key batch crosses four such records of ~10 kB.
  The IV must never repeat under a key (two IVs one apart give
  independent streams, unlike CTR block spans);
* MAC: HMAC-SHA-256 truncated to 16 bytes, matching the CMAC tag width.

Both give real confidentiality/integrity for the tests (tampering is
detected, ciphertexts are key- and IV-dependent) while the simulator
charges *AES* cycle costs, so performance results are unaffected by the
backend choice.  The ablation bench ``bench_abl_cipher_suite`` checks the
two suites agree functionally.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.errors import CryptoError

IV_SIZE = 16
MAC_SIZE = 16
_CTR_MASK = (1 << 128) - 1
CHUNK_SIZE = 32  # SHA-256 digest size: one counter step per chunk
_CHUNK = CHUNK_SIZE
_BLOCK = 64  # SHA-256 input block: the width HMAC pads its key to


def prf_keystream(key: bytes, iv_ctr: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes from SHA-256(key || counter)."""
    if len(iv_ctr) != IV_SIZE:
        raise CryptoError(f"IV/counter must be {IV_SIZE} bytes, got {len(iv_ctr)}")
    if length < 0:
        raise CryptoError("keystream length must be non-negative")
    counter = int.from_bytes(iv_ctr, "big")
    blocks = []
    for _ in range((length + _CHUNK - 1) // _CHUNK):
        blocks.append(hashlib.sha256(key + counter.to_bytes(16, "big")).digest())
        counter = (counter + 1) & _CTR_MASK
    return b"".join(blocks)[:length]


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings via one wide integer operation.

    CPython evaluates ``int ^ int`` in C over 30-bit limbs, so this runs
    orders of magnitude faster than a per-byte generator for entry-sized
    payloads.
    """
    if not data:
        return b""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def prf_transform(key: bytes, iv_ctr: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` by XOR with the PRF keystream."""
    return xor_bytes(data, prf_keystream(key, iv_ctr, len(data)))


def xof_transform(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt one record by XOR with ``SHAKE-256(key || iv)``.

    The record mode: one XOF call yields the whole keystream, so a
    record costs what its bytes cost instead of one hash call per 32.
    """
    if len(iv) != IV_SIZE:
        raise CryptoError(f"IV must be {IV_SIZE} bytes, got {len(iv)}")
    return xor_bytes(data, hashlib.shake_256(key + iv).digest(len(data)))


def prf_transform_many(key: bytes, items) -> list:
    """Encrypt/decrypt a batch of ``(iv_ctr, data)`` pairs.

    The keystreams of the whole batch are generated in one pass and the
    XOR is performed as a single wide-integer operation over the
    concatenated payloads, amortizing the per-call Python overhead that
    dominates multi-entry encrypt/decrypt on the batched hot path.
    Returns the transformed payloads in input order.
    """
    lengths = []
    datas = []
    streams = []
    for iv_ctr, data in items:
        lengths.append(len(data))
        datas.append(data)
        streams.append(prf_keystream(key, iv_ctr, len(data)))
    joined = xor_bytes(b"".join(datas), b"".join(streams))
    out = []
    offset = 0
    for length in lengths:
        out.append(joined[offset : offset + length])
        offset += length
    return out


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def prekeyed_hmac(key: bytes) -> Callable[[bytes], bytes]:
    """HMAC-SHA-256 with the key schedule done once (RFC 2104).

    Returns ``message -> 32-byte digest``, byte-identical to
    ``hmac.new(key, message, sha256).digest()``: the two padded-key
    blocks are absorbed here, each tag then costs a ``copy()`` and an
    ``update()`` per pass instead of a fresh key schedule.  The absorbed
    states are key material — hold the returned function only where the
    key itself may live.
    """
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK, b"\0")
    inner_keyed = hashlib.sha256(block.translate(_IPAD))
    outer_keyed = hashlib.sha256(block.translate(_OPAD))

    def digest(message: bytes) -> bytes:
        inner = inner_keyed.copy()
        inner.update(message)
        outer = outer_keyed.copy()
        outer.update(inner.digest())
        return outer.digest()

    return digest
