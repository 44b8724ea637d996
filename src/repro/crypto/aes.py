"""AES-128 block cipher implemented from scratch (FIPS-197).

The paper's enclave encrypts every key-value pair with
``sgx_aes_ctr_encrypt`` and authenticates it with
``sgx_rijndael128_cmac``; both sit on top of the AES-128 block function.
This module provides that block function as a reference implementation,
validated against the FIPS-197 appendix and NIST KAT vectors in the test
suite.

The implementation is a classic T-table design: the SubBytes, ShiftRows
and MixColumns steps of a round are folded into four 256-entry lookup
tables, which keeps pure-Python throughput acceptable for the functional
tests.  Scaled benchmarks default to :mod:`repro.crypto.fast` instead.

Only the forward cipher is here: CTR and CMAC never decrypt a block.
"""

from __future__ import annotations

from typing import List

from repro.errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
_NUM_ROUNDS = 10

# --- S-box generation -------------------------------------------------------
#
# Rather than embedding the 256-byte S-box literal, derive it from the
# definition: multiplicative inverse in GF(2^8) followed by the affine map.
# This doubles as a self-check that our field arithmetic is right.


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverses from the powers of the generator 3: if
    # x = 3**i then 1/x = 3**(255 - i).  Runs at every import (each CLI
    # call and spawned worker), so 255 multiplications, not 255 * 255.
    inv = [0] * 256
    antilog = [1] * 256
    for i in range(1, 256):
        antilog[i] = _gf_mul(antilog[i - 1], 3)
    for i in range(255):
        inv[antilog[i]] = antilog[255 - i]
    sbox = [0] * 256
    for x in range(256):
        b = inv[x]
        s = 0
        for bit in range(8):
            s |= (
                ((b >> bit) & 1)
                ^ ((b >> ((bit + 4) % 8)) & 1)
                ^ ((b >> ((bit + 5) % 8)) & 1)
                ^ ((b >> ((bit + 6) % 8)) & 1)
                ^ ((b >> ((bit + 7) % 8)) & 1)
                ^ ((0x63 >> bit) & 1)
            ) << bit
        sbox[x] = s
    return sbox


SBOX = _build_sbox()

# --- T-tables ---------------------------------------------------------------


def _build_enc_tables() -> List[List[int]]:
    t0 = []
    for x in range(256):
        s = SBOX[x]
        word = (
            (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
        )
        t0.append(word)
    t1 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t0]
    t2 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t1]
    t3 = [((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in t2]
    return [t0, t1, t2, t3]


_T0, _T1, _T2, _T3 = _build_enc_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def expand_key(key: bytes) -> List[int]:
    """Expand a 16-byte key into 44 round-key words (FIPS-197 §5.2)."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 4 * (_NUM_ROUNDS + 1)):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


class AES128:
    """AES-128 with a precomputed key schedule.

    Instances are immutable and safe to share across simulated threads.

    >>> cipher = AES128(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    __slots__ = ("_ek",)

    def __init__(self, key: bytes):
        self._ek = expand_key(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        ek = self._ek
        s0 = int.from_bytes(block[0:4], "big") ^ ek[0]
        s1 = int.from_bytes(block[4:8], "big") ^ ek[1]
        s2 = int.from_bytes(block[8:12], "big") ^ ek[2]
        s3 = int.from_bytes(block[12:16], "big") ^ ek[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k = 4
        for _ in range(_NUM_ROUNDS - 1):
            n0 = (
                t0[(s0 >> 24) & 0xFF]
                ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF]
                ^ t3[s3 & 0xFF]
                ^ ek[k]
            )
            n1 = (
                t0[(s1 >> 24) & 0xFF]
                ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF]
                ^ t3[s0 & 0xFF]
                ^ ek[k + 1]
            )
            n2 = (
                t0[(s2 >> 24) & 0xFF]
                ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF]
                ^ t3[s1 & 0xFF]
                ^ ek[k + 2]
            )
            n3 = (
                t0[(s3 >> 24) & 0xFF]
                ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF]
                ^ t3[s2 & 0xFF]
                ^ ek[k + 3]
            )
            s0, s1, s2, s3 = n0, n1, n2, n3
            k += 4
        sbox = SBOX
        o0 = (
            (sbox[(s0 >> 24) & 0xFF] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ ek[k]
        o1 = (
            (sbox[(s1 >> 24) & 0xFF] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ ek[k + 1]
        o2 = (
            (sbox[(s2 >> 24) & 0xFF] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ ek[k + 2]
        o3 = (
            (sbox[(s3 >> 24) & 0xFF] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ ek[k + 3]
        return (
            o0.to_bytes(4, "big")
            + o1.to_bytes(4, "big")
            + o2.to_bytes(4, "big")
            + o3.to_bytes(4, "big")
        )
