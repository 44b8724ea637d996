"""AES-128 block cipher: FIPS-197 and NIST KAT vectors, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, SBOX, expand_key
from repro.errors import CryptoError


class TestVectors:
    def test_fips197_appendix_c1(self):
        cipher = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        ct = cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips197_appendix_b(self):
        cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = cipher.encrypt_block(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        assert ct.hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_nist_zero_key_kat(self):
        cipher = AES128(bytes(16))
        assert (
            cipher.encrypt_block(bytes(16)).hex()
            == "66e94bd4ef8a2c3b884cfa59ca342b2e"
        )

    def test_nist_gfsbox_kat(self):
        # NIST AESAVS GFSbox: key all-zero, pt f34481ec3cc627bacd5dc3fb08f273e6
        cipher = AES128(bytes(16))
        ct = cipher.encrypt_block(bytes.fromhex("f34481ec3cc627bacd5dc3fb08f273e6"))
        assert ct.hex() == "0336763e966d92595a567cc9ce537f5e"

    def test_nist_keysbox_kat(self):
        # NIST AESAVS KeySbox: pt all-zero, key 10a58869d74be5a374cf867cfb473859
        cipher = AES128(bytes.fromhex("10a58869d74be5a374cf867cfb473859"))
        ct = cipher.encrypt_block(bytes(16))
        assert ct.hex() == "6d251e6944b051e04eaa6fb4dbf78465"


class TestSboxConstruction:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestKeySchedule:
    def test_expand_key_length(self):
        assert len(expand_key(bytes(16))) == 44

    def test_fips197_expansion_first_round(self):
        words = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert words[4] == 0xA0FAFE17
        assert words[43] == 0xB6630CA6

    def test_wrong_key_size_rejected(self):
        with pytest.raises(CryptoError):
            AES128(b"short")
        with pytest.raises(CryptoError):
            AES128(bytes(32))


class TestBlockInterface:
    def test_wrong_block_size_rejected(self):
        cipher = AES128(bytes(16))
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"short")
        with pytest.raises(CryptoError):
            cipher.encrypt_block(bytes(17))


class TestProperties:
    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_encryption_changes_block(self, key, block):
        assert AES128(key).encrypt_block(block) != block

    @given(block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_key_sensitivity(self, block):
        a = AES128(bytes(16)).encrypt_block(block)
        b = AES128(bytes([1]) + bytes(15)).encrypt_block(block)
        assert a != b
