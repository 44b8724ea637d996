"""Cipher suites, registry, key ring, and the fast backend."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fast
from repro.crypto.keys import KeyRing, derive_key
from repro.crypto.suite import (
    FastSuite,
    ReferenceSuite,
    available_suites,
    make_suite,
    register_suite,
)
from repro.errors import CryptoError

_ENC = bytes(range(16))
_MAC = bytes(range(16, 32))
_IV = bytes(16)


@pytest.fixture(params=["aes-reference", "fast-hashlib"])
def suite(request):
    return make_suite(request.param, _ENC, _MAC)


class TestSuiteInterface:
    def test_roundtrip(self, suite):
        ct = suite.encrypt(_IV, b"attack at dawn")
        assert ct != b"attack at dawn"
        assert suite.decrypt(_IV, ct) == b"attack at dawn"

    def test_mac_verify(self, suite):
        tag = suite.mac(b"message")
        assert len(tag) == 16
        assert suite.verify(b"message", tag)
        assert not suite.verify(b"messagX", tag)
        assert not suite.verify(b"message", bytes(16))

    def test_iv_matters(self, suite):
        a = suite.encrypt(_IV, b"x" * 32)
        b = suite.encrypt(bytes(15) + b"\x01", b"x" * 32)
        assert a != b

    def test_key_size_enforced(self):
        with pytest.raises(CryptoError):
            ReferenceSuite(b"short", _MAC)
        with pytest.raises(CryptoError):
            FastSuite(_ENC, b"short")


class TestRegistry:
    def test_available(self):
        names = available_suites()
        assert "aes-reference" in names
        assert "fast-hashlib" in names

    def test_unknown_suite(self):
        with pytest.raises(CryptoError):
            make_suite("no-such-suite", _ENC, _MAC)

    def test_register_and_duplicate(self):
        name = "test-custom-suite"
        if name not in available_suites():
            register_suite(name, FastSuite)
        assert name in available_suites()
        with pytest.raises(CryptoError):
            register_suite(name, FastSuite)


class TestFastBackend:
    def test_keystream_deterministic(self):
        a = fast.prf_keystream(_ENC, _IV, 100)
        assert a == fast.prf_keystream(_ENC, _IV, 100)
        assert len(a) == 100

    def test_keystream_counter_contiguity(self):
        from repro.crypto.ctr import increment_iv_ctr

        whole = fast.prf_keystream(_ENC, _IV, 64)
        second = fast.prf_keystream(_ENC, increment_iv_ctr(_IV), 32)
        assert whole[32:] == second

    def test_bad_iv_rejected(self):
        with pytest.raises(CryptoError):
            fast.prf_keystream(_ENC, bytes(4), 16)

    @pytest.mark.parametrize("key_len", [1, 16, 64, 65])
    def test_prekeyed_hmac_is_byte_identical_to_hmac_new(self, key_len):
        """The hoisted key schedule must not change one tag: short keys
        are zero-padded, a key longer than the block is hashed first."""
        import hashlib
        import hmac

        key = bytes(range(7, 7 + key_len))
        digest = fast.prekeyed_hmac(key)
        for length in range(601):
            message = bytes((length + i) & 0xFF for i in range(length))
            assert digest(message) == hmac.new(key, message, hashlib.sha256).digest()

    def test_suite_and_keyring_use_the_reference_tags(self):
        import hashlib
        import hmac

        tag = hmac.new(_MAC, b"entry", hashlib.sha256).digest()[:16]
        assert FastSuite(_ENC, _MAC).mac(b"entry") == tag
        ring = KeyRing(b"m" * 32)
        index = hmac.new(ring.index_key, b"k1", hashlib.sha256).digest()
        assert ring.keyed_bucket_hash(b"k1", 1000) == int.from_bytes(index[:8], "big") % 1000
        assert ring.key_hint(b"k1") == hmac.new(ring.hint_key, b"k1", hashlib.sha256).digest()[0]


class TestRecordMode:
    """``encrypt_record`` / ``decrypt_record``: the session-record cipher.

    The fast suite's is one SHAKE-256 call per record; the entry mode
    (``encrypt`` / ``decrypt``) keeps the pinned SHA-256-CTR bytes.
    """

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 4096, 65536])
    def test_fast_record_keystream_known_answer(self, n):
        import hashlib

        iv = bytes(range(100, 116))
        stream = hashlib.shake_256(_ENC + iv).digest(n)
        assert FastSuite(_ENC, _MAC).encrypt_record(iv, bytes(n)) == stream
        assert fast.xof_transform(_ENC, iv, bytes(n)) == stream

    @pytest.mark.parametrize("n", [0, 1, 33, 10_000])
    def test_roundtrip(self, suite, n):
        plain = bytes(i * 7 & 0xFF for i in range(n))
        ct = suite.encrypt_record(_IV, plain)
        assert len(ct) == n
        assert (ct != plain) or n == 0
        assert suite.decrypt_record(_IV, ct) == plain

    def test_reference_record_mode_is_its_entry_mode(self):
        ref = ReferenceSuite(_ENC, _MAC)
        plain = bytes(range(256)) * 3
        assert ref.encrypt_record(_IV, plain) == ref.encrypt(_IV, plain)
        assert ref.decrypt_record(_IV, plain) == ref.decrypt(_IV, plain)

    def test_fast_entry_mode_is_still_sha256_ctr(self):
        """The pinned cipher did not move: one SHA-256 block per 32-byte
        chunk under a big-endian counter, not the record-mode XOF."""
        import hashlib

        n = 100
        counter = int.from_bytes(_IV, "big")
        stream = b"".join(
            hashlib.sha256(_ENC + (counter + i).to_bytes(16, "big")).digest()
            for i in range(4)
        )[:n]
        fs = FastSuite(_ENC, _MAC)
        assert fs.encrypt(_IV, bytes(n)) == stream
        assert fs.encrypt_record(_IV, bytes(n)) != stream

    def test_iv_matters(self, suite):
        a = suite.encrypt_record(_IV, b"x" * 64)
        b = suite.encrypt_record(bytes(15) + b"\x01", b"x" * 64)
        assert a != b
        # Fast record mode: adjacent IVs are independent streams, not
        # one stream shifted by a block as in CTR.
        if isinstance(suite, FastSuite):
            assert a[32:] != b[:32]

    @pytest.mark.parametrize("iv_len", [0, 4, 15, 17])
    def test_wrong_length_iv_rejected(self, suite, iv_len):
        with pytest.raises(CryptoError):
            suite.encrypt_record(bytes(iv_len), b"payload")
        with pytest.raises(CryptoError):
            suite.decrypt_record(bytes(iv_len), b"payload")


class TestKeyRing:
    def test_derivation_is_deterministic(self):
        a = KeyRing(b"m" * 32)
        b = KeyRing(b"m" * 32)
        assert a.enc_key == b.enc_key
        assert a.mac_key == b.mac_key

    def test_keys_are_distinct(self):
        ring = KeyRing(b"m" * 32)
        keys = {ring.enc_key, ring.mac_key, ring.index_key, ring.hint_key}
        assert len(keys) == 4

    def test_master_too_short(self):
        with pytest.raises(CryptoError):
            KeyRing(b"short")

    def test_bucket_hash_in_range(self):
        ring = KeyRing(b"m" * 32)
        for i in range(100):
            assert 0 <= ring.keyed_bucket_hash(f"k{i}".encode(), 77) < 77

    def test_bucket_hash_keyed(self):
        a = KeyRing(b"a" * 32)
        b = KeyRing(b"b" * 32)
        hashes_a = [a.keyed_bucket_hash(f"k{i}".encode(), 1000) for i in range(50)]
        hashes_b = [b.keyed_bucket_hash(f"k{i}".encode(), 1000) for i in range(50)]
        assert hashes_a != hashes_b

    def test_hint_is_one_byte(self):
        ring = KeyRing(b"m" * 32)
        for i in range(100):
            assert 0 <= ring.key_hint(f"k{i}".encode()) <= 255

    def test_derive_key_bounds(self):
        with pytest.raises(CryptoError):
            derive_key(b"", "label")
        with pytest.raises(CryptoError):
            derive_key(b"master", "label", size=33)

    @given(num_buckets=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_bucket_hash_range_property(self, num_buckets):
        ring = KeyRing(b"m" * 32)
        assert 0 <= ring.keyed_bucket_hash(b"key", num_buckets) < num_buckets
