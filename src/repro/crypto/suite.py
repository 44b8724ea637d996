"""Pluggable cipher suites with a common interface.

Every component that encrypts or MACs (the store, sealing, network
sessions) talks to a :class:`CipherSuite` so the reference AES/CMAC suite
and the fast hashlib suite are interchangeable.  The suite also exposes
the *cost parameters* the simulator charges, so swapping backends never
changes simulated performance.

A suite encrypts in two modes, and a key is used in one of them for its
whole life:

* ``encrypt`` / ``decrypt`` (and the ``_many`` forms) — the **entry
  mode**, CTR under a per-entry IV/counter (§4.2, Fig. 4).  The store,
  the WAL, snapshots and sealing call it; its bytes are pinned
  (``tests/test_exact_ledger.py``) and persisted, so it cannot change
  for a host-speed reason.
* ``encrypt_record`` / ``decrypt_record`` — the **record mode**, for an
  ephemeral session record that dies with its session key.  Only
  :class:`~repro.net.message.SecureChannel` calls it.  The base
  implementation *is* the entry mode (so :class:`ReferenceSuite` stays
  AES-CTR); :class:`FastSuite` overrides it with one XOF call per
  record (:func:`repro.crypto.fast.xof_transform`).  The IV must never
  repeat under the key.
"""

from __future__ import annotations

from hmac import compare_digest
from typing import Callable, Dict

from repro.analysis import sanitizer as _sanitizer
from repro.crypto import fast as _fast
from repro.crypto.cmac import cmac_with_cipher as _cmac_with_cipher
from repro.crypto.ctr import ctr_transform as _ctr_transform
from repro.crypto.aes import AES128, BLOCK_SIZE as _AES_BLOCK
from repro.errors import CryptoError

IV_SIZE = 16
MAC_SIZE = 16
KEY_SIZE = 16


class CipherSuite:
    """Authenticated encryption services bound to one secret key pair.

    Parameters
    ----------
    enc_key:
        16-byte encryption key (the paper's "128-bit global secret key").
    mac_key:
        16-byte MAC key (the paper's CMAC key).  Kept distinct from the
        encryption key, as Figure 4 draws them.
    """

    name = "abstract"

    def __init__(self, enc_key: bytes, mac_key: bytes):
        if len(enc_key) != KEY_SIZE or len(mac_key) != KEY_SIZE:
            raise CryptoError("cipher suite keys must be 16 bytes each")
        self.enc_key = bytes(enc_key)
        self.mac_key = bytes(mac_key)

    # -- interface -----------------------------------------------------
    def encrypt(self, iv_ctr: bytes, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, iv_ctr: bytes, ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def mac(self, message: bytes) -> bytes:
        raise NotImplementedError

    def encrypt_record(self, iv: bytes, plaintext: bytes) -> bytes:
        """Encrypt one session record under an IV never reused with the key.

        The entry mode unless the suite has a cheaper whole-record cipher.
        """
        return self.encrypt(iv, plaintext)

    def decrypt_record(self, iv: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`encrypt_record`."""
        return self.decrypt(iv, ciphertext)

    def encrypt_many(self, items) -> list:
        """Encrypt a batch of ``(iv_ctr, plaintext)`` pairs in input order.

        Suites with a batchable keystream override this to amortize the
        per-call overhead; the default simply loops.
        """
        return [self.encrypt(iv_ctr, plaintext) for iv_ctr, plaintext in items]

    def decrypt_many(self, items) -> list:
        """Decrypt a batch of ``(iv_ctr, ciphertext)`` pairs in input order."""
        return [self.decrypt(iv_ctr, ciphertext) for iv_ctr, ciphertext in items]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Return True when ``tag`` authenticates ``message``."""
        return compare_digest(self.mac(message), tag)


class ReferenceSuite(CipherSuite):
    """From-scratch AES-128-CTR + AES-CMAC — what real ShieldStore runs."""

    name = "aes-reference"

    def __init__(self, enc_key: bytes, mac_key: bytes):
        super().__init__(enc_key, mac_key)
        self._enc_cipher = AES128(self.enc_key)
        self._mac_cipher = AES128(self.mac_key)

    def encrypt(self, iv_ctr: bytes, plaintext: bytes) -> bytes:
        if _sanitizer.active:
            _sanitizer.record(self.enc_key, iv_ctr, len(plaintext), _AES_BLOCK)
        return _ctr_transform(self._enc_cipher, iv_ctr, plaintext)

    def decrypt(self, iv_ctr: bytes, ciphertext: bytes) -> bytes:
        return _ctr_transform(self._enc_cipher, iv_ctr, ciphertext)

    def mac(self, message: bytes) -> bytes:
        return _cmac_with_cipher(self._mac_cipher, message)


class FastSuite(CipherSuite):
    """SHA-256-PRF stream cipher + truncated HMAC; used by scaled benches."""

    name = "fast-hashlib"

    def __init__(self, enc_key: bytes, mac_key: bytes):
        super().__init__(enc_key, mac_key)
        self._mac = _fast.prekeyed_hmac(self.mac_key)

    def encrypt(self, iv_ctr: bytes, plaintext: bytes) -> bytes:
        if _sanitizer.active:
            _sanitizer.record(
                self.enc_key, iv_ctr, len(plaintext), _fast.CHUNK_SIZE
            )
        return _fast.prf_transform(self.enc_key, iv_ctr, plaintext)

    def decrypt(self, iv_ctr: bytes, ciphertext: bytes) -> bytes:
        return _fast.prf_transform(self.enc_key, iv_ctr, ciphertext)

    def encrypt_many(self, items) -> list:
        if _sanitizer.active:
            items = list(items)
            for iv_ctr, plaintext in items:
                _sanitizer.record(
                    self.enc_key, iv_ctr, len(plaintext), _fast.CHUNK_SIZE
                )
        return _fast.prf_transform_many(self.enc_key, items)

    def decrypt_many(self, items) -> list:
        return _fast.prf_transform_many(self.enc_key, items)

    def encrypt_record(self, iv: bytes, plaintext: bytes) -> bytes:
        if _sanitizer.active:
            # One XOF stream per IV: the record is the single point
            # (key, iv) whatever its length — adjacent IVs do not overlap.
            _sanitizer.record(self.enc_key, iv, 1, 1)
        return _fast.xof_transform(self.enc_key, iv, plaintext)

    def decrypt_record(self, iv: bytes, ciphertext: bytes) -> bytes:
        return _fast.xof_transform(self.enc_key, iv, ciphertext)

    def mac(self, message: bytes) -> bytes:
        return self._mac(message)[:MAC_SIZE]


_SUITES: Dict[str, Callable[[bytes, bytes], CipherSuite]] = {
    ReferenceSuite.name: ReferenceSuite,
    FastSuite.name: FastSuite,
}


def register_suite(name: str, factory: Callable[[bytes, bytes], CipherSuite]) -> None:
    """Register a custom suite factory under ``name``."""
    if name in _SUITES:
        raise CryptoError(f"cipher suite {name!r} already registered")
    _SUITES[name] = factory


def make_suite(name: str, enc_key: bytes, mac_key: bytes) -> CipherSuite:
    """Instantiate a registered suite by name."""
    try:
        factory = _SUITES[name]
    except KeyError:
        raise CryptoError(
            f"unknown cipher suite {name!r}; known: {sorted(_SUITES)}"
        ) from None
    return factory(enc_key, mac_key)


def available_suites() -> list:
    """Names of all registered suites."""
    return sorted(_SUITES)
