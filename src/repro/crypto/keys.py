"""Key material handling: derivation, keyed index hashing, random IVs.

The paper derives several in-enclave secrets (Figure 4): the global
encryption key, the CMAC key, a keyed-hash key for the bucket index that
hides the key distribution (§4.2), and the 1-byte key-hint function
(§5.4).  All are derived from a single master secret with domain
separation so sealing only one value restores everything.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.fast import prekeyed_hmac
from repro.errors import CryptoError

KEY_SIZE = 16
MASTER_SIZE = 32


def derive_key(master: bytes, label: str, size: int = KEY_SIZE) -> bytes:
    """HKDF-style expansion: HMAC(master, label) truncated to ``size``."""
    if not master:
        raise CryptoError("master secret must be non-empty")
    if size <= 0 or size > 32:
        raise CryptoError("derived key size must be in 1..32")
    return hmac.new(master, label.encode("utf-8"), hashlib.sha256).digest()[:size]


class KeyRing:
    """All secrets ShieldStore keeps inside the enclave.

    >>> ring = KeyRing(b"\\x01" * 32)
    >>> len(ring.enc_key), len(ring.mac_key)
    (16, 16)
    """

    __slots__ = (
        "master", "enc_key", "mac_key", "index_key", "hint_key",
        "_index_hmac", "_hint_hmac",
    )

    def __init__(self, master: bytes):
        if len(master) < 16:
            raise CryptoError("master secret must be at least 16 bytes")
        self.master = bytes(master)
        self.enc_key = derive_key(self.master, "shieldstore/enc")
        self.mac_key = derive_key(self.master, "shieldstore/mac")
        self.index_key = derive_key(self.master, "shieldstore/index")
        self.hint_key = derive_key(self.master, "shieldstore/hint")
        self._index_hmac = prekeyed_hmac(self.index_key)
        self._hint_hmac = prekeyed_hmac(self.hint_key)

    def keyed_bucket_hash(self, key: bytes, num_buckets: int) -> int:
        """Keyed hash of a client key onto a bucket index (paper §4.2).

        A keyed hash (rather than a public one) prevents an observer of the
        untrusted hash table from learning the key distribution.
        """
        if num_buckets <= 0:
            raise CryptoError("num_buckets must be positive")
        return int.from_bytes(self._index_hmac(key)[:8], "big") % num_buckets

    def key_hint(self, key: bytes) -> int:
        """1-byte key hint: keyed hash of the plaintext key (paper §5.4)."""
        return self._hint_hmac(key)[0]

    def redact(self, key: bytes) -> str:
        """Short keyed tag standing in for a client key in diagnostics.

        Error messages cross the worker pipe and may end up in host
        logs, so they must never embed the plaintext key.  The tag is
        an HMAC under its own domain, so the host cannot invert it, yet
        two reports about the same key show the same tag and stay
        correlatable for the operator.
        """
        tag = hmac.new(
            self.hint_key, b"shieldstore/redact\x00" + key, hashlib.sha256
        ).hexdigest()[:12]
        return f"<key:{tag}>"
