"""Remote attestation and secure-session establishment.

Mirrors the client/server steps of paper §3.2:

1. the client remote-attests the server enclave (quote over the
   measurement plus the enclave's ephemeral DH public key);
2. both sides derive session keys from a Diffie-Hellman exchange
   (RFC 3526 group 14, implemented with plain modular exponentiation);
3. subsequent requests flow over the session cipher suite.

The "attestation service" that vouches for quotes (Intel IAS in real
deployments) is a signing oracle keyed by a per-deployment secret that
both parties trust.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.keys import derive_key
from repro.crypto.suite import CipherSuite, make_suite
from repro.errors import AttestationError
from repro.sim.enclave import Enclave, ExecContext

# RFC 3526, 2048-bit MODP group 14.
_DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_DH_GEN = 2
ATTESTATION_QUOTE_US = 10_000.0  # EPID/DCAP quote generation is ~10 ms


@dataclass
class Quote:
    """An attestation quote: measurement + report data, service-signed."""

    measurement: bytes
    report_data: bytes
    signature: bytes


class AttestationService:
    """Signing oracle standing in for Intel's attestation service."""

    def __init__(self, service_secret: bytes):
        if len(service_secret) < 16:
            raise AttestationError("service secret must be at least 16 bytes")
        self._secret = bytes(service_secret)

    def quote(self, ctx: ExecContext, enclave: Enclave, report_data: bytes) -> Quote:
        """Produce a quote for ``enclave`` binding ``report_data``."""
        ctx.charge_us(ATTESTATION_QUOTE_US)
        sig = hmac.new(
            self._secret, enclave.measurement + report_data, hashlib.sha256
        ).digest()
        return Quote(enclave.measurement, bytes(report_data), sig)

    def verify(self, quote: Quote, expected_measurement: bytes) -> None:
        """Client-side check; raises :class:`AttestationError` on failure."""
        expected_sig = hmac.new(
            self._secret, quote.measurement + quote.report_data, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(expected_sig, quote.signature):
            raise AttestationError("quote signature is invalid")
        if quote.measurement != expected_measurement:
            raise AttestationError(
                "attested measurement does not match the expected enclave code"
            )


class DHKeyPair:
    """Ephemeral Diffie-Hellman key pair over MODP group 14."""

    __slots__ = ("private", "public")

    def __init__(self, entropy: bytes):
        if len(entropy) < 32:
            raise AttestationError("need at least 32 bytes of DH entropy")
        self.private = int.from_bytes(entropy, "big") % (_DH_PRIME - 2) + 1
        self.public = pow(_DH_GEN, self.private, _DH_PRIME)

    @property
    def public_bytes(self) -> bytes:
        """The public value as it travels: 256 bytes, big-endian."""
        return self.public.to_bytes(256, "big")

    def shared_secret(self, peer_public: int) -> bytes:
        """Raw shared secret bytes from the peer's public value."""
        if not 1 < peer_public < _DH_PRIME - 1:
            raise AttestationError("peer DH public value out of range")
        value = pow(peer_public, self.private, _DH_PRIME)
        return value.to_bytes((_DH_PRIME.bit_length() + 7) // 8, "big")


def derive_session_suite(shared: bytes, suite_name: str = "fast-hashlib") -> CipherSuite:
    """Derive a session cipher suite from a DH shared secret."""
    root = hashlib.sha256(shared).digest()
    return make_suite(
        suite_name, derive_key(root, "session/enc"), derive_key(root, "session/mac")
    )


# The §3.2 exchange, written once.  Every front end (the in-process
# handshake below, the TCP server and client) runs these three halves;
# what differs is only how the bytes travel.
def handshake_offer(
    service: AttestationService, ctx: ExecContext, enclave: Enclave
) -> Tuple[DHKeyPair, Quote]:
    """Server, first half: a fresh DH key pair and a quote whose report
    data is the hash of its public key.  The exponent is ``os.urandom``
    output charged as one ``sgx_read_rand``, never the seeded machine RNG.
    """
    ctx.charge_rand(32)
    server_dh = DHKeyPair(os.urandom(32))
    report_data = hashlib.sha256(server_dh.public_bytes).digest()
    return server_dh, service.quote(ctx, enclave, report_data)


def handshake_accept(
    service: AttestationService,
    quote: Quote,
    server_public: bytes,
    expected_measurement: bytes,
    client_entropy: bytes,
) -> Tuple[bytes, bytes]:
    """Client: verify the quote *and* that it covers the offered key.

    Returns ``(client public bytes, shared secret)``; nothing is keyed
    before both checks pass.
    """
    service.verify(quote, expected_measurement)
    binding = hashlib.sha256(server_public).digest()
    if not hmac.compare_digest(binding, quote.report_data):
        raise AttestationError("quote does not bind the server DH key")
    client_dh = DHKeyPair(client_entropy)
    shared = client_dh.shared_secret(int.from_bytes(server_public, "big"))
    return client_dh.public_bytes, shared


def handshake_finish(server_dh: DHKeyPair, client_public: bytes) -> bytes:
    """Server, second half: the shared secret from the client's reply."""
    return server_dh.shared_secret(int.from_bytes(client_public, "big"))


def attested_handshake(
    service: AttestationService,
    server_ctx: ExecContext,
    server_enclave: Enclave,
    client_entropy: bytes,
    suite_name: str = "fast-hashlib",
):
    """Run the full §3.2 handshake; returns (client_suite, server_suite).

    The two returned suites hold identical keys — returned separately so
    tests can assert both directions independently.
    """
    server_dh, quote = handshake_offer(service, server_ctx, server_enclave)
    client_public, client_shared = handshake_accept(
        service, quote, server_dh.public_bytes,
        server_enclave.measurement, client_entropy,
    )
    server_shared = handshake_finish(server_dh, client_public)
    return (
        derive_session_suite(client_shared, suite_name),
        derive_session_suite(server_shared, suite_name),
    )
