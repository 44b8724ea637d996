"""SGX sealing: encrypt enclave secrets to the platform for storage.

Sealing binds data to (platform secret, enclave measurement) so only the
same enclave on the same machine can recover it — the mechanism the
paper's snapshots use for in-enclave metadata (§4.4).  The simulated
platform secret is derived from a machine seed; the sealed blob format is
``magic || measurement || iv || ciphertext || tag`` with authenticated
encryption from the cipher-suite layer.
"""

from __future__ import annotations

import os
import struct

from repro.crypto.keys import derive_key
from repro.crypto.suite import FastSuite
from repro.errors import SealingError
from repro.reader import Reader
from repro.sim.enclave import Enclave, ExecContext

_MAGIC = b"SGXSEAL1"
_IV_SIZE = 16
_TAG_SIZE = 16
_MEAS_SIZE = 32


class SealingService:
    """Seal/unseal service bound to one machine's platform secret."""

    def __init__(self, platform_secret: bytes):
        if len(platform_secret) < 16:
            raise SealingError("platform secret must be at least 16 bytes")
        self._platform_secret = bytes(platform_secret)
        # Seal-IV allocator: entropy salt + monotone block counter.  The
        # sealing keys derive from the *platform* secret, which is the
        # same across every process incarnation of a machine seed — so
        # IVs must NOT come from the deterministic machine RNG, whose
        # replayed stream would hand a restored snapshot daemon the same
        # "random" IV under the same key.  The IV travels in the blob,
        # so unsealing needs no allocator state.
        self._iv_salt = int.from_bytes(os.urandom(8), "big")
        self._iv_seq = 0

    def _next_iv(self, nbytes: int) -> bytes:
        iv = struct.pack(">QQ", self._iv_salt, self._iv_seq)
        self._iv_seq += (nbytes + 15) // 16
        return iv

    def _suite_for(self, measurement: bytes) -> FastSuite:
        root = self._platform_secret + measurement
        return FastSuite(
            derive_key(root, "seal/enc"), derive_key(root, "seal/mac")
        )

    def seal(self, ctx: ExecContext, enclave: Enclave, plaintext: bytes) -> bytes:
        """Seal ``plaintext`` to ``enclave``'s identity on this platform."""
        suite = self._suite_for(enclave.measurement)
        iv = self._next_iv(len(plaintext))
        ctx.charge_rand(_IV_SIZE)  # the sgx_read_rand cost of a real seal IV
        ciphertext = suite.encrypt(iv, plaintext)
        ctx.charge_aes(len(plaintext))
        header = _MAGIC + enclave.measurement + iv
        tag = suite.mac(header + ciphertext)
        ctx.charge_cmac(len(header) + len(ciphertext))
        return header + ciphertext + tag

    def unseal(self, ctx: ExecContext, enclave: Enclave, blob: bytes) -> bytes:
        """Recover sealed data; raises :class:`SealingError` on mismatch."""
        reader = Reader(blob, SealingError, "sealed blob")
        if reader.take(len(_MAGIC)) != _MAGIC:
            raise SealingError("sealed blob has wrong magic")
        measurement, iv = reader.take(_MEAS_SIZE), reader.take(_IV_SIZE)
        ciphertext = reader.take(reader.left() - _TAG_SIZE)
        tag = reader.rest()
        if measurement != enclave.measurement:
            raise SealingError(
                "sealed blob was produced by a different enclave measurement"
            )
        suite = self._suite_for(measurement)
        ctx.charge_cmac(len(blob) - _TAG_SIZE)
        if not suite.verify(blob[:-_TAG_SIZE], tag):
            raise SealingError("sealed blob failed authentication")
        ctx.charge_aes(len(ciphertext))
        return suite.decrypt(iv, ciphertext)
