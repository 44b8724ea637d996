"""Sealing, monotonic counters, remote attestation, the attacker."""

import pytest

from repro.core import PartitionedShieldStore, shield_opt
from repro.errors import (
    AttestationError,
    EnclaveError,
    RollbackError,
    SealingError,
)
from repro.sim import (
    Attacker,
    AttestationService,
    DHKeyPair,
    Enclave,
    Machine,
    MonotonicCounterService,
    SealingService,
    attested_handshake,
)
from repro.sim.attestation import handshake_offer


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def enclave(machine):
    return Enclave(machine, bytes(range(32)))


@pytest.fixture
def sealing():
    return SealingService(b"platform-secret-0")


class TestSealing:
    def test_roundtrip(self, machine, enclave, sealing):
        ctx = enclave.context()
        blob = sealing.seal(ctx, enclave, b"enclave secrets")
        assert b"enclave secrets" not in blob
        assert sealing.unseal(ctx, enclave, blob) == b"enclave secrets"

    def test_wrong_measurement_rejected(self, machine, enclave, sealing):
        ctx = enclave.context()
        blob = sealing.seal(ctx, enclave, b"secrets")
        other = Enclave(machine, bytes(32), name="other")
        with pytest.raises(SealingError):
            sealing.unseal(other.context(), other, blob)

    def test_wrong_platform_rejected(self, machine, enclave, sealing):
        ctx = enclave.context()
        blob = sealing.seal(ctx, enclave, b"secrets")
        other_platform = SealingService(b"different-secret!")
        with pytest.raises(SealingError):
            other_platform.unseal(ctx, enclave, blob)

    def test_tampered_blob_rejected(self, machine, enclave, sealing):
        ctx = enclave.context()
        blob = bytearray(sealing.seal(ctx, enclave, b"secrets"))
        blob[-1] ^= 1
        with pytest.raises(SealingError):
            sealing.unseal(ctx, enclave, bytes(blob))

    def test_truncated_blob_rejected(self, machine, enclave, sealing):
        with pytest.raises(SealingError):
            sealing.unseal(enclave.context(), enclave, b"short")

    def test_weak_platform_secret_rejected(self):
        with pytest.raises(SealingError):
            SealingService(b"weak")


class TestMonotonicCounters:
    def test_lifecycle(self, machine, enclave):
        svc = MonotonicCounterService()
        assert svc.create("snap") == 0
        ctx = enclave.context()
        assert svc.increment(ctx, "snap") == 1
        assert svc.increment(ctx, "snap") == 2
        assert svc.read("snap") == 2

    def test_increment_is_expensive(self, machine, enclave):
        svc = MonotonicCounterService()
        ctx = enclave.context()
        svc.increment(ctx, "snap")
        assert machine.elapsed_us() >= machine.cost.monotonic_counter_us

    def test_rollback_detection(self, machine, enclave):
        svc = MonotonicCounterService()
        ctx = enclave.context()
        svc.increment(ctx, "snap")
        svc.increment(ctx, "snap")
        svc.check_not_rolled_back("snap", 2)
        with pytest.raises(RollbackError):
            svc.check_not_rolled_back("snap", 1)

    def test_file_persistence(self, machine, enclave, tmp_path):
        path = str(tmp_path / "counters.json")
        svc = MonotonicCounterService(path)
        svc.increment(enclave.context(), "snap")
        reloaded = MonotonicCounterService(path)
        assert reloaded.read("snap") == 1


class TestAttestation:
    def test_quote_verify(self, machine, enclave):
        svc = AttestationService(b"ias-service-secret")
        quote = svc.quote(enclave.context(), enclave, b"report-data")
        svc.verify(quote, enclave.measurement)

    def test_wrong_measurement_rejected(self, machine, enclave):
        svc = AttestationService(b"ias-service-secret")
        quote = svc.quote(enclave.context(), enclave, b"report-data")
        with pytest.raises(AttestationError):
            svc.verify(quote, bytes(32))

    def test_forged_signature_rejected(self, machine, enclave):
        svc = AttestationService(b"ias-service-secret")
        quote = svc.quote(enclave.context(), enclave, b"report-data")
        quote.signature = bytes(32)
        with pytest.raises(AttestationError):
            svc.verify(quote, enclave.measurement)

    def test_handshake_derives_matching_suites(self, machine, enclave):
        svc = AttestationService(b"ias-service-secret")
        client, server = attested_handshake(
            svc, enclave.context(), enclave, bytes(range(32))
        )
        ct = client.encrypt(bytes(16), b"request")
        assert server.decrypt(bytes(16), ct) == b"request"
        assert server.mac(b"x") == client.mac(b"x")

    def test_dh_rejects_degenerate_public(self):
        pair = DHKeyPair(bytes(range(32)))
        with pytest.raises(AttestationError):
            pair.shared_secret(1)

    def test_dh_entropy_requirement(self):
        with pytest.raises(AttestationError):
            DHKeyPair(b"short")


class TestServedHandshakeSecret:
    """The server's DH half is fresh entropy, not the simulator's seed:
    a peer that knows ``StoreConfig.seed`` (default 2019) must not be
    able to recompute the exponent and read the session."""

    def _first_offer(self, config, master_secret):
        store = PartitionedShieldStore(config, master_secret=master_secret)
        try:
            service = AttestationService(b"ias-service-secret")
            server_dh, _ = handshake_offer(
                service, store.enclave.context(), store.enclave
            )
            return server_dh
        finally:
            store.close()

    def test_dh_secret_is_not_drawn_from_the_seeded_rng(self):
        config = shield_opt(num_buckets=32, num_mac_hashes=16)
        first = self._first_offer(config, bytes(range(32)))
        second = self._first_offer(config, bytes(range(1, 33)))
        assert first.public_bytes != second.public_bytes
        rng = Machine(seed=config.seed).rng
        replayed = DHKeyPair(bytes(rng.getrandbits(8) for _ in range(32)))
        assert first.private != replayed.private


class TestAttacker:
    def test_untrusted_read_write(self, machine, enclave):
        atk = Attacker(machine.memory)
        base = enclave.alloc_untrusted(64)
        machine.memory.raw_write(base, b"exposed")
        assert atk.read(base, 7) == b"exposed"
        atk.write(base, b"clobber")
        assert machine.memory.raw_read(base, 7) == b"clobber"

    def test_enclave_memory_unreachable(self, machine, enclave):
        atk = Attacker(machine.memory)
        base = enclave.alloc(64)
        with pytest.raises(EnclaveError):
            atk.read(base, 8)
        with pytest.raises(EnclaveError):
            atk.write(base, b"x")

    def test_flip_bit(self, machine, enclave):
        atk = Attacker(machine.memory)
        base = enclave.alloc_untrusted(8)
        machine.memory.raw_write(base, bytes(8))
        atk.flip_bit(base, 3)
        assert machine.memory.raw_read(base, 1) == bytes([1 << 3])

    def test_snapshot_replay(self, machine, enclave):
        atk = Attacker(machine.memory)
        base = enclave.alloc_untrusted(8)
        machine.memory.raw_write(base, b"version1")
        recorded = atk.snapshot(base, 8)
        machine.memory.raw_write(base, b"version2")
        atk.replay(recorded)
        assert machine.memory.raw_read(base, 8) == b"version1"

    def test_enumerate_untrusted(self, machine, enclave):
        atk = Attacker(machine.memory)
        base = enclave.alloc_untrusted(128)
        allocations = atk.untrusted_allocations()
        assert (base, 128) in allocations
