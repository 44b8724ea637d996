"""The threat model, end to end: every §3.3/§5.4/§7 attack class.

Each test plays the privileged adversary against a live store and
asserts the paper's claimed security outcome: confidentiality and
integrity violations are *detected*; availability attacks (hints,
pointers) are *tolerated or safely refused*.
"""

import struct

import pytest

from repro.core import ShieldStore, shield_opt
from repro.core.entry import HEADER_SIZE, MAC_SIZE
from repro.errors import (
    IntegrityError,
    KeyNotFoundError,
    PointerSafetyError,
    ReplayError,
    StoreError,
)
from repro.sim import Attacker
from repro.sim.memory import ENCLAVE_BASE


@pytest.fixture(params=["macbucket", "chained"])
def store(request):
    config = shield_opt(num_buckets=16, num_mac_hashes=8)
    if request.param == "chained":
        config = config.with_(mac_bucketing=False)
    return ShieldStore(config)


@pytest.fixture
def attacker(store):
    return Attacker(store.machine.memory)


def entry_addr(store, key: bytes) -> int:
    """Locate a key's entry record by walking raw chains."""
    ctx = store.enclave.context()
    bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
    addr = int.from_bytes(
        store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8), "little"
    )
    mem = store.machine.memory
    while addr:
        from repro.core.entry import unpack_header

        header = unpack_header(mem.raw_read(addr, HEADER_SIZE))
        enc_kv = mem.raw_read(addr + HEADER_SIZE, header.kv_size)
        plain = store.suite.decrypt(header.iv_ctr, enc_kv)
        if plain[: header.key_size] == key:
            return addr
        addr = header.next_ptr
    raise AssertionError(f"{key!r} not found in raw chains")


class TestConfidentiality:
    def test_plaintext_never_in_untrusted_memory(self, store, attacker):
        secret_key = b"customer-record-0042"
        secret_val = b"ssn=123-45-6789;balance=100000"
        store.set(secret_key, secret_val)
        for base, size in attacker.untrusted_allocations():
            dump = attacker.read(base, size)
            assert secret_key not in dump
            assert secret_val not in dump
            assert b"123-45-6789" not in dump

    def test_same_value_different_ciphertexts(self, store, attacker):
        store.set(b"key-a", b"same-value-bytes")
        store.set(b"key-b", b"same-value-bytes")
        addr_a, addr_b = entry_addr(store, b"key-a"), entry_addr(store, b"key-b")
        ct_a = attacker.read(addr_a + HEADER_SIZE, 16 + 5)
        ct_b = attacker.read(addr_b + HEADER_SIZE, 16 + 5)
        assert ct_a != ct_b  # per-entry random IVs


class TestIntegrity:
    def test_ciphertext_tamper_detected(self, store, attacker):
        store.set(b"victim", b"original-value")
        addr = entry_addr(store, b"victim")
        attacker.flip_bit(addr + HEADER_SIZE + 3, 5)
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"victim")

    def test_stored_mac_tamper_detected(self, store, attacker):
        """Tamper the *authoritative* stored MAC: the entry field in the
        chained configuration, the MAC-bucket copy when that optimization
        holds the copy integrity verification reads."""
        store.set(b"victim", b"original-value")
        if store.macbuckets is None:
            addr = entry_addr(store, b"victim")
            attacker.flip_bit(addr + HEADER_SIZE + 6 + 14 + 2, 1)
        else:
            bucket = store.keyring.keyed_bucket_hash(
                b"victim", store.config.num_buckets
            )
            mac_ptr = int.from_bytes(
                store.machine.memory.raw_read(
                    store.buckets.slot_addr(bucket) + 8, 8
                ),
                "little",
            )
            from repro.core.macbucket import NODE_HEADER

            attacker.flip_bit(mac_ptr + NODE_HEADER + 2, 1)
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"victim")

    def test_size_field_tamper_detected(self, store, attacker):
        store.set(b"victim", b"original-value")
        addr = entry_addr(store, b"victim")
        attacker.write(addr + 9, struct.pack("<I", 2))  # shrink key_size
        with pytest.raises((IntegrityError, ReplayError, StoreError, KeyNotFoundError)):
            store.get(b"victim")

    def test_iv_tamper_detected(self, store, attacker):
        store.set(b"victim", b"original-value")
        addr = entry_addr(store, b"victim")
        attacker.flip_bit(addr + 17 + 4, 2)
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"victim")

    def test_set_on_tampered_bucket_detected(self, store, attacker):
        """Writes verify before blessing attacker-fed state (§4.3)."""
        store.set(b"victim", b"original-value")
        addr = entry_addr(store, b"victim")
        attacker.flip_bit(addr + HEADER_SIZE, 0)
        with pytest.raises((IntegrityError, ReplayError)):
            store.set(b"victim", b"replacement-val")


class TestReplay:
    def test_entry_replay_detected(self, store, attacker):
        store.set(b"victim", b"version-ONE")
        addr_v1 = entry_addr(store, b"victim")
        size = HEADER_SIZE + 6 + 11 + MAC_SIZE
        recorded_entry = attacker.snapshot(addr_v1, size)
        # Record the MAC bucket too when that optimization is on.
        bucket = store.keyring.keyed_bucket_hash(b"victim", store.config.num_buckets)
        recorded_macb = None
        if store.macbuckets is not None:
            mac_ptr = int.from_bytes(
                store.machine.memory.raw_read(
                    store.buckets.slot_addr(bucket) + 8, 8
                ),
                "little",
            )
            recorded_macb = attacker.snapshot(mac_ptr, store.macbuckets.node_size)
        store.set(b"victim", b"version-TWO")
        attacker.replay(recorded_entry)
        if recorded_macb is not None:
            attacker.replay(recorded_macb)
        with pytest.raises(ReplayError):
            store.get(b"victim")

    def test_chain_truncation_detected(self, store, attacker):
        """Hiding an entry by rewriting chain pointers must not produce
        an authenticated miss."""
        # Put several keys into one bucket's chain.
        keys = [f"key-{i}".encode() for i in range(24)]
        for key in keys:
            store.set(key, b"v")
        # Truncate every bucket chain to at most its head entry.
        for bucket in range(store.config.num_buckets):
            head = int.from_bytes(
                store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
                "little",
            )
            if head:
                attacker.write(head, struct.pack("<Q", 0))
        detected = 0
        for key in keys:
            try:
                store.get(key)
            except (ReplayError, IntegrityError):
                detected += 1
            except KeyNotFoundError:
                pytest.fail("truncated chain produced an authenticated miss")
        assert detected > 0

    def test_cross_bucket_splice_detected(self, store, attacker):
        """Moving a valid entry to a different bucket is caught by the
        per-set hashes even though the entry's own MAC verifies."""
        store.set(b"victim", b"value")
        addr = entry_addr(store, b"victim")
        victim_bucket = store.keyring.keyed_bucket_hash(
            b"victim", store.config.num_buckets
        )
        other_bucket = (victim_bucket + 1) % store.config.num_buckets
        attacker.write(
            store.buckets.slot_addr(other_bucket), struct.pack("<Q", addr)
        )
        attacker.write(store.buckets.slot_addr(victim_bucket), struct.pack("<Q", 0))
        with pytest.raises((ReplayError, IntegrityError, KeyNotFoundError)):
            store.get(b"victim")


class TestAvailabilityAttacks:
    def test_hint_corruption_tolerated_with_two_step(self, attacker=None):
        config = shield_opt(num_buckets=8, num_mac_hashes=8, two_step_search=True)
        store = ShieldStore(config)
        atk = Attacker(store.machine.memory)
        store.set(b"victim", b"value")
        addr = entry_addr(store, b"victim")
        atk.write(addr + 8, bytes([store.keyring.key_hint(b"victim") ^ 0xFF]))
        # Hint no longer matches, but the entry MAC covers the hint field,
        # so the tampering is detected rather than silently tolerated.
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"victim")

    def test_pointer_into_enclave_blocked(self):
        store = ShieldStore(shield_opt(num_buckets=8, num_mac_hashes=8))
        atk = Attacker(store.machine.memory)
        store.set(b"a", b"b")
        bucket = store.keyring.keyed_bucket_hash(b"a", store.config.num_buckets)
        atk.write(
            store.buckets.slot_addr(bucket),
            struct.pack("<Q", ENCLAVE_BASE + 4096),
        )
        with pytest.raises(PointerSafetyError):
            store.get(b"a")

    def test_pointer_check_disabled_is_vulnerable(self):
        """§7: without the range check the enclave would chase the pointer."""
        config = shield_opt(num_buckets=8, num_mac_hashes=8, pointer_check=False)
        store = ShieldStore(config)
        atk = Attacker(store.machine.memory)
        store.set(b"a", b"b")
        bucket = store.keyring.keyed_bucket_hash(b"a", store.config.num_buckets)
        atk.write(
            store.buckets.slot_addr(bucket),
            struct.pack("<Q", ENCLAVE_BASE + 4096),
        )
        with pytest.raises(Exception):  # crashes unsafely, but not PointerSafetyError
            store.get(b"a")

    @staticmethod
    def _two_keys_in_one_bucket(store):
        """Set two colliding keys (one full capacity-2 node); returns
        ``(bucket, node address, a third key of the same bucket)``."""
        by_bucket = {}
        for i in range(64):
            key = b"key-%d" % i
            bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
            by_bucket.setdefault(bucket, []).append(key)
        bucket, keys = next(item for item in by_bucket.items() if len(item[1]) >= 3)
        store.set(keys[0], b"one")
        store.set(keys[1], b"two")
        slot = store.buckets.slot_addr(bucket)
        (node,) = struct.unpack("<Q", store.machine.memory.raw_read(slot + 8, 8))
        return bucket, node, keys[2]

    def test_overflow_node_pointer_into_enclave_blocked(self):
        """§7 for MAC-bucket overflow links: a node's ``next_ptr`` aimed at
        the in-enclave set hashes (sixteen zero bytes parse as an empty
        node) must not be followed — or the next insert would write a node
        header and a MAC over them."""
        store = ShieldStore(
            shield_opt(num_buckets=8, num_mac_hashes=8, mac_bucket_capacity=2)
        )
        bucket, node, third = self._two_keys_in_one_bucket(store)
        empty_set = (bucket + 1) % 7          # its hash and the next are in range
        before = store.mactree.dump()
        assert before[16 * empty_set : 16 * empty_set + 16] == bytes(16)
        Attacker(store.machine.memory).write(
            node + 8, struct.pack("<Q", store.mactree.base + 16 * empty_set)
        )
        with pytest.raises(PointerSafetyError):
            store.set(third, b"three")
        assert store.mactree.dump() == before

    def test_overflow_node_cycle_cannot_amplify(self):
        """A self-referencing node stops every traversal after at most as
        many hops as there are live MAC nodes, as an integrity failure."""
        store = ShieldStore(
            shield_opt(num_buckets=8, num_mac_hashes=8, mac_bucket_capacity=2)
        )
        _bucket, node, third = self._two_keys_in_one_bucket(store)
        for i in range(20):
            store.set(b"other-%d" % i, b"v")
        Attacker(store.machine.memory).write(node + 8, struct.pack("<Q", node))
        counters = store.machine.counters
        for attempt in (
            lambda: store.get(third),
            lambda: store.set(third, b"three"),
            lambda: store.delete(third),
        ):
            reads = counters.mem_reads
            with pytest.raises(IntegrityError, match="cycle"):
                attempt()
            # Two reads per hop, plus the (two-pass) walk of a 2-entry chain.
            assert counters.mem_reads - reads <= 2 * store.macbuckets.nodes + 24

    def test_mac_bucket_pointer_corruption_detected(self, store, attacker):
        if store.macbuckets is None:
            pytest.skip("chained configuration has no MAC buckets")
        store.set(b"victim", b"value")
        bucket = store.keyring.keyed_bucket_hash(b"victim", store.config.num_buckets)
        attacker.write(store.buckets.slot_addr(bucket) + 8, struct.pack("<Q", 0))
        with pytest.raises((ReplayError, IntegrityError)):
            store.get(b"victim")
