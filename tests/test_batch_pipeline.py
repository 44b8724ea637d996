"""Batched write pipeline: multi_set/multi_delete semantics, amortization
counters, mid-batch tamper detection, and the partition router (engine
equivalence lives in ``test_engine_equivalence.py``)."""

import pytest

from repro.core import (
    PartitionedShieldStore,
    ShieldStore,
    WriteAheadLog,
    apply_request,
    shield_opt,
)
from repro.core import store as store_module
from repro.errors import IntegrityError, KeyNotFoundError, ReplayError
from repro.sim import Attacker, Machine


@pytest.fixture
def store():
    return ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=4))


class TestMultiSet:
    def test_round_trip(self, store):
        items = {f"key-{i:02d}".encode(): f"value-{i}".encode() for i in range(30)}
        store.multi_set(items)
        assert store.multi_get(list(items)) == items

    def test_accepts_pairs(self, store):
        store.multi_set([(b"a", b"1"), (b"b", b"2")])
        assert store.get(b"a") == b"1"
        assert store.get(b"b") == b"2"

    def test_overwrites_and_inserts_mixed(self, store):
        store.set(b"old", b"before")
        store.multi_set({b"old": b"after", b"new": b"fresh"})
        assert store.get(b"old") == b"after"
        assert store.get(b"new") == b"fresh"

    def test_last_write_wins_within_batch(self, store):
        store.multi_set([(b"dup", b"first"), (b"dup", b"second")])
        assert store.get(b"dup") == b"second"

    def test_empty_batch(self, store):
        store.multi_set([])
        assert len(store) == 0

    def test_matches_single_sets(self):
        """Batched writes leave the same readable state as single sets."""
        single = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=4))
        batched = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=4))
        items = [(f"k{i}".encode(), f"v{i}".encode() * 3) for i in range(40)]
        for key, value in items:
            single.set(key, value)
        batched.multi_set(items)
        for key, _ in items:
            assert batched.get(key) == single.get(key)
        assert batched.audit() == single.audit()

    def test_store_consistent_after_batch(self, store):
        """Deferred set updates flush before the batch returns."""
        store.multi_set({f"k{i}".encode(): b"v" for i in range(50)})
        assert store.audit() == 50


class TestMultiDelete:
    def test_deletes_and_reports(self, store):
        store.multi_set({b"a": b"1", b"b": b"2"})
        results = store.multi_delete([b"a", b"absent", b"b"])
        assert results == {b"a": True, b"absent": False, b"b": True}
        assert len(store) == 0
        with pytest.raises(KeyNotFoundError):
            store.get(b"a")

    def test_duplicate_key_reports_first_outcome(self, store):
        store.set(b"once", b"v")
        results = store.multi_delete([b"once", b"once"])
        assert results == {b"once": True}

    def test_survivors_still_readable(self, store):
        items = {f"k{i}".encode(): f"v{i}".encode() for i in range(30)}
        store.multi_set(items)
        doomed = [k for i, k in enumerate(sorted(items)) if i % 3 == 0]
        store.multi_delete(doomed)
        for key, value in items.items():
            if key in doomed:
                with pytest.raises(KeyNotFoundError):
                    store.get(key)
            else:
                assert store.get(key) == value
        assert store.audit() == len(items) - len(doomed)


class TestBatchLogPayload:
    """A batch is encoded for the log only when a log is attached."""

    MASTER = bytes(range(32))

    @pytest.fixture
    def encoded(self, monkeypatch):
        calls = []
        for name in ("encode_multi_items", "encode_multi_keys"):
            real = getattr(store_module, name)

            def spy(arg, real=real, name=name):
                calls.append(name)
                return real(arg)

            monkeypatch.setattr(store_module, name, spy)
        return calls

    def _attach_log(self, store, directory):
        store.wal = WriteAheadLog.recover(
            str(directory), 0, self.MASTER, store.config.suite_name, 0,
            apply=lambda req: apply_request(store, req), sync_ms=0.0,
        )

    def test_no_log_encodes_nothing(self, store, encoded):
        store.multi_set({b"a": b"1", b"b": b"2"})
        assert store.multi_delete([b"a"]) == {b"a": True}
        assert encoded == []

    def test_logged_batches_replay(self, tmp_path, encoded):
        config = shield_opt(num_buckets=16, num_mac_hashes=4)
        store = ShieldStore(config, master_secret=self.MASTER)
        self._attach_log(store, tmp_path)
        store.multi_set({b"a": b"1", b"b": b"2", b"c": b"3"})
        store.multi_delete([b"b", b"absent"])
        store.wal.close()
        assert encoded == ["encode_multi_items", "encode_multi_keys"]
        replayed = ShieldStore(config, master_secret=self.MASTER)
        self._attach_log(replayed, tmp_path)
        replayed.wal.close()
        assert dict(replayed.iter_items()) == {b"a": b"1", b"c": b"3"}


class TestAmortizationCounters:
    def test_batch_spanning_many_sets(self):
        """A batch across every MAC set verifies each set exactly once."""
        s = ShieldStore(shield_opt(num_buckets=32, num_mac_hashes=8))
        items = {f"key-{i:03d}".encode(): b"v" * 16 for i in range(96)}
        s.multi_set(items)
        assert s.stats.batches == 1
        assert s.stats.batch_ops == len(items)
        # Every one of the 8 sets was touched, but none more than once.
        assert s.stats.batch_sets_verified <= 8
        assert (
            s.stats.batch_sets_verified + s.stats.batch_verifications_saved
            == len(items)
        )
        assert s.stats.batch_verifications_saved >= len(items) - 8
        # Mutations beyond one per dirty set skipped their hash update.
        assert s.stats.batch_set_updates_saved >= len(items) - 8

    def test_single_ops_leave_counters_alone(self, store):
        store.set(b"k", b"v")
        store.get(b"k")
        store.delete(b"k")
        assert store.stats.batches == 0
        assert store.stats.batch_ops == 0
        assert store.stats.batch_sets_verified == 0

    def test_batched_writes_cheaper_than_singles(self):
        """Deferred set updates show up as simulated-time savings."""

        def run(batched):
            s = ShieldStore(shield_opt(num_buckets=8, num_mac_hashes=2))
            keys = [f"key-{i:02d}".encode() for i in range(48)]
            for key in keys:
                s.set(key, b"v" * 32)
            updates = [(key, b"w" * 32) for key in keys]
            s.machine.reset_measurement()
            if batched:
                s.multi_set(updates)
            else:
                for key, value in updates:
                    s.set(key, value)
            return s.machine.elapsed_us()

        assert run(batched=True) < run(batched=False) * 0.8


class TestTamperDetection:
    def _corrupt(self, store, key):
        """Flip a bit in a stored entry MAC (§5.2 MAC bucket node).

        A write batch never re-reads old ciphertext (it overwrites it),
        so its detection surface is the bucket-set hash over the MAC
        array — tamper there and the batch's one-time set verification
        must catch it.
        """
        attacker = Attacker(store.machine.memory)
        bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
        mac_head = int.from_bytes(
            store.machine.memory.raw_read(store.buckets.slot_addr(bucket) + 8, 8),
            "little",
        )
        attacker.flip_bit(mac_head + 16, 1)  # first MAC slot of the node

    def test_multi_set_detects_mid_batch_tamper(self, store):
        keys = [f"key-{i:02d}".encode() for i in range(40)]
        store.multi_set({k: b"v" for k in keys})
        self._corrupt(store, keys[7])
        with pytest.raises((IntegrityError, ReplayError)):
            store.multi_set({k: b"new" for k in keys})

    def test_multi_delete_detects_mid_batch_tamper(self, store):
        keys = [f"key-{i:02d}".encode() for i in range(40)]
        store.multi_set({k: b"v" for k in keys})
        self._corrupt(store, keys[7])
        with pytest.raises((IntegrityError, ReplayError)):
            store.multi_delete(keys)

    def test_store_usable_after_failed_batch(self, store):
        """The dirty-set flush runs even when verification aborts the
        batch, so untouched sets stay readable afterwards."""
        keys = [f"key-{i:02d}".encode() for i in range(40)]
        store.multi_set({k: b"v" for k in keys})
        self._corrupt(store, keys[7])
        with pytest.raises((IntegrityError, ReplayError)):
            store.multi_set({k: b"new" for k in keys})
        surviving = [k for k in keys if k != keys[7]]
        readable = 0
        for key in surviving:
            try:
                store.get(key)
                readable += 1
            except (IntegrityError, ReplayError):
                pass  # keys sharing the tampered set stay poisoned
        assert readable > 0


class TestParallelRouter:
    def test_parallel_multi_delete(self):
        machine = Machine(num_threads=4)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            machine=machine,
        )
        try:
            keys = [f"key-{i:03d}".encode() for i in range(120)]
            store.multi_set([(k, b"v-" + k) for k in keys])
            results = store.multi_delete(keys[:60] + [b"absent"])
            assert all(results[k] for k in keys[:60])
            assert results[b"absent"] is False
            assert len(store) == 60
        finally:
            store.close()

    def test_close_is_idempotent(self):
        machine = Machine(num_threads=2)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=128, num_mac_hashes=32),
            machine=machine,
        )
        store.multi_set([(b"a", b"1"), (b"b", b"2")])
        store.close()
        store.close()
