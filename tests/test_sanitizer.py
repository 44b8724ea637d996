"""Runtime crypto sanitizer: (key, IV-block-span) uniqueness, in one
process and across worker respawns / snapshot+WAL recovery runs.

The direct-API tests drive :func:`sanitizer.record` and the journal
merge; the integration tests run real stores with the sanitizer enabled
and assert the hot paths never trip it — these are the regression tests
for the IV-allocator fixes (one-block update overlap, deterministic
machine-RNG IVs, cross-incarnation WAL/oplog IVs).
"""

import pytest

from repro.analysis import sanitizer
from repro.core import (
    PartitionSnapshotter,
    PartitionedShieldStore,
    ShieldStore,
    shield_opt,
)
from repro.core.procpool import process_mode_supported
from repro.crypto.suite import FastSuite, ReferenceSuite
from repro.errors import NonceReuseError
from repro.sim import MonotonicCounterService

needs_processes = pytest.mark.skipif(
    not process_mode_supported(), reason="no multiprocess engine here"
)

MASTER = bytes(range(32))
KEY = b"0123456789abcdef"
KEY2 = b"fedcba9876543210"


def _iv(block: int) -> bytes:
    return block.to_bytes(16, "big")


@pytest.fixture(autouse=True)
def sanitizer_off():
    """Every test starts and ends with the sanitizer disabled."""
    sanitizer.disable()
    yield
    sanitizer.disable()


class TestRecordAPI:
    def test_overlap_raises(self):
        sanitizer.enable()
        sanitizer.record(KEY, _iv(0), 32, 16)  # blocks [0, 2)
        with pytest.raises(NonceReuseError, match="overlap"):
            sanitizer.record(KEY, _iv(1), 16, 16)  # block 1 again

    def test_exact_reuse_raises(self):
        sanitizer.enable()
        sanitizer.record(KEY, _iv(5), 16, 16)
        with pytest.raises(NonceReuseError):
            sanitizer.record(KEY, _iv(5), 16, 16)

    def test_contiguous_spans_merge(self):
        sanitizer.enable()
        sanitizer.record(KEY, _iv(0), 32, 16)
        sanitizer.record(KEY, _iv(2), 32, 16)
        stats = sanitizer.stats()
        assert stats["recorded"] == 2
        assert stats["spans"] == 1  # [0, 4) merged

    def test_distinct_keys_are_independent(self):
        sanitizer.enable()
        sanitizer.record(KEY, _iv(0), 16, 16)
        sanitizer.record(KEY2, _iv(0), 16, 16)
        assert sanitizer.stats()["keys"] == 2

    def test_counter_wraparound_is_tracked(self):
        sanitizer.enable()
        top = (1 << 128) - 1
        sanitizer.record(KEY, _iv(top), 32, 16)  # wraps into block 0
        with pytest.raises(NonceReuseError):
            sanitizer.record(KEY, _iv(0), 16, 16)

    def test_empty_payload_consumes_no_keystream(self):
        sanitizer.enable()
        sanitizer.record(KEY, _iv(0), 0, 16)
        sanitizer.record(KEY, _iv(0), 0, 16)
        assert sanitizer.stats()["recorded"] == 0

    def test_disabled_records_nothing(self):
        sanitizer.record(KEY, _iv(0), 16, 16)
        sanitizer.record(KEY, _iv(0), 16, 16)  # would raise if active
        assert not sanitizer.enabled()

    def test_block_size_scales_the_span(self):
        # 33 bytes of 32-byte chunks is 2 blocks, not 3.
        sanitizer.enable()
        sanitizer.record(KEY, _iv(0), 33, 32)
        sanitizer.record(KEY, _iv(2), 16, 32)  # block 2 is free
        with pytest.raises(NonceReuseError):
            sanitizer.record(KEY, _iv(1), 16, 32)


class TestSuiteHooks:
    def test_fast_suite_encrypt_records(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        suite.encrypt(_iv(0), b"x" * 40)
        assert sanitizer.stats()["recorded"] == 1
        with pytest.raises(NonceReuseError):
            suite.encrypt(_iv(0), b"y" * 40)

    def test_reference_suite_multi_block_span(self):
        sanitizer.enable()
        suite = ReferenceSuite(KEY, KEY2)
        suite.encrypt(_iv(0), b"x" * 33)  # blocks [0, 3)
        with pytest.raises(NonceReuseError):
            suite.encrypt(_iv(2), b"y")  # block 2 overlaps

    def test_encrypt_many_records_each_item(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        suite.encrypt_many([(_iv(0), b"a" * 8), (_iv(10), b"b" * 8)])
        assert sanitizer.stats()["recorded"] == 2
        with pytest.raises(NonceReuseError):
            suite.encrypt_many([(_iv(10), b"c" * 8)])

    def test_decrypt_does_not_record(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        blob = suite.encrypt(_iv(0), b"x" * 16)
        suite.decrypt(_iv(0), blob)
        suite.decrypt(_iv(0), blob)  # replay reads are legitimate
        assert sanitizer.stats()["recorded"] == 1


class TestRecordModeHooks:
    """A record-mode encryption is the single point (key, iv): the fast
    suite draws one XOF stream per IV, so adjacent IVs never overlap
    however long the records, and only a repeated IV is reuse."""

    def test_same_iv_twice_raises(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        suite.encrypt_record(_iv(7), b"x" * 40)
        assert sanitizer.stats()["recorded"] == 1
        with pytest.raises(NonceReuseError):
            suite.encrypt_record(_iv(7), b"y")

    def test_consecutive_ivs_with_long_payloads_are_clean(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        for block in range(8):
            suite.encrypt_record(_iv(block), b"x" * 10_000)
        assert sanitizer.stats()["recorded"] == 8

    def test_reference_suite_records_its_ctr_span(self):
        """Its record mode is AES-CTR, so block spans still apply."""
        sanitizer.enable()
        suite = ReferenceSuite(KEY, KEY2)
        suite.encrypt_record(_iv(0), b"x" * 33)  # blocks [0, 3)
        with pytest.raises(NonceReuseError):
            suite.encrypt_record(_iv(2), b"y")

    def test_decrypt_record_does_not_record(self):
        sanitizer.enable()
        suite = FastSuite(KEY, KEY2)
        blob = suite.encrypt_record(_iv(0), b"x" * 16)
        suite.decrypt_record(_iv(0), blob)
        suite.decrypt_record(_iv(0), blob)
        assert sanitizer.stats()["recorded"] == 1

    def test_channel_stream_is_clean_and_replayed_seal_is_not(self):
        from repro.net.message import SecureChannel

        sanitizer.enable()
        client = SecureChannel(FastSuite(KEY, KEY2), "client")
        server = SecureChannel(FastSuite(KEY, KEY2), "server")
        for _ in range(4):
            assert server.open(client.seal(b"q" * 10_000)) == b"q" * 10_000
            assert client.open(server.seal(b"r" * 10_000)) == b"r" * 10_000
        assert sanitizer.stats()["recorded"] == 8
        client._send_seq = 0  # a channel that restarted its counter
        with pytest.raises(NonceReuseError):
            client.seal(b"again")

    @needs_processes
    def test_shm_pool_round_trip_is_globally_clean(self, tmp_path):
        """Both plane directions of a 2-worker shm pool seal multi-kB
        batch frames in record mode; every process's journal merges."""
        journal_dir = str(tmp_path / "journals")
        sanitizer.enable(journal_dir)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            num_partitions=2,
            mode="processes",
            data_plane="shm",
            master_secret=MASTER,
        )
        try:
            items = {b"key-%03d" % i: b"v" * 200 + b"%03d" % i for i in range(64)}
            store.multi_set(items)
            assert store.multi_get(list(items)) == items
        finally:
            store.close()
        sanitizer.disable()
        report = sanitizer.global_check(journal_dir)
        assert report.processes >= 3  # parent + two workers
        assert report.records > 0


class TestStoreRegression:
    """The IV-allocator fixes, pinned: heavy mutation churn under the
    sanitizer must never reuse keystream."""

    def test_update_churn_is_unique(self):
        sanitizer.enable()
        store = ShieldStore(shield_opt(num_buckets=32, num_mac_hashes=16))
        for round_no in range(30):
            # growing values force multi-block records — the old
            # one-block IV advance would overlap from round 2 on.
            store.set(b"hot-key", b"v" * (8 + round_no * 7))
        store.delete(b"hot-key")
        store.set(b"hot-key", b"back again, same hash chain slot")
        assert sanitizer.stats()["recorded"] > 0

    def test_two_incarnations_same_master_are_disjoint(self, tmp_path):
        """Same master secret, same seeded machine, two processes'
        worth of stores: the old machine-RNG IVs collided here."""
        journal_dir = str(tmp_path / "journals")
        sanitizer.enable(journal_dir)
        for _ in range(2):
            store = ShieldStore(
                shield_opt(num_buckets=32, num_mac_hashes=16),
                master_secret=MASTER,
            )
            for i in range(10):
                store.set(b"key-%d" % i, b"value-%d" % i)
        report = sanitizer.global_check(journal_dir)
        assert report.records > 0

    def test_snapshot_restore_cycle_is_unique(self, tmp_path):
        journal_dir = str(tmp_path / "journals")
        sanitizer.enable(journal_dir)
        counters = MonotonicCounterService()
        config = shield_opt(num_buckets=64, num_mac_hashes=16)
        shape = dict(num_partitions=2, master_secret=MASTER)
        store = PartitionedShieldStore(config, **shape)
        snapshotter = PartitionSnapshotter(counters)
        for i in range(12):
            store.set(b"key-%d" % i, b"value-%d" % i)
        blob = snapshotter.snapshot_bytes(store)
        store.close()
        # Open a fresh incarnation of the same master secret:
        # re-encrypted entries and the next snapshot must use fresh IVs.
        fresh = snapshotter.open(blob, config, **shape)
        for i in range(12):
            assert fresh.get(b"key-%d" % i) == b"value-%d" % i
        fresh.set(b"key-0", b"rewritten after restore")
        snapshotter.snapshot_bytes(fresh)
        fresh.close()
        report = sanitizer.global_check(journal_dir)
        assert report.records > 0


@needs_processes
class TestCrossProcess:
    def test_worker_respawn_and_wal_recovery(self, tmp_path):
        """SIGKILL every worker mid-stream: the respawned incarnations
        replay the WAL (decrypt only) and continue encrypting under the
        same master secret — journals must still be globally disjoint."""
        journal_dir = str(tmp_path / "journals")
        sanitizer.enable(journal_dir)
        store = PartitionedShieldStore(
            shield_opt(num_buckets=256, num_mac_hashes=64),
            num_partitions=2,
            mode="processes",
            master_secret=MASTER,
            wal_dir=str(tmp_path / "wal"),
        )
        expected = {}
        for i in range(24):
            key, value = b"key-%03d" % i, b"val-%03d" % i
            store.set(key, value)
            expected[key] = value
        for handle in store._pool.workers:
            handle.process.kill()
            handle.process.wait()
        recovered = {}
        for key in expected:
            try:
                recovered[key] = store.get(key)
            except Exception:
                recovered[key] = store.get(key)  # retry after respawn
        assert recovered == expected
        # Post-recovery writes keep consuming fresh keystream.
        for i in range(8):
            store.set(b"post-%d" % i, b"pv-%d" % i)
        store.close()
        sanitizer.disable()
        report = sanitizer.global_check(journal_dir)
        assert report.records > 0
        assert report.processes >= 2  # parent + at least one worker

    def test_global_check_flags_cross_process_overlap(self, tmp_path):
        """Seed two fake process journals that disagree: the merge must
        catch what no single process could see."""
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir()
        (journal_dir / "crypto-1.journal").write_text(
            "aaaa 0 4\naaaa 100 2\n"
        )
        (journal_dir / "crypto-2.journal").write_text("aaaa 2 4\n")
        with pytest.raises(NonceReuseError, match="overlap"):
            sanitizer.global_check(str(journal_dir))

    def test_global_check_skips_torn_tail(self, tmp_path):
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir()
        (journal_dir / "crypto-1.journal").write_text(
            "aaaa 0 4\naaaa 10"  # killed mid-write
        )
        report = sanitizer.global_check(str(journal_dir))
        assert report.records == 1
        assert report.processes == 1

    def test_global_check_requires_a_directory(self):
        with pytest.raises(NonceReuseError, match="journal directory"):
            sanitizer.global_check(None)
