"""Enclave-resident verified-MAC cache: speed without losing detection.

The cache (repro.core.maccache) replaces the §4.3 gather + keyed-hash
recompute with an O(1) comparison against an enclave copy.  These tests
prove the three properties that make that sound:

* every attack the full verification catches is still caught, on both
  the cache-hit and the cache-miss path;
* every mutation path write-throughs the cached lists (coherence), and
  snapshot restore flushes them;
* the byte budget is enforced by LRU eviction without hurting
  correctness.
"""

import pytest

from repro.core import (
    MacSetCache,
    PartitionedShieldStore,
    PartitionSnapshotter,
    ShieldStore,
    shield_opt,
)
from repro.core.entry import HEADER_SIZE, MAC_SIZE, unpack_header
from repro.errors import IntegrityError, KeyNotFoundError, ReplayError
from repro.sim import (
    Attacker,
    Enclave,
    Machine,
    MonotonicCounterService,
)

# A replay against a cache hit is caught by the cached-MAC comparison
# (IntegrityError); against a miss, by the set hash (ReplayError).
DETECTED = (IntegrityError, ReplayError)

CACHE_KB = 64 * 1024


def cached_store(**overrides):
    params = dict(num_buckets=16, num_mac_hashes=8, mac_cache_bytes=CACHE_KB)
    params.update(overrides)
    return ShieldStore(shield_opt(**params))


def entry_addr(store, key: bytes) -> int:
    """Locate a key's entry record by walking raw chains."""
    bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
    mem = store.machine.memory
    addr = int.from_bytes(mem.raw_read(store.buckets.slot_addr(bucket), 8), "little")
    while addr:
        header = unpack_header(mem.raw_read(addr, HEADER_SIZE))
        enc_kv = mem.raw_read(addr + HEADER_SIZE, header.kv_size)
        plain = store.suite.decrypt(header.iv_ctr, enc_kv)
        if plain[: header.key_size] == key:
            return addr
        addr = header.next_ptr
    raise AssertionError(f"{key!r} not found in raw chains")


def replay_stale_version(store, attacker, key=b"victim"):
    """§3.3 replay: record entry (and MAC-bucket) state, mutate, restore."""
    store.set(key, b"version-ONE")
    addr = entry_addr(store, key)
    size = HEADER_SIZE + len(key) + 11 + MAC_SIZE
    recorded_entry = attacker.snapshot(addr, size)
    recorded_macb = None
    if store.macbuckets is not None:
        bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
        mac_ptr = int.from_bytes(
            store.machine.memory.raw_read(store.buckets.slot_addr(bucket) + 8, 8),
            "little",
        )
        recorded_macb = attacker.snapshot(mac_ptr, store.macbuckets.node_size)
    store.set(key, b"version-TWO")
    attacker.replay(recorded_entry)
    if recorded_macb is not None:
        attacker.replay(recorded_macb)


@pytest.fixture
def enclave():
    return Enclave(Machine(), bytes(32))


@pytest.fixture
def ctx(enclave):
    return enclave.context()


def mac_lists(buckets=2, per_bucket=3, tag=0):
    return {
        b: b"".join(bytes([tag, b, i]) + bytes(13) for i in range(per_bucket))
        for b in range(buckets)
    }


class TestMacSetCacheSemantics:
    def test_rejects_nonpositive_capacity(self, enclave):
        with pytest.raises(ValueError):
            MacSetCache(enclave, 0)

    def test_miss_then_hit_same_object(self, enclave, ctx):
        cache = MacSetCache(enclave, 4096)
        assert cache.lookup(ctx, 7) is None
        lists = mac_lists()
        cache.store(ctx, 7, lists)
        # The *same object* comes back: in-place mutation by the store's
        # write-through keeps the cached copy coherent.
        assert cache.lookup(ctx, 7) is lists

    def test_restore_reaccounts_cost(self, enclave, ctx):
        cache = MacSetCache(enclave, 4096)
        lists = mac_lists(per_bucket=2)
        cache.store(ctx, 1, lists)
        before = cache.bytes_used
        lists[0] += bytes(16)  # set grew by one MAC
        cache.store(ctx, 1, lists)
        assert cache.bytes_used == before + MAC_SIZE
        assert len(cache) == 1

    def test_budget_evicts_lru_and_counts(self, enclave, ctx):
        cost = MacSetCache._set_cost_bytes(mac_lists())
        cache = MacSetCache(enclave, capacity_bytes=3 * cost)
        for set_id in range(5):
            cache.store(ctx, set_id, mac_lists(tag=set_id))
        assert cache.bytes_used <= cache.capacity_bytes
        assert cache.evictions == 2
        assert cache.lookup(ctx, 0) is None  # oldest gone
        assert cache.lookup(ctx, 4) is not None

    def test_oversized_set_drops_stale_copy(self, enclave, ctx):
        small = mac_lists(per_bucket=1)
        cache = MacSetCache(
            enclave, capacity_bytes=MacSetCache._set_cost_bytes(small) + 8
        )
        cache.store(ctx, 3, small)
        assert cache.lookup(ctx, 3) is small
        grown = mac_lists(per_bucket=40)
        cache.store(ctx, 3, grown)
        # Too large to cache — but the stale small copy must be gone,
        # or a later hit would verify against pre-growth state.
        assert cache.lookup(ctx, 3) is None
        assert cache.bytes_used == 0

    def test_invalidate_and_clear(self, enclave, ctx):
        cache = MacSetCache(enclave, 4096)
        cache.store(ctx, 1, mac_lists())
        cache.store(ctx, 2, mac_lists(tag=1))
        cache.invalidate(1)
        assert cache.lookup(ctx, 1) is None
        assert cache.lookup(ctx, 2) is not None
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_used == 0

    def test_charges_cycles(self, enclave, ctx):
        cache = MacSetCache(enclave, 4096)
        before = ctx.clock.cycles
        cache.store(ctx, 1, mac_lists())
        cache.lookup(ctx, 1)
        assert ctx.clock.cycles > before


@pytest.fixture(params=["macbucket", "chained"])
def store(request):
    config = shield_opt(num_buckets=16, num_mac_hashes=8, mac_cache_bytes=CACHE_KB)
    if request.param == "chained":
        config = config.with_(mac_bucketing=False)
    return ShieldStore(config)


@pytest.fixture
def attacker(store):
    return Attacker(store.machine.memory)


class TestDetectionWithCacheOn:
    """The full §3.3 attack matrix must be caught on hit AND miss paths."""

    def test_replay_detected_on_hit_path(self, store, attacker):
        replay_stale_version(store, attacker)
        assert len(store.maccache) > 0  # the covering set is cached
        with pytest.raises(DETECTED):
            store.get(b"victim")

    def test_replay_detected_on_miss_path(self, store, attacker):
        replay_stale_version(store, attacker)
        store.maccache.clear()  # force the full §4.3 fallback
        misses = store.stats.mac_cache_misses
        with pytest.raises(DETECTED):
            store.get(b"victim")
        assert store.stats.mac_cache_misses == misses + 1

    def test_tamper_detected_on_hit_path(self, store, attacker):
        store.set(b"victim", b"original-value")
        store.get(b"victim")  # ensure the set is cached and hot
        attacker.flip_bit(entry_addr(store, b"victim") + HEADER_SIZE + 3, 5)
        hits = store.stats.mac_cache_hits
        with pytest.raises(DETECTED):
            store.get(b"victim")
        assert store.stats.mac_cache_hits == hits + 1

    def test_tamper_detected_on_miss_path(self, store, attacker):
        store.set(b"victim", b"original-value")
        attacker.flip_bit(entry_addr(store, b"victim") + HEADER_SIZE + 3, 5)
        store.maccache.clear()
        with pytest.raises(DETECTED):
            store.get(b"victim")

    def test_mac_tamper_detected_on_hit_path(self, store, attacker):
        """Corrupting the untrusted stored MAC cannot fool a cache hit:
        the enclave copy, not the stored copy, is what's compared."""
        store.set(b"victim", b"original-value")
        addr = entry_addr(store, b"victim")
        attacker.flip_bit(addr + HEADER_SIZE + 6 + 14 + 2, 1)
        if store.macbuckets is not None:
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
        # Entry ciphertext is intact and its recomputed MAC matches the
        # *cached* trusted MAC, so the read legitimately succeeds — the
        # stored MACs are untrusted transport, not ground truth.
        assert store.get(b"victim") == b"original-value"
        # The corruption surfaces the moment trust must be re-derived
        # from untrusted memory (miss path).
        store.maccache.clear()
        with pytest.raises(DETECTED):
            store.get(b"victim")


class TestCoherence:
    """Every mutation path write-throughs the cache; reads after any
    mutation verify (hit path) and return the fresh value."""

    def test_update_then_hot_read(self, store):
        store.set(b"k", b"v1")
        store.set(b"k", b"v2")
        hits = store.stats.mac_cache_hits
        assert store.get(b"k") == b"v2"
        assert store.stats.mac_cache_hits == hits + 1

    def test_insert_neighbors_then_read_all(self, store):
        keys = [f"key-{i:03d}".encode() for i in range(48)]
        for key in keys:
            store.set(key, b"val-" + key)
        for key in keys:
            assert store.get(key) == b"val-" + key

    def test_delete_then_neighbors_still_verify(self, store):
        keys = [f"key-{i:03d}".encode() for i in range(32)]
        for key in keys:
            store.set(key, b"v")
        for key in keys[::2]:
            store.delete(key)
        for key in keys[::2]:
            with pytest.raises(KeyNotFoundError):
                store.get(key)
        for key in keys[1::2]:
            assert store.get(key) == b"v"

    def test_append_cas_increment_then_hot_read(self, store):
        store.set(b"a", b"head")
        store.append(b"a", b"+tail")
        assert store.get(b"a") == b"head+tail"
        store.set(b"n", b"5")
        store.increment(b"n", 3)
        assert store.get(b"n") == b"8"
        store.set(b"c", b"old")
        assert store.compare_and_swap(b"c", b"old", b"new")
        assert store.get(b"c") == b"new"
        assert store.stats.mac_cache_hits > 0

    def test_batched_ops_coherent_and_hit(self, store):
        keys = [f"key-{i:03d}".encode() for i in range(64)]
        store.multi_set([(k, b"v0-" + k) for k in keys])
        reads = store.multi_get(keys)
        assert reads == {k: b"v0-" + k for k in keys}
        # Batched point reads run against the cache: every op verifies
        # via the enclave copy.
        assert store.stats.mac_cache_hits >= len(keys)
        store.multi_set([(k, b"v1-" + k) for k in keys])
        assert store.multi_get(keys) == {k: b"v1-" + k for k in keys}
        store.multi_delete(keys[:10])
        assert store.multi_get(keys[:10]) == {k: None for k in keys[:10]}

    def test_snapshot_restore_flushes_cache(self):
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        config = shield_opt(
            num_buckets=32, num_mac_hashes=16, mac_cache_bytes=CACHE_KB
        )
        source = PartitionedShieldStore(config, num_partitions=1)
        for i in range(40):
            source.set(f"key-{i}".encode(), f"value-{i}".encode())
        assert len(source.partitions[0].maccache) > 0
        opened = snapshotter.open(
            snapshotter.snapshot_bytes(source), config, num_partitions=1
        )
        (restored,) = opened.partitions
        # A store born from a section starts with cold enclave caches:
        # loading and verifying it must not seed them from blob bytes.
        assert len(restored.maccache) == 0
        assert len(restored.cache) == 0 if restored.cache else True
        for i in range(40):
            assert restored.get(f"key-{i}".encode()) == f"value-{i}".encode()


class TestBudgetAndStats:
    def test_eviction_at_budget_preserves_correctness(self):
        store = cached_store(
            num_buckets=64, num_mac_hashes=64, mac_cache_bytes=512
        )
        keys = [f"key-{i:04d}".encode() for i in range(128)]
        for key in keys:
            store.set(key, b"val-" + key)
        assert store.stats.mac_cache_evictions > 0
        assert store.maccache.bytes_used <= store.maccache.capacity_bytes
        for key in keys:
            assert store.get(key) == b"val-" + key
        assert store.stats.mac_cache_misses > 0  # evicted sets re-verify

    def test_hit_skips_set_verification_work(self):
        def hot_get_cycles(mac_cache_bytes):
            store = cached_store(
                num_buckets=128, num_mac_hashes=1, mac_cache_bytes=mac_cache_bytes
            )
            for i in range(256):  # one deep set: 128 buckets per set hash
                store.set(f"key-{i:03d}".encode(), b"v" * 24)
            store.get(b"key-007")  # warm LLC/EPC either way
            store.machine.reset_measurement()
            store.get(b"key-007")
            return store.machine.clock.elapsed_cycles()

        assert hot_get_cycles(CACHE_KB) < hot_get_cycles(0) / 2

    def test_stage_timers_accumulate(self):
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        for i in range(32):
            store.set(f"key-{i}".encode(), b"v")
        for i in range(32):
            store.get(f"key-{i}".encode())
        assert store.stats.stage_walk_s > 0
        assert store.stats.stage_crypto_s > 0
        assert store.stats.stage_verify_s > 0

    def test_cache_off_reports_no_counters(self):
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        assert store.maccache is None
        store.set(b"k", b"v")
        store.get(b"k")
        assert store.stats.mac_cache_hits == 0
        assert store.stats.mac_cache_misses == 0


class TestPartitionedPlumbing:
    def test_budgets_split_across_partitions(self):
        config = shield_opt(
            num_buckets=64,
            num_mac_hashes=32,
            mac_cache_bytes=CACHE_KB,
            cache_bytes=CACHE_KB,
        )
        store = PartitionedShieldStore(config, machine=Machine(num_threads=4))
        for part in store.partitions:
            assert part.maccache is not None
            assert part.maccache.capacity_bytes == CACHE_KB // 4
            assert part.cache is not None
            assert part.cache.capacity_bytes == CACHE_KB // 4
        keys = [f"key-{i:03d}".encode() for i in range(64)]
        store.multi_set([(k, b"v-" + k) for k in keys])
        assert store.multi_get(keys) == {k: b"v-" + k for k in keys}
        # The §6.3 plaintext cache answers hot reads before any MAC
        # verification runs, so reads split between the two caches.
        stats = store.stats()
        assert stats.mac_cache_hits > 0
        assert stats.mac_cache_hits + stats.cache_hits >= len(keys)
        store.close()

    def test_process_workers_use_the_cache(self):
        from repro.core import process_mode_supported

        if not process_mode_supported():
            pytest.skip("platform lacks process workers")
        config = shield_opt(
            num_buckets=64, num_mac_hashes=32, mac_cache_bytes=CACHE_KB
        )
        store = PartitionedShieldStore(
            config, num_partitions=2, mode="processes"
        )
        try:
            keys = [f"key-{i:03d}".encode() for i in range(64)]
            store.multi_set([(k, b"v-" + k) for k in keys])
            assert store.multi_get(keys) == {k: b"v-" + k for k in keys}
            stats = store.stats()
            # Counters ship back over the worker pipe and merge.
            assert stats.mac_cache_hits >= len(keys)
        finally:
            store.close()
