"""In-enclave LRU cache (ShieldOpt+cache)."""

import pytest

from repro.core import EnclaveCache, ShieldStore, shield_opt
from repro.core.cache import clamp_touch_offset
from repro.sim import Enclave, Machine


@pytest.fixture
def enclave():
    return Enclave(Machine(), bytes(32))


@pytest.fixture
def ctx(enclave):
    return enclave.context()


@pytest.fixture
def cache(enclave):
    return EnclaveCache(enclave, capacity_bytes=1024)


class TestCacheSemantics:
    def test_miss_then_hit(self, cache, ctx):
        assert cache.lookup(ctx, b"k") is None
        cache.store(ctx, b"k", b"v")
        assert cache.lookup(ctx, b"k") == b"v"

    def test_update_replaces(self, cache, ctx):
        cache.store(ctx, b"k", b"v1")
        cache.store(ctx, b"k", b"v2")
        assert cache.lookup(ctx, b"k") == b"v2"
        assert len(cache) == 1

    def test_invalidate(self, cache, ctx):
        cache.store(ctx, b"k", b"v")
        cache.invalidate(b"k")
        assert cache.lookup(ctx, b"k") is None
        cache.invalidate(b"never-there")  # idempotent

    def test_byte_budget_evicts_lru(self, cache, ctx):
        for i in range(100):
            cache.store(ctx, f"key-{i:03d}".encode(), b"x" * 32)
        assert cache.bytes_used <= cache.capacity_bytes
        assert cache.lookup(ctx, b"key-000") is None  # oldest gone
        assert cache.lookup(ctx, b"key-099") == b"x" * 32

    def test_lru_refresh_on_hit(self, cache, ctx):
        cache.store(ctx, b"a", b"1" * 100)
        cache.store(ctx, b"b", b"2" * 100)
        cache.lookup(ctx, b"a")  # refresh a
        for i in range(20):
            cache.store(ctx, f"fill-{i}".encode(), b"z" * 100)
        # "a" was refreshed after "b", so "b" must be evicted first.
        order = [cache.lookup(ctx, b"a"), cache.lookup(ctx, b"b")]
        assert order[1] is None

    def test_oversized_value_not_cached(self, cache, ctx):
        cache.store(ctx, b"big", b"x" * 4096)
        assert cache.lookup(ctx, b"big") is None

    def test_oversized_update_drops_the_stale_copy(self, cache, ctx):
        """A value that outgrows the whole cache must not leave its
        previous (now stale) version behind to be served."""
        cache.store(ctx, b"k", b"old")
        cache.store(ctx, b"k", b"x" * 4096)
        assert cache.lookup(ctx, b"k") is None
        assert cache.bytes_used == 0

    def test_charges_cycles(self, cache, ctx):
        before = ctx.clock.cycles
        cache.store(ctx, b"k", b"v" * 64)
        cache.lookup(ctx, b"k")
        assert ctx.clock.cycles > before

    def test_rejects_zero_capacity(self, enclave):
        with pytest.raises(ValueError):
            EnclaveCache(enclave, 0)


class _TouchRecorder:
    """Stub memory capturing the (addr, size) spans _touch charges."""

    def __init__(self):
        self.spans = []

    def touch(self, ctx, addr, size, write):
        self.spans.append((addr, size))


class TestTouchClamp:
    """Regression: the old clamp (`offset % max(1, cap - size - 1)`)
    misaddressed near-capacity entries and degenerated to offset 0 for
    every entry once ``size >= capacity_bytes - 1``."""

    def test_offset_preserved_when_span_fits(self):
        # Old code: 512 % (1024 - 512 - 1) == 1, collapsing distinct
        # entries onto nearly the same page.  The span fits as-is, so
        # the offset must be preserved.
        assert clamp_touch_offset(512, 512, 1024) == 512

    def test_tail_pinned_inside_capacity(self):
        assert clamp_touch_offset(1000, 100, 1024) == 924
        assert clamp_touch_offset(2048 + 7, 16, 1024) == 7  # wraps first

    def test_full_capacity_span_maps_to_zero(self):
        # Old code divided by max(1, -1) and lost the span entirely.
        assert clamp_touch_offset(300, 1024, 1024) == 0
        assert clamp_touch_offset(300, 1023, 1024) == 1

    def test_touch_spans_stay_inside_allocation(self, cache):
        recorder = _TouchRecorder()
        cache._memory = recorder
        for offset, size in [(0, 64), (512, 512), (1000, 100), (5000, 1024)]:
            cache._touch(None, offset, size, write=False)
        for addr, size in recorder.spans:
            assert addr >= cache.base
            assert addr + size <= cache.base + cache.capacity_bytes


class TestCachedStore:
    def test_hit_skips_untrusted_walk(self):
        store = ShieldStore(
            shield_opt(num_buckets=32, num_mac_hashes=16, cache_bytes=64 * 1024)
        )
        store.set(b"hot", b"value")
        store.get(b"hot")
        decrypts_before = store.machine.counters.decryptions
        store.get(b"hot")  # cache hit: no decryption
        assert store.machine.counters.decryptions == decrypts_before
        assert store.stats.cache_hits >= 1

    def test_hit_is_faster_than_uncached_get(self):
        def get_cost(cache_bytes):
            store = ShieldStore(
                shield_opt(
                    num_buckets=32, num_mac_hashes=16, cache_bytes=cache_bytes
                )
            )
            store.set(b"hot", b"value" * 20)
            store.get(b"hot")  # warm LLC/EPC either way
            store.machine.reset_measurement()
            store.get(b"hot")
            return store.machine.clock.elapsed_cycles()

        assert get_cost(64 * 1024) < get_cost(0) / 2

    def test_delete_invalidates(self):
        store = ShieldStore(
            shield_opt(num_buckets=32, num_mac_hashes=16, cache_bytes=64 * 1024)
        )
        store.set(b"k", b"v")
        store.get(b"k")
        store.delete(b"k")
        assert not store.contains(b"k")

    def test_set_refreshes_cache(self):
        store = ShieldStore(
            shield_opt(num_buckets=32, num_mac_hashes=16, cache_bytes=64 * 1024)
        )
        store.set(b"k", b"v1")
        store.get(b"k")
        store.set(b"k", b"v2")
        assert store.get(b"k") == b"v2"
