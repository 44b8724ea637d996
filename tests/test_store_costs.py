"""Cost-model behaviour of the store: each §5 optimization must actually
save simulated cycles in the regime the paper claims it helps."""

import pytest

from repro.core import ShieldStore, shield_opt
from repro.crypto.keys import KeyRing
from repro.sim import Machine
from repro.sim.cycles import DEFAULT_COST_MODEL


def _get_cost(config_overrides, pairs, value=b"v" * 16, gets=300):
    store = ShieldStore(
        shield_opt(**{"num_buckets": 16, "num_mac_hashes": 16, **config_overrides})
    )
    keys = [f"key-{i:04d}".encode() for i in range(pairs)]
    for key in keys:
        store.set(key, value)
    store.machine.reset_measurement()
    for i in range(gets):
        store.get(keys[i % pairs])
    return store.machine.elapsed_us() / gets, store


class TestOptimizationSavings:
    def test_key_hint_saves_on_long_chains(self):
        with_hint, s1 = _get_cost({"key_hint_enabled": True}, pairs=320)
        without, s2 = _get_cost(
            {"key_hint_enabled": False, "two_step_search": False}, pairs=320
        )
        assert with_hint < without * 0.7
        assert s1.machine.counters.decryptions < s2.machine.counters.decryptions / 3

    def test_mac_bucketing_saves_on_long_chains(self):
        bucketed, _ = _get_cost({"mac_bucketing": True}, pairs=320)
        chained, _ = _get_cost({"mac_bucketing": False}, pairs=320)
        assert bucketed < chained

    def test_optimizations_negligible_on_short_chains(self):
        opt, _ = _get_cost({}, pairs=12)
        plain, _ = _get_cost(
            {"key_hint_enabled": False, "two_step_search": False,
             "mac_bucketing": False},
            pairs=12,
        )
        assert opt < plain * 1.3 and plain < opt * 2.5

    def test_extra_heap_saves_on_inserts(self):
        def insert_cost(use_extra_heap):
            store = ShieldStore(
                shield_opt(
                    num_buckets=256, num_mac_hashes=128,
                    use_extra_heap=use_extra_heap,
                )
            )
            store.machine.reset_measurement()
            for i in range(300):
                store.set(f"key-{i}".encode(), b"v" * 16)
            return store.machine.elapsed_us()

        assert insert_cost(True) < insert_cost(False) * 0.7


class TestCostScaling:
    def test_get_cost_grows_with_value_size(self):
        small, _ = _get_cost({}, pairs=64, value=b"v" * 16)
        large, _ = _get_cost({}, pairs=64, value=b"v" * 2048)
        assert large > small * 1.5

    def test_bucket_set_size_increases_integrity_cost(self):
        few_hashes, _ = _get_cost({"num_mac_hashes": 2, "num_buckets": 16}, pairs=160)
        many_hashes, _ = _get_cost({"num_mac_hashes": 16, "num_buckets": 16}, pairs=160)
        assert many_hashes < few_hashes

    def test_mactree_epc_overflow_causes_faults(self):
        """A MAC array beyond the (tiny) EPC pages on every op — Fig. 15."""
        from dataclasses import replace

        tiny = replace(
            DEFAULT_COST_MODEL,
            epc_effective_bytes=8 * 4096,
            llc_bytes=4096,
        )

        def run(num_hashes):
            machine = Machine(tiny)
            store = ShieldStore(
                shield_opt(num_buckets=16384, num_mac_hashes=num_hashes),
                machine=machine,
            )
            for i in range(100):
                store.set(f"key-{i:03d}".encode(), b"v")
            machine.reset_measurement()
            for i in range(300):
                store.get(f"key-{i % 100:03d}".encode())
            return machine.counters.epc_faults

        fits = run(1024)        # 16 KB of hashes: fits 32 KB EPC
        overflows = run(16384)  # 256 KB of hashes: pages constantly
        assert overflows > fits * 3 + 10

    def test_simulated_time_independent_of_host_speed(self):
        """Charging is deterministic: two identical runs agree exactly."""
        a, _ = _get_cost({}, pairs=50)
        b, _ = _get_cost({}, pairs=50)
        assert a == b


class TestKeyHintComputedOnce:
    """A write hashes its key hint once, in the lookup: an insert seals
    the entry with the lookup's hint, an update keeps the found entry's
    authenticated one."""

    @pytest.fixture
    def hint_calls(self, monkeypatch):
        calls = []
        real = KeyRing.key_hint

        def counting(keyring, key):
            calls.append(key)
            return real(keyring, key)

        monkeypatch.setattr(KeyRing, "key_hint", counting)
        return calls

    def test_one_hint_per_write(self, hint_calls):
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        steps = [
            (1, lambda: store.set(b"a", b"1")),            # insert
            (1, lambda: store.set(b"a", b"2")),            # update
            (1, lambda: store.get(b"a")),
            (3, lambda: store.multi_set(
                [(b"a", b"3"), (b"b", b"1"), (b"c", b"1")]
            )),
            (1, lambda: store.append(b"d", b"x")),         # insert
            (1, lambda: store.append(b"d", b"y")),         # update
            (1, lambda: store.increment(b"n", 2)),         # insert
            (1, lambda: store.increment(b"n")),            # update
            (1, lambda: store.compare_and_swap(b"a", b"3", b"4")),
            (1, lambda: store.compare_and_swap(b"a", b"x", b"5")),
        ]
        for expected, step in steps:
            del hint_calls[:]
            step()
            assert len(hint_calls) == expected, step

    @pytest.mark.parametrize("hints", [True, False])
    def test_every_entry_stores_its_keys_hint(self, hints):
        store = ShieldStore(
            shield_opt(num_buckets=4, num_mac_hashes=2, key_hint_enabled=hints)
        )
        model = {}
        for i in range(24):
            key = b"key-%d" % i
            store.set(key, b"v")
            model[key] = b"v"
        for i in range(0, 24, 3):
            key = b"key-%d" % i
            store.set(key, b"longer value")
            model[key] = store.append(key, b"!")
        store.multi_set([(b"key-1", b"m"), (b"new", b"m")])
        model.update({b"key-1": b"m", b"new": b"m"})
        assert dict(store.iter_items()) == model
        ctx = store._context(None)
        searches = store.stats.full_searches
        for key in model:
            found = store._lookup(ctx, key)[3]
            assert found.header[1] == store.keyring.key_hint(key)  # key_hint
        # A hit never falls back to the §5.4 full search.
        assert store.stats.full_searches == searches
