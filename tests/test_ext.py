"""Extensions: skiplist, verified range store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    IntegrityError,
    KeyNotFoundError,
    ReplayError,
)
from repro.ext.rangestore import RangeShieldStore
from repro.ext.skiplist import SkipList
from repro.sim import Attacker


class TestSkipList:
    def test_insert_search_delete(self):
        sl = SkipList()
        assert sl.insert(b"b", 2)
        assert sl.insert(b"a", 1)
        assert not sl.insert(b"a", 10)  # update
        assert sl.search(b"a") == 10
        assert sl.search(b"zz") is None
        assert sl.delete(b"a")
        assert not sl.delete(b"a")
        assert len(sl) == 1

    def test_items_ordered(self):
        sl = SkipList()
        for i in (5, 1, 9, 3, 7):
            sl.insert(f"k{i}".encode(), i)
        assert [k for k, _ in sl.items()] == [b"k1", b"k3", b"k5", b"k7", b"k9"]

    def test_range_bounds(self):
        sl = SkipList()
        for i in range(10):
            sl.insert(f"k{i}".encode(), i)
        assert [v for _, v in sl.range(b"k3", b"k7")] == [3, 4, 5, 6]
        assert list(sl.range(b"x", b"z")) == []

    @given(
        keys=st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_sorted_dict(self, keys):
        sl = SkipList()
        model = {}
        for i, key in enumerate(keys):
            sl.insert(key, i)
            model[key] = i
        assert [k for k, _ in sl.items()] == sorted(model)
        assert len(sl) == len(model)


class TestRangeStore:
    @pytest.fixture
    def store(self):
        store = RangeShieldStore(segment_size=4)
        for i in range(20):
            store.set(f"user:{i:03d}".encode(), f"data-{i}".encode())
        return store

    def test_point_ops(self, store):
        assert store.get(b"user:007") == b"data-7"
        store.set(b"user:007", b"updated")
        assert store.get(b"user:007") == b"updated"
        store.delete(b"user:007")
        with pytest.raises(KeyNotFoundError):
            store.get(b"user:007")
        assert len(store) == 19

    def test_range_query(self, store):
        results = list(store.range(b"user:005", b"user:010"))
        assert [k for k, _ in results] == [
            f"user:{i:03d}".encode() for i in range(5, 10)
        ]
        assert results[0][1] == b"data-5"

    def test_range_is_ordered_across_segments(self, store):
        keys = [k for k, _ in store.range(b"user:000", b"user:999")]
        assert keys == sorted(keys)
        assert len(keys) == 20

    def test_values_encrypted_in_untrusted_memory(self, store):
        atk = Attacker(store.machine.memory)
        for base, size in atk.untrusted_allocations():
            assert b"data-7" not in atk.read(base, size)

    def test_tampered_entry_detected(self, store):
        atk = Attacker(store.machine.memory)
        addr = store._index.search(b"user:003")
        atk.flip_bit(addr + 40, 2)
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"user:003")
        with pytest.raises((IntegrityError, ReplayError)):
            list(store.range(b"user:000", b"user:009"))

    def test_replayed_entry_detected(self, store):
        atk = Attacker(store.machine.memory)
        addr_v1 = store._index.search(b"user:004")
        from repro.core.entry import entry_total_size

        size = entry_total_size(8, 6)
        recorded = atk.snapshot(addr_v1, size)
        store.set(b"user:004", b"newer!")
        new_addr = store._index.search(b"user:004")
        if new_addr == addr_v1:
            atk.replay(recorded)
        else:
            atk.write(new_addr, recorded[1][: size])
        with pytest.raises((IntegrityError, ReplayError)):
            store.get(b"user:004")

    def test_range_charges_simulated_time(self, store):
        before = store.machine.elapsed_us()
        list(store.range(b"user:000", b"user:020"))
        assert store.machine.elapsed_us() > before

