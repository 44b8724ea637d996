"""Utilities, errors, stats — the small shared pieces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.core.stats import StoreStats
from repro.util import fnv1a, stable_seed, usable_cpus


class TestFnv:
    def test_known_value(self):
        # FNV-1a 64-bit of empty input is the offset basis.
        assert fnv1a(b"") == 0xCBF29CE484222325

    def test_deterministic_across_processes(self):
        assert fnv1a(b"hello") == fnv1a(b"hello")
        assert fnv1a(b"hello") != fnv1a(b"hellp")

    @given(data=st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_fits_64_bits(self, data):
        assert 0 <= fnv1a(data) < 2**64


class TestStableSeed:
    def test_order_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_mixed_types(self):
        assert stable_seed(1, "x") == stable_seed(1, "x")
        assert 0 <= stable_seed("anything", 42) < 2**31


class TestUsableCpus:
    """The affinity mask, not the machine's size, is what a pool may use."""

    def test_counts_the_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert usable_cpus() == 1
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False
        )
        assert usable_cpus() == 4

    def test_falls_back_to_the_machine_size_then_to_one(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj in (
                    errors.ReproError,
                )

    def test_key_not_found_is_key_error(self):
        # Callers may catch either the library error or builtin KeyError.
        assert issubclass(errors.KeyNotFoundError, KeyError)

    def test_replay_is_integrity(self):
        assert issubclass(errors.ReplayError, errors.IntegrityError)

    def test_rollback_is_sealing(self):
        assert issubclass(errors.RollbackError, errors.SealingError)

    def test_pointer_safety_is_enclave(self):
        assert issubclass(errors.PointerSafetyError, errors.EnclaveError)


class TestStoreStats:
    def test_merge_sums_everything(self):
        a = StoreStats(gets=3, sets=1, hint_skips=10)
        b = StoreStats(gets=2, deletes=4, snapshot_stall_us=1.5)
        merged = a.merge(b)
        assert merged.gets == 5
        assert merged.sets == 1
        assert merged.deletes == 4
        assert merged.hint_skips == 10
        assert merged.snapshot_stall_us == 1.5
        # Inputs untouched.
        assert a.gets == 3 and b.gets == 2

    def test_operations_counts_client_visible(self):
        stats = StoreStats(gets=2, sets=3, deletes=1, appends=4, increments=5)
        assert stats.operations == 15

    def test_snapshot_dict(self):
        stats = StoreStats(gets=7)
        d = stats.snapshot_dict()
        assert d["gets"] == 7
        assert "chain_steps" in d
