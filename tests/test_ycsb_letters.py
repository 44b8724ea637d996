"""YCSB lettered workloads, including E (scans) on the ordered stores."""

import pytest

from repro.ext.rangestore import RangeShieldStore
from repro.workloads import SMALL
from repro.workloads.ycsb_letters import (
    ScanOperation,
    ScanStream,
    letter_stream,
    run_scan_stream,
)


class TestCatalog:
    def test_letters_map_to_table2(self):
        assert letter_stream("A", SMALL, 100).spec.name == "RD50_Z"
        assert letter_stream("b", SMALL, 100).spec.name == "RD95_Z"
        assert letter_stream("C", SMALL, 100).spec.name == "RD100_Z"
        assert letter_stream("D", SMALL, 100).spec.name == "RD95_L"
        assert letter_stream("F", SMALL, 100).spec.name == "RMW50_Z"

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            letter_stream("Z", SMALL, 100)

    def test_e_is_scan_stream(self):
        assert isinstance(letter_stream("E", SMALL, 100), ScanStream)


class TestWorkloadE:
    def test_mix(self):
        stream = ScanStream(SMALL, 200, seed=3)
        ops = list(stream.operations(400))
        scans = [op for op in ops if isinstance(op, ScanOperation)]
        inserts = [op for op in ops if not isinstance(op, ScanOperation)]
        assert 0.9 < len(scans) / len(ops) < 0.99
        assert all(1 <= s.count <= 100 for s in scans)
        # Inserts use fresh keys past the preload population.
        assert all(op.key not in {} for op in inserts)

    def test_runs_on_range_store(self):
        store = RangeShieldStore(segment_size=16)
        stream = ScanStream(SMALL, 60, seed=5, max_scan_length=10)
        for op in stream.load_operations():
            store.set(op.key, op.value)
        rows = run_scan_stream(store, stream, 40)
        assert rows > 0
        assert len(store) >= 60

    def test_hash_store_cannot_serve_e(self):
        """The paper's §7 limitation, as an API fact."""
        from repro.core import ShieldStore, shield_opt

        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        assert not hasattr(store, "range")
