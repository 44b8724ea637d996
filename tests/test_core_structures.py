"""Entry codec, allocators, bucket table, MAC buckets, MAC tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import ExtraHeapAllocator, OcallAllocator, make_allocator
from repro.core.entry import (
    HEADER_SIZE,
    EntryHeader,
    entry_total_size,
    mac_message,
    mac_span,
    pack_header,
    unpack_header,
)
from repro.core.hashindex import BucketTable
from repro.core.macbucket import MacBucketStore
from repro.core.mactree import MacTree
from repro.crypto.suite import make_suite
from repro.errors import (
    AllocationError,
    PointerSafetyError,
    ReplayError,
    StoreError,
)
from repro.sim import Enclave, Machine
from repro.sim.memory import ENCLAVE_BASE


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def enclave(machine):
    return Enclave(machine, bytes(32))


@pytest.fixture
def ctx(enclave):
    return enclave.context()


@pytest.fixture
def suite():
    return make_suite("fast-hashlib", bytes(16), bytes(range(16)))


class TestEntryCodec:
    def test_roundtrip(self):
        header = EntryHeader(0x1234, 7, 16, 512, bytes(range(16)))
        assert unpack_header(pack_header(header)) == header

    def test_sizes(self):
        assert entry_total_size(16, 512) == HEADER_SIZE + 16 + 512 + 16
        header = EntryHeader(0, 0, 16, 512, bytes(16))
        assert header.kv_size == 528
        assert header.total_size == entry_total_size(16, 512)

    def test_mac_message_binds_fields(self):
        h1 = EntryHeader(0, 7, 4, 4, bytes(16))
        h2 = EntryHeader(0, 8, 4, 4, bytes(16))  # different hint
        assert mac_message(h1, b"12345678") != mac_message(h2, b"12345678")
        h3 = EntryHeader(0, 7, 4, 4, bytes(15) + b"\x01")  # different IV
        assert mac_message(h1, b"12345678") != mac_message(h3, b"12345678")

    def test_mac_message_excludes_next_ptr(self):
        """The chain pointer is untrusted metadata, deliberately unbound."""
        h1 = EntryHeader(0xAAAA, 7, 4, 4, bytes(16))
        h2 = EntryHeader(0xBBBB, 7, 4, 4, bytes(16))
        assert mac_message(h1, b"12345678") == mac_message(h2, b"12345678")

    def test_bad_header_rejected(self):
        with pytest.raises(StoreError):
            unpack_header(b"short")
        with pytest.raises(StoreError):
            pack_header(EntryHeader(0, 300, 4, 4, bytes(16)))
        with pytest.raises(StoreError):
            pack_header(EntryHeader(0, 0, 4, 4, bytes(8)))

    @given(
        next_ptr=st.integers(0, 2**64 - 1),
        hint=st.integers(0, 255),
        ksize=st.integers(0, 2**32 - 1),
        vsize=st.integers(0, 2**32 - 1),
        iv=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, next_ptr, hint, ksize, vsize, iv):
        header = EntryHeader(next_ptr, hint, ksize, vsize, iv)
        assert unpack_header(pack_header(header)) == header


class TestAllocators:
    def test_ocall_allocator_exits_every_time(self, enclave, ctx):
        alloc = OcallAllocator(enclave)
        before = enclave.machine.counters.ocalls
        a = alloc.alloc(ctx, 100)
        b = alloc.alloc(ctx, 100)
        assert a != b
        assert enclave.machine.counters.ocalls == before + 2
        assert alloc.ocalls == 2

    def test_extra_heap_batches_ocalls(self, enclave, ctx):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=64 * 1024)
        for _ in range(100):
            alloc.alloc(ctx, 256)
        assert alloc.ocalls == 1  # one chunk covers all
        assert alloc.requests == 100

    def test_extra_heap_fetches_more_chunks(self, enclave, ctx):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=4096)
        for _ in range(100):
            alloc.alloc(ctx, 256)
        assert alloc.ocalls >= 7

    def test_free_list_reuse(self, enclave, ctx):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=64 * 1024)
        a = alloc.alloc(ctx, 100)
        alloc.free(ctx, a, 100)
        b = alloc.alloc(ctx, 100)
        assert a == b

    def test_oversized_request_gets_own_chunk(self, enclave, ctx):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=4096)
        addr = alloc.alloc(ctx, 100_000)
        enclave.machine.memory.write(ctx, addr + 99_000, b"end")

    def test_fragmentation_metric(self, enclave, ctx):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=64 * 1024)
        alloc.alloc(ctx, 100)
        assert 0.0 < alloc.internal_fragmentation < 1.0

    def test_bad_sizes(self, enclave, ctx):
        with pytest.raises(AllocationError):
            ExtraHeapAllocator(enclave, chunk_bytes=100)
        alloc = make_allocator(enclave, True, 4096)
        with pytest.raises(AllocationError):
            alloc.alloc(ctx, 0)

    def test_factory(self, enclave):
        assert isinstance(make_allocator(enclave, True, 4096), ExtraHeapAllocator)
        assert isinstance(make_allocator(enclave, False, 4096), OcallAllocator)


class TestBucketTable:
    def test_slots_roundtrip(self, enclave, ctx):
        table = BucketTable(enclave, 16)
        assert table.read_head(ctx, 3) == 0
        table.write_head(ctx, 3, 0xABCD)
        table.write_mac_ptr(ctx, 3, 0x1234)
        assert table.read_head(ctx, 3) == 0xABCD
        assert table.read_mac_ptr(ctx, 3) == 0x1234
        # Neighbours unaffected.
        assert table.read_head(ctx, 2) == 0
        assert table.read_head(ctx, 4) == 0

    def test_range_check(self, enclave, ctx):
        table = BucketTable(enclave, 4)
        with pytest.raises(IndexError):
            table.slot_addr(4)

    def test_pointer_check(self, enclave, ctx):
        table = BucketTable(enclave, 4)
        table.write_head(ctx, 0, ENCLAVE_BASE + 64)
        with pytest.raises(PointerSafetyError):
            table.read_head(ctx, 0, check=True)
        # Disabled check lets it through (availability-vs-safety knob).
        assert table.read_head(ctx, 0, check=False) == ENCLAVE_BASE + 64


class TestMacBuckets:
    @pytest.fixture
    def macstore(self, enclave):
        alloc = ExtraHeapAllocator(enclave, chunk_bytes=64 * 1024)
        return MacBucketStore(enclave, alloc, capacity=4)

    def _mac(self, i):
        return bytes([i]) * 16

    def test_insert_front_order(self, machine, enclave, ctx, macstore):
        head = 0
        for i in range(3):
            head = macstore.insert_front(ctx, head, self._mac(i))
        assert macstore.read(ctx, head) == self._mac(2) + self._mac(1) + self._mac(0)

    def test_overflow_chains(self, machine, ctx, macstore):
        head = 0
        for i in range(10):
            head = macstore.insert_front(ctx, head, self._mac(i))
        macs = macstore.read(ctx, head)
        assert macs == b"".join(self._mac(i) for i in reversed(range(10)))

    def test_replace(self, machine, ctx, macstore):
        head = 0
        for i in range(6):
            head = macstore.insert_front(ctx, head, self._mac(i))
        macstore.replace(ctx, head, 5, self._mac(99))
        assert macstore.read(ctx, head)[mac_span(5)] == self._mac(99)
        with pytest.raises(StoreError):
            macstore.replace(ctx, head, 6, self._mac(1))

    def test_remove_shrinks_chain(self, machine, ctx, macstore):
        head = 0
        for i in range(6):
            head = macstore.insert_front(ctx, head, self._mac(i))
        head = macstore.remove(ctx, head, 0)
        assert macstore.read(ctx, head) == b"".join(self._mac(i) for i in (4, 3, 2, 1, 0))

    def test_remove_last_frees(self, machine, ctx, macstore):
        head = macstore.insert_front(ctx, 0, self._mac(1))
        assert macstore.remove(ctx, head, 0) == 0

    def test_corrupted_count_clamped(self, machine, ctx, macstore):
        """A lying count in untrusted metadata cannot cause over-reads."""
        head = macstore.insert_front(ctx, 0, self._mac(1))
        machine.memory.raw_write(head, (2**31).to_bytes(4, "little"))
        macs = macstore.read(ctx, head)
        assert len(macs) <= macstore.capacity * 16


class TestMacTree:
    def test_geometry(self, enclave):
        tree = MacTree(enclave, num_hashes=4, num_buckets=10)
        assert tree.set_of(7) == 3
        assert list(tree.buckets_of(1)) == [1, 5, 9]
        assert tree.buckets_per_set == 3

    def test_verify_update_cycle(self, enclave, ctx, suite):
        tree = MacTree(enclave, num_hashes=2, num_buckets=4)
        macs = [bytes([7]) * 16, bytes([9]) * 16]
        tree.update_set(ctx, suite, 0, b"".join(macs))
        tree.verify_set(ctx, suite, 0, b"".join(macs))
        with pytest.raises(ReplayError):
            tree.verify_set(ctx, suite, 0, b"".join(reversed(macs)))
        with pytest.raises(ReplayError):
            tree.verify_set(ctx, suite, 0, macs[0])

    def test_empty_set_verifies(self, enclave, ctx, suite):
        tree = MacTree(enclave, num_hashes=2, num_buckets=4)
        tree.verify_set(ctx, suite, 0, b"")

    def test_dump_load(self, enclave, ctx, suite):
        tree = MacTree(enclave, num_hashes=2, num_buckets=4)
        tree.update_set(ctx, suite, 1, bytes([1]) * 16)
        blob = tree.dump()
        tree2 = MacTree(enclave, num_hashes=2, num_buckets=4)
        tree2.load(blob)
        tree2.verify_set(ctx, suite, 1, bytes([1]) * 16)
        with pytest.raises(ValueError):
            tree2.load(b"wrong-size")

    def test_invalid_geometry(self, enclave):
        with pytest.raises(ValueError):
            MacTree(enclave, num_hashes=0, num_buckets=4)
        with pytest.raises(ValueError):
            MacTree(enclave, num_hashes=8, num_buckets=4)
