"""Simulated memory: regions, allocation, charged access, protection."""

import mmap
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ShieldStore, shield_opt
from repro.errors import EnclaveError, EnclaveMemoryError
from repro.sim import Attacker, Enclave, Machine
from repro.sim import memory as simmem
from repro.sim.memory import (
    ENCLAVE_BASE,
    REGION_ENCLAVE,
    REGION_UNTRUSTED,
    UNTRUSTED_BASE,
)


# One size well under and one well over the mapping threshold: a pin that
# loops over these holds on both backings (and at commits from before
# there were two).
BOTH_BACKINGS = (64, 1 << 20)


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def enclave(machine):
    return Enclave(machine, bytes(32))


class TestAllocation:
    def test_alloc_regions(self, machine):
        e = machine.memory.alloc(64, REGION_ENCLAVE)
        u = machine.memory.alloc(64, REGION_UNTRUSTED)
        assert machine.memory.in_enclave_range(e)
        assert not machine.memory.in_enclave_range(u)
        assert e >= ENCLAVE_BASE
        assert u >= UNTRUSTED_BASE

    def test_alloc_rejects_bad_size(self, machine):
        with pytest.raises(EnclaveMemoryError):
            machine.memory.alloc(0, REGION_UNTRUSTED)

    def test_alloc_rejects_bad_region(self, machine):
        with pytest.raises(EnclaveMemoryError):
            machine.memory.alloc(64, "nowhere")

    def test_free_and_refree(self, machine):
        base = machine.memory.alloc(64, REGION_UNTRUSTED)
        machine.memory.free(base)
        with pytest.raises(EnclaveMemoryError):
            machine.memory.free(base)

    def test_find_interior_address(self, machine):
        base = machine.memory.alloc(100, REGION_UNTRUSTED)
        alloc = machine.memory.find(base + 50)
        assert alloc.base == base

    def test_find_unknown_address(self, machine):
        with pytest.raises(EnclaveMemoryError):
            machine.memory.find(UNTRUSTED_BASE + 10**9)

    def test_bytes_allocated_tracking(self, machine):
        before = machine.memory.bytes_allocated[REGION_UNTRUSTED]
        base = machine.memory.alloc(1000, REGION_UNTRUSTED)
        assert machine.memory.bytes_allocated[REGION_UNTRUSTED] == before + 1000
        machine.memory.free(base)
        assert machine.memory.bytes_allocated[REGION_UNTRUSTED] == before


class TestChargedAccess:
    def test_write_read_roundtrip(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(64, REGION_UNTRUSTED)
        machine.memory.write(ctx, base, b"payload")
        assert machine.memory.read(ctx, base, 7) == b"payload"

    def test_access_charges_cycles(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(4096, REGION_UNTRUSTED)
        before = ctx.clock.cycles
        machine.memory.read(ctx, base, 64)
        assert ctx.clock.cycles > before

    def test_overrun_rejected(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(16, REGION_UNTRUSTED)
        with pytest.raises(EnclaveMemoryError):
            machine.memory.read(ctx, base, 32)
        with pytest.raises(EnclaveMemoryError):
            machine.memory.write(ctx, base + 8, bytes(16))

    def test_enclave_access_requires_enclave_context(self, machine, enclave):
        base = enclave.alloc(64)
        outside = machine.context(0, in_enclave=False)
        with pytest.raises(EnclaveError):
            machine.memory.read(outside, base, 8)
        inside = enclave.context()
        machine.memory.write(inside, base, b"secret")
        assert machine.memory.read(inside, base, 6) == b"secret"

    def test_untrusted_access_from_enclave_allowed(self, machine, enclave):
        base = enclave.alloc_untrusted(64)
        ctx = enclave.context()
        machine.memory.write(ctx, base, b"shared")
        assert machine.memory.read(ctx, base, 6) == b"shared"

    def test_unmaterialized_reads_zeros(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(64, REGION_UNTRUSTED, materialize=False)
        machine.memory.write(ctx, base, b"ignored")
        assert machine.memory.read(ctx, base, 7) == bytes(7)

    def test_llc_makes_second_access_cheaper(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(64, REGION_UNTRUSTED)
        machine.memory.read(ctx, base, 64)
        first = ctx.clock.cycles
        machine.memory.read(ctx, base, 64)
        second = ctx.clock.cycles - first
        assert second < first


class TestRawAccess:
    def test_raw_roundtrip_uncharged(self, machine):
        ctx = machine.context(0)
        base = machine.memory.alloc(32, REGION_UNTRUSTED)
        machine.memory.raw_write(base, b"raw")
        before = ctx.clock.cycles
        assert machine.memory.raw_read(base, 3) == b"raw"
        assert ctx.clock.cycles == before

    def test_raw_overrun_rejected(self, machine):
        base = machine.memory.alloc(8, REGION_UNTRUSTED)
        with pytest.raises(EnclaveMemoryError):
            machine.memory.raw_read(base, 16)

    def test_raw_access_checks_no_privilege(self, machine, enclave):
        """Sealing the in-enclave MAC hashes goes through raw_read /
        raw_write; the enclave refusal is the Attacker's, not theirs."""
        attacker = Attacker(machine.memory)
        for size in BOTH_BACKINGS:
            base = enclave.alloc(size)
            machine.memory.raw_write(base + size - 6, b"sealed")
            assert machine.memory.raw_read(base + size - 6, 6) == b"sealed"
            with pytest.raises(EnclaveError):
                attacker.read(base + size - 6, 6)
            with pytest.raises(EnclaveError):
                attacker.write(base, b"x")
            with pytest.raises(EnclaveError):
                attacker.flip_bit(base)

    @pytest.mark.parametrize("region", [REGION_ENCLAVE, REGION_UNTRUSTED])
    def test_freed_base_refuses_every_access(self, machine, enclave, region):
        """The _last / _prev shortcut must not outlive free()."""
        memory, ctx = machine.memory, enclave.context()
        for size in BOTH_BACKINGS:
            base = memory.alloc(size, region)
            memory.write(ctx, base, b"hot")
            assert memory.read(ctx, base, 3) == b"hot"  # now the _last allocation
            memory.free(base)
            for access in (
                lambda: memory.read(ctx, base, 3),
                lambda: memory.write(ctx, base, b"new"),
                lambda: memory.raw_read(base, 3),
                lambda: memory.raw_write(base, b"new"),
            ):
                with pytest.raises(EnclaveMemoryError, match="not inside any allocation"):
                    access()


# -- the two backings against one model --------------------------------------
# Offsets are taken modulo the smallest size under test (negative ones land
# at its end), "overrun" starts inside an allocation and ends past it.
_OFFSETS = st.one_of(st.integers(0, 200), st.integers(4000, 4200), st.integers(-400, -1))
_ACCESSES = ["read", "raw_read", "write", "raw_write"]
_OPS = st.one_of(
    st.tuples(st.sampled_from(_ACCESSES), _OFFSETS, st.binary(min_size=1, max_size=160)),
    st.tuples(st.sampled_from(_ACCESSES), st.just("overrun"), st.binary(min_size=2, max_size=160)),
    st.just(("free", 0, b"")),
)


def _replay(size, region, ops, backing):
    """Run ``ops`` on a fresh machine holding one ``size``-byte allocation of
    the given backing.  Returns every outcome (bytes, or exception class and
    message) and the ledger; what succeeds is checked against a bytearray."""
    machine = Machine()
    memory = machine.memory
    ctx = Enclave(machine, bytes(32)).context() if region == REGION_ENCLAVE else machine.context(0)
    threshold = simmem.MAP_THRESHOLD
    simmem.MAP_THRESHOLD = threshold if backing is mmap.mmap else float("inf")
    try:
        base = memory.alloc(size, region)
    finally:
        simmem.MAP_THRESHOLD = threshold
    assert type(memory.find(base).data) is backing
    model, live, outcomes = bytearray(size), True, []
    smallest = threshold - 16
    for op, off, data in ops:
        length = len(data)
        if off == "overrun":
            off = size - length // 2
        else:
            off = min(off % smallest, smallest - length)
        legal = live and off + length <= size
        expect = None
        if legal and "write" in op:
            model[off : off + length] = data
        elif legal and "read" in op:
            expect = bytes(model[off : off + length])
        try:
            if op == "free":
                live = False
                outcome = memory.free(base)
            elif op == "read":
                outcome = memory.read(ctx, base + off, length)
            elif op == "raw_read":
                outcome = memory.raw_read(base + off, length)
            elif op == "write":
                outcome = memory.write(ctx, base + off, data)
            else:
                outcome = memory.raw_write(base + off, data)
        except Exception as exc:  # the class is part of what is compared
            outcome = (type(exc), str(exc))
        else:
            assert legal and outcome == expect
        outcomes.append(outcome)
    counters = machine.counters
    return outcomes, (counters.mem_reads, counters.mem_writes, counters.mem_cycles, ctx.clock.cycles)


@settings(max_examples=100, deadline=None)
@given(region=st.sampled_from([REGION_ENCLAVE, REGION_UNTRUSTED]), ops=st.lists(_OPS, max_size=30))
def test_backing_is_invisible(region, ops):
    """Same bytes, same errors, same ledger whichever side of the
    threshold an allocation falls on and whatever backs it."""
    threshold = simmem.MAP_THRESHOLD
    ledgers = set()
    for size in (threshold - 16, threshold, threshold + 4096):
        reference = _replay(size, region, ops, bytearray)
        if size >= threshold:
            assert _replay(size, region, ops, mmap.mmap) == reference
        ledgers.add(reference[1])
    assert len(ledgers) == 1


# -- residency: simulated memory costs the host what it holds ----------------
def _rss_mib() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


needs_procfs = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="residency is read from /proc/self/status"
)


@needs_procfs
def test_large_allocation_is_resident_only_where_written(machine):
    payload = b"\xa5" * (1 << 20)
    before = _rss_mib()
    base = machine.memory.alloc(64 << 20, REGION_UNTRUSTED)
    reserved = _rss_mib()
    assert reserved - before < 1
    machine.memory.raw_write(base + (5 << 20), payload)
    assert 1 <= _rss_mib() - reserved <= 2
    machine.memory.free(base)
    assert _rss_mib() - before < 1


@needs_procfs
def test_store_costs_what_it_touches_not_its_chunk():
    """A store's first set takes a 16 MiB heap chunk (§5.1) and writes a
    few dozen bytes of it."""
    before = _rss_mib()
    store = ShieldStore(shield_opt(num_buckets=1024, num_mac_hashes=512))
    store.set(b"key", b"value")
    assert store.machine.memory.bytes_allocated[REGION_UNTRUSTED] >= 16 << 20
    assert _rss_mib() - before < 2
