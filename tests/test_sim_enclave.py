"""Machine, execution contexts, boundary crossings, the LLC model."""

import random
import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.errors import EnclaveError
from repro.sim import Enclave, Machine
from repro.sim.cycles import CACHELINE, PAGE_SIZE, CostModel
from repro.sim.llc import LLCache


@pytest.fixture
def machine():
    return Machine(num_threads=2)


@pytest.fixture
def enclave(machine):
    return Enclave(machine, bytes(32))


class TestMachine:
    def test_contexts_bound_to_threads(self, machine):
        c0 = machine.context(0)
        c1 = machine.context(1)
        c0.charge(100)
        assert machine.clock.threads[0].cycles == 100
        assert machine.clock.threads[1].cycles == 0
        c1.charge(50)
        assert machine.elapsed_us() == pytest.approx(100 / 3600)

    def test_reset_measurement_keeps_epc_warm(self, machine, enclave):
        ctx = enclave.context()
        base = enclave.alloc(8192)
        machine.memory.touch(ctx, base, 8, write=False)
        assert machine.counters.epc_faults == 1
        machine.reset_measurement()
        assert machine.counters.epc_faults == 0
        assert machine.clock.elapsed_cycles() == 0
        machine.memory.llc.flush()  # force the memory path to reach the EPC
        machine.memory.touch(ctx, base, 8, write=False)
        assert machine.counters.epc_faults == 0  # still resident

    def test_rng_deterministic_per_seed(self):
        a = Machine(seed=7).rng.random()
        b = Machine(seed=7).rng.random()
        assert a == b


class TestCrossings:
    def test_ecall_charges(self, machine, enclave):
        ctx = enclave.enter(0)
        assert ctx.in_enclave
        assert machine.clock.threads[0].cycles == machine.cost.ecall_cycles
        assert machine.counters.ecalls == 1

    def test_hot_entry_is_cheaper(self, machine, enclave):
        enclave.enter(0, hot=True)
        enclave.enter(1, hot=False)
        assert machine.clock.threads[0].cycles < machine.clock.threads[1].cycles

    def test_ocall_requires_enclave(self, machine, enclave):
        with pytest.raises(EnclaveError):
            machine.context(0, in_enclave=False).ocall()
        ctx = enclave.context()
        ctx.ocall(syscall=True)
        assert machine.counters.ocalls == 1
        assert ctx.clock.cycles == machine.cost.ocall_cycles + machine.cost.syscall_cycles

    def test_syscall_forbidden_inside_enclave(self, machine, enclave):
        with pytest.raises(EnclaveError):
            enclave.context().syscall()
        machine.context(0, in_enclave=False).syscall()

    def test_enclave_measurement_size(self, machine):
        with pytest.raises(EnclaveError):
            Enclave(machine, b"too-short")


class ReferenceLRU:
    """The LLC as a plain ``OrderedDict`` LRU from the first access: the
    model ``LLCache`` must reproduce hit for hit and victim for victim.
    ``SimMemory`` drives it through ``lines`` exactly as it drives an
    ``LLCache`` past its first eviction."""

    stamps: dict = {}  # read by SimMemory, never consulted while ``lines`` is set

    def __init__(self, capacity_lines):
        self.capacity_lines = capacity_lines
        self.lines = OrderedDict()
        self.hits = self.misses = 0

    def access(self, line):
        if line in self.lines:
            self.lines.move_to_end(line)
            self.hits += 1
            return True
        if len(self.lines) >= self.capacity_lines:
            self.lines.popitem(last=False)
        self.lines[line] = None
        self.misses += 1
        return False

    def flush(self):
        self.lines.clear()


def _llc(capacity_lines):
    return LLCache(replace(CostModel(), llc_bytes=capacity_lines * CACHELINE))


def _stream(pattern, span, seed):
    """A seeded line stream over ``span`` lines' worth of address space."""
    rng = random.Random(seed)
    count = 3 * span + 200
    if pattern == "dense":
        return [rng.randrange(span) for _ in range(count)]
    if pattern == "stride-64":  # one line per 4 KiB page: one line per stamp group
        return [rng.randrange(span) * (PAGE_SIZE // CACHELINE) for _ in range(count)]
    stream = []  # mixed: hot lines, page-strided lines and ascending runs
    while len(stream) < count:
        kind = rng.random()
        if kind < 0.4:
            stream.append(rng.randrange(max(1, span // 8)))
        elif kind < 0.7:
            stream.append(rng.randrange(span) * (PAGE_SIZE // CACHELINE))
        else:
            first = rng.randrange(span)
            stream.extend(range(first, first + rng.randrange(1, 24)))
    return stream


def _assert_same_as_reference(llc, stream, flush_at=None):
    reference = ReferenceLRU(llc.capacity_lines)
    for step, line in enumerate(stream):
        if step == flush_at:
            llc.flush()
            reference.flush()
        assert llc.access(line) is reference.access(line), (step, line)
    assert (llc.hits, llc.misses) == (reference.hits, reference.misses)
    if llc.lines is not None:
        assert list(llc.lines) == list(reference.lines)
        assert llc.stamps == {}
    else:
        assert len(reference.lines) == llc.resident <= llc.capacity_lines
    return llc


class TestLLC:
    def test_hit_miss_accounting(self):
        llc = LLCache(CostModel())
        assert llc.access(1) is False
        assert llc.access(1) is True
        assert llc.hits == 1 and llc.misses == 1

    def test_eviction_order(self):
        llc = LLCache(replace(CostModel(), llc_bytes=0))  # min capacity
        stream = list(range(llc.capacity_lines + 1)) + [0]
        _assert_same_as_reference(llc, stream)
        assert llc.misses == len(stream)  # line 0 was the LRU victim

    @pytest.mark.parametrize("pattern", ["dense", "stride-64", "mixed"])
    @pytest.mark.parametrize("span", [0.25, 1, 8])
    @pytest.mark.parametrize("capacity", [16, 512, 4096])
    def test_matches_reference_lru(self, capacity, span, pattern):
        """Below capacity (stamps), at it, and past the first eviction
        (the ordered form), with a flush halfway through."""
        stream = _stream(pattern, int(capacity * span), seed=capacity * 31 + int(span * 4))
        llc = _assert_same_as_reference(_llc(capacity), stream, flush_at=len(stream) // 2)
        if span == 8:
            assert llc.lines is not None  # the first eviction came after the flush too
        elif pattern != "mixed":
            assert llc.lines is None  # never more distinct lines than capacity

    def test_flush(self):
        llc = LLCache(CostModel())
        llc.access(1)
        llc.flush()
        assert llc.access(1) is False

    def test_switch_inside_one_charged_access(self):
        """One multi-line read crosses the fill point, so ``_charge`` meets
        the first eviction mid-loop; in-frame hits before and after it
        charge and order exactly as on an ``OrderedDict`` LRU."""
        capacity = 16
        cost = replace(CostModel(), llc_bytes=capacity * CACHELINE)

        def script(machine):
            enclave = Enclave(machine, bytes(32))
            ctx, outside = enclave.context(), machine.context(1, in_enclave=False)
            memory = machine.memory
            secret = enclave.alloc(4 * PAGE_SIZE)
            plain = memory.alloc(PAGE_SIZE)
            for line in [*range(10), 16]:                        # 11 cold lines
                memory.write(ctx, secret + line * CACHELINE, b"s%d" % line)
            memory.read(ctx, secret + 3 * CACHELINE + 8, 8)     # in-frame hits
            memory.write(ctx, secret + 0 * CACHELINE + 8, b"w")
            memory.read(ctx, secret + 7 * CACHELINE, 8)
            memory.read(ctx, secret + 3 * CACHELINE, 8)
            memory.write(outside, plain, b"p" * 8)               # line 12 of 16
            before = memory.llc.lines is None
            # Lines 5..18: hits, misses up to the fill point, the first
            # eviction at line 14, a miss, a hit on line 16, two misses.
            memory.read(ctx, secret + 5 * CACHELINE, 14 * CACHELINE)
            after = memory.llc.lines is not None
            # In-frame hits again; line 3 is still resident only because
            # the in-frame hits before the switch were ordered.
            for line in (18, 17, 3):
                memory.read(ctx, secret + line * CACHELINE, 4)
            memory.write(outside, plain + 4, b"q")
            memory.read(ctx, secret, 3 * CACHELINE)              # evicted: misses
            return before, after, {
                "counters": machine.counters.snapshot(),
                "cycles": repr(machine.clock.elapsed_cycles()),
                "llc": [memory.llc.hits, memory.llc.misses],
                "lines": list(memory.llc.lines),
                "epc": machine.epc.resident_pages,
            }

        stamped, switched, state = script(Machine(num_threads=2, cost=cost))
        assert stamped and switched
        reference = Machine(num_threads=2, cost=cost)
        reference.memory.llc = ReferenceLRU(capacity)
        assert state == script(reference)[2]

    @pytest.mark.parametrize(
        "stride, bound_mib",
        [(1, 1.5), (PAGE_SIZE // CACHELINE, 3 * 7.75)],
        ids=["contiguous", "one-line-per-page"],
    )
    def test_host_memory_is_bounded(self, stride, bound_mib):
        """Below capacity a tag costs a stamp, not an ``OrderedDict`` node
        (7.5 MiB for these 65,536 lines); past it, only the ordered form."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            llc = LLCache(CostModel())
            for index in range(65536):
                llc.access(index * stride)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert used <= bound_mib * 2**20, used
        assert llc.lines is None and llc.resident == 65536
        for index in range(65536, llc.capacity_lines + 100):
            llc.access(index * stride)
        assert llc.stamps == {} and len(llc.lines) <= llc.capacity_lines
