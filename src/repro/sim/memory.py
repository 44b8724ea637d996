"""Byte-addressable simulated memory with enclave/untrusted regions.

Two address ranges exist, mirroring Figure 4 of the paper:

* the **enclave region** — accessible only from code running with an
  in-enclave execution context; every touch goes through the EPC model
  and pays MEE overheads or demand-paging faults;
* the **untrusted region** — accessible from anywhere (including the
  :class:`~repro.sim.attacker.Attacker`), at plain DRAM cost.

Allocations are bump-allocated and tracked so that arbitrary addresses
(pointer chases, attacker pokes) resolve to the owning allocation via
binary search.  Every allocation holds its bytes.  One of
``MAP_THRESHOLD`` bytes or more is an anonymous demand-zero mapping, so
the host pays for the pages a heap chunk or table has had written, not
for its reservation (§5.1's 16 MB chunks are ``sbrk`` memory, billed the
same way), and a range that is only ever charged through :meth:`touch`
(a cache's footprint, Figure 2's working set) costs no resident page; a
smaller one is a ``bytearray``, because a mapping is page-granular and
the per-entry baselines allocate a few dozen bytes at a time.  Contents,
addresses, errors and charged cycles cannot tell the two apart.
"""

from __future__ import annotations

import bisect
import mmap
import threading
from typing import Dict, List, Optional, Union

from repro.errors import EnclaveError, EnclaveMemoryError
from repro.sim.cycles import CACHELINE, PAGE_SIZE, CostModel, CycleCounters
from repro.sim.epc import EPCDevice
from repro.sim.llc import ABSENT, GROUP_MASK, GROUP_SHIFT, LLCache

ENCLAVE_BASE = 0x2000_0000_0000
ENCLAVE_SPAN = 0x1000_0000_0000  # contiguous enclave virtual range (§7 check)
ENCLAVE_END = ENCLAVE_BASE + ENCLAVE_SPAN
UNTRUSTED_BASE = 0x7000_0000_0000
_ALIGN = 16
# Well above any per-entry allocation (a mapping costs whole pages and a
# syscall), below every heap chunk and any table of a few thousand slots.
MAP_THRESHOLD = 64 * 1024

REGION_ENCLAVE = "enclave"
REGION_UNTRUSTED = "untrusted"


class Allocation:
    """One live allocation: base address, size, region, its bytes."""

    __slots__ = ("base", "size", "end", "region", "data")

    def __init__(self, base: int, size: int, region: str, data: Union[bytearray, mmap.mmap]):
        self.base = base
        self.size = size
        self.end = base + size
        self.region = region
        self.data = data

    def __repr__(self) -> str:
        return f"Allocation(base=0x{self.base:x}, size={self.size}, {self.region})"


_NO_ALLOCATION = Allocation(0, 0, REGION_UNTRUSTED, bytearray())  # contains no address


class SimMemory:
    """The machine's memory: allocator, access charging, page accounting."""

    def __init__(
        self,
        cost: CostModel,
        epc: EPCDevice,
        counters: CycleCounters,
        llc: Optional[LLCache] = None,
    ):
        self.cost = cost
        self.epc = epc
        self.counters = counters
        self.llc = llc if llc is not None else LLCache(cost)
        self._allocs: Dict[int, Allocation] = {}
        self._bases: List[int] = []
        # The three allocations the last reads/writes resolved to, most
        # recent first: a lookup moves between the bucket table, a heap
        # chunk and the in-enclave MAC-hash array, so the bisect in find()
        # is the fallback, not the rule.  What find() resolves enters
        # third and moves up one place per hit, so one stray access does
        # not displace a hot allocation.
        self._last = self._prev = self._third = _NO_ALLOCATION
        self._next = {REGION_ENCLAVE: ENCLAVE_BASE, REGION_UNTRUSTED: UNTRUSTED_BASE}
        self.bytes_allocated = {REGION_ENCLAVE: 0, REGION_UNTRUSTED: 0}
        # The parallel partition router fans batches out to OS threads;
        # partitions are hash-disjoint, but they share this allocator's
        # bump pointers and sorted base list.
        self._alloc_lock = threading.Lock()

    # -- region predicates -------------------------------------------------
    @staticmethod
    def in_enclave_range(addr: int) -> bool:
        """§7 pointer-safety predicate: does ``addr`` fall in the enclave?"""
        return ENCLAVE_BASE <= addr < ENCLAVE_END

    # -- allocation ---------------------------------------------------------
    def alloc(self, size: int, region: str = REGION_UNTRUSTED) -> int:
        """Reserve ``size`` bytes in ``region``; returns the base address."""
        if size <= 0:
            raise EnclaveMemoryError(f"allocation size must be positive, got {size}")
        if region not in self._next:
            raise EnclaveMemoryError(f"unknown region {region!r}")
        with self._alloc_lock:
            base = self._next[region]
            aligned = (size + _ALIGN - 1) & ~(_ALIGN - 1)
            self._next[region] = base + aligned
            if size >= MAP_THRESHOLD:
                # ACCESS_COPY = a private mapping on every platform: a
                # forked child gets a copy, as it does of a bytearray.
                data = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
            else:
                data = bytearray(size)
            alloc = Allocation(base, size, region, data)
            self._allocs[base] = alloc
            bisect.insort(self._bases, base)
            self.bytes_allocated[region] += size
        return base

    def free(self, base: int) -> None:
        """Release the allocation starting at ``base``."""
        with self._alloc_lock:
            alloc = self._allocs.pop(base, None)
            if alloc is None:
                raise EnclaveMemoryError(f"free of unknown base 0x{base:x}")
            idx = bisect.bisect_left(self._bases, base)
            del self._bases[idx]
            if alloc in (self._last, self._prev, self._third):
                self._last = self._prev = self._third = _NO_ALLOCATION
            self.bytes_allocated[alloc.region] -= alloc.size
        if isinstance(alloc.data, mmap.mmap):
            alloc.data.close()

    def find(self, addr: int) -> Allocation:
        """Resolve any address to the allocation containing it."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            alloc = self._allocs[self._bases[idx]]
            if alloc.base <= addr < alloc.end:
                return alloc
        raise EnclaveMemoryError(f"address 0x{addr:x} is not inside any allocation")

    # -- charged accesses ---------------------------------------------------
    # read() and write() resolve, bounds-check, LLC-filter and charge the
    # common access (one or two cachelines, all on-chip, legal privilege)
    # in their own frame; _charge() is the general path.  Both charge the
    # same cycles in the same order: tests/test_exact_ledger.py pins it to
    # the cycle.
    def _charge(self, ctx, addr: int, size: int, write: bool) -> None:
        in_epc = ENCLAVE_BASE <= addr < ENCLAVE_END
        if in_epc and (ctx is None or not ctx.in_enclave):
            raise EnclaveError(
                f"access to enclave address 0x{addr:x} from outside the enclave"
            )
        counters = self.counters
        if ctx is not None:
            # LLC filter: lines already on-chip cost a cache hit and never
            # reach DRAM, the MEE, or the EPC pager.
            llc = self.llc
            lines = llc.lines
            stamps = llc.stamps
            clock = ctx.clock
            hits = misses = 0
            page = -1
            first_line = addr // CACHELINE
            last_line = (addr + (size if size > 0 else 1) - 1) // CACHELINE
            for line in range(first_line, last_line + 1):
                if lines is None:
                    group = stamps.get(line >> GROUP_SHIFT, ABSENT)
                    if group[line & GROUP_MASK]:
                        llc.touches = group[line & GROUP_MASK] = llc.touches + 1
                        hits += 1
                        continue
                elif line in lines:
                    lines.move_to_end(line)
                    hits += 1
                    continue
                llc.access(line)  # the miss arm: insert; when full, evict the LRU tag
                lines = llc.lines  # the first eviction switches it to the OrderedDict
                misses += 1
                # Only lines that actually go to memory can fault; lines
                # ascend, so each page is touched once, in address order.
                if in_epc and line * CACHELINE // PAGE_SIZE != page:
                    page = line * CACHELINE // PAGE_SIZE
                    self.epc.touch(clock, page, write)
            llc.hits += hits
            cost = self.cost
            cycles = hits * cost.cache_hit_cycles
            if misses:
                base = cost.dram_access_cycles * (
                    1.0 + (misses - 1) * cost.stream_factor
                )
                if in_epc:
                    base *= cost.mee_write_factor if write else cost.mee_read_factor
                cycles += base
            clock.charge(cycles)
            counters.mem_cycles += cycles
        if write:
            counters.mem_writes += 1
        else:
            counters.mem_reads += 1

    def read(self, ctx, addr: int, size: int) -> bytes:
        """Charged read of ``size`` bytes at ``addr``."""
        alloc = self._last
        if not alloc.base <= addr < alloc.end:
            alloc = self._prev
            if alloc.base <= addr < alloc.end:
                self._prev = self._last
                self._last = alloc
            else:
                alloc = self._third
                if alloc.base <= addr < alloc.end:
                    self._third = self._prev
                    self._prev = alloc
                else:
                    alloc = self._third = self.find(addr)
        end = addr + size
        if end > alloc.end:
            raise EnclaveMemoryError(
                f"read of {size} bytes at 0x{addr:x} overruns allocation {alloc!r}"
            )
        line = addr // CACHELINE
        last = (end - 1) // CACHELINE
        llc = self.llc
        lines = llc.lines
        if (
            ctx is not None
            and (
                (last == line
                 or last == line + 1
                 and (tail := llc.stamps.get(last >> GROUP_SHIFT, ABSENT))[last & GROUP_MASK])
                and (group := llc.stamps.get(line >> GROUP_SHIFT, ABSENT))[line & GROUP_MASK]
                if lines is None
                else (last == line or last == line + 1 and last in lines) and line in lines
            )
            and (ctx.in_enclave or not ENCLAVE_BASE <= addr < ENCLAVE_END)
        ):
            if lines is None:
                llc.touches = group[line & GROUP_MASK] = llc.touches + 1
            else:
                lines.move_to_end(line)
            cycles = self.cost.cache_hit_cycles
            if last != line:
                if lines is None:
                    llc.touches = tail[last & GROUP_MASK] = llc.touches + 1
                else:
                    lines.move_to_end(last)
                llc.hits += 1
                cycles += cycles  # one float addition for both hits, as in _charge
            llc.hits += 1
            ctx.clock.cycles += cycles
            counters = self.counters
            counters.mem_cycles += cycles
            counters.mem_reads += 1
        else:
            self._charge(ctx, addr, size, False)
        off = addr - alloc.base
        return bytes(alloc.data[off : off + size])

    def write(self, ctx, addr: int, data: bytes) -> None:
        """Charged write of ``data`` at ``addr``."""
        alloc = self._last
        if not alloc.base <= addr < alloc.end:
            alloc = self._prev
            if alloc.base <= addr < alloc.end:
                self._prev = self._last
                self._last = alloc
            else:
                alloc = self._third
                if alloc.base <= addr < alloc.end:
                    self._third = self._prev
                    self._prev = alloc
                else:
                    alloc = self._third = self.find(addr)
        size = len(data)
        end = addr + size
        if end > alloc.end:
            raise EnclaveMemoryError(
                f"write of {size} bytes at 0x{addr:x} overruns allocation {alloc!r}"
            )
        line = addr // CACHELINE
        last = (end - 1) // CACHELINE
        llc = self.llc
        lines = llc.lines
        if (
            ctx is not None
            and (
                (last == line
                 or last == line + 1
                 and (tail := llc.stamps.get(last >> GROUP_SHIFT, ABSENT))[last & GROUP_MASK])
                and (group := llc.stamps.get(line >> GROUP_SHIFT, ABSENT))[line & GROUP_MASK]
                if lines is None
                else (last == line or last == line + 1 and last in lines) and line in lines
            )
            and (ctx.in_enclave or not ENCLAVE_BASE <= addr < ENCLAVE_END)
        ):
            if lines is None:
                llc.touches = group[line & GROUP_MASK] = llc.touches + 1
            else:
                lines.move_to_end(line)
            cycles = self.cost.cache_hit_cycles
            if last != line:
                if lines is None:
                    llc.touches = tail[last & GROUP_MASK] = llc.touches + 1
                else:
                    lines.move_to_end(last)
                llc.hits += 1
                cycles += cycles  # one float addition for both hits, as in _charge
            llc.hits += 1
            ctx.clock.cycles += cycles
            counters = self.counters
            counters.mem_cycles += cycles
            counters.mem_writes += 1
        else:
            self._charge(ctx, addr, size, True)
        off = addr - alloc.base
        alloc.data[off : off + size] = data

    def touch(self, ctx, addr: int, size: int, write: bool) -> None:
        """Charge for an access without moving any bytes (a cache's
        footprint, a latency sweep's working set)."""
        self._charge(ctx, addr, size, write)

    # -- uncharged accesses (attacker, bootstrap, assertions) ---------------
    def raw_read(self, addr: int, size: int) -> bytes:
        """Read without charging cycles or checking privilege (sealing reads
        the in-enclave MAC hashes this way); what refuses the adversary an
        enclave address is :class:`~repro.sim.attacker.Attacker`."""
        alloc = self.find(addr)
        if addr + size > alloc.end:
            raise EnclaveMemoryError(
                f"raw read of {size} bytes at 0x{addr:x} overruns {alloc!r}"
            )
        off = addr - alloc.base
        return bytes(alloc.data[off : off + size])

    def raw_write(self, addr: int, data: bytes) -> None:
        """Write without charging cycles (simulation bookkeeping only)."""
        alloc = self.find(addr)
        if addr + len(data) > alloc.end:
            raise EnclaveMemoryError(
                f"raw write of {len(data)} bytes at 0x{addr:x} overruns {alloc!r}"
            )
        off = addr - alloc.base
        alloc.data[off : off + len(data)] = data
