"""The simulated machine and its enclave runtime.

A :class:`Machine` bundles the cost model, memory, EPC, thread clocks and
event counters of one host.  An :class:`Enclave` created on a machine has
an identity (measurement), holds secrets, and hands out in-enclave
execution contexts.  Execution contexts (:class:`ExecContext`) are how
code "runs somewhere": every charged operation names the context doing
the work, which fixes both the acting thread's clock and whether enclave
memory is reachable.

Boundary crossings follow the paper's §2.2: an ECALL/OCALL round trip
costs ~8,000 cycles; HotCalls-style switchless calls cost ~620.
"""

from __future__ import annotations

import random
from repro.errors import EnclaveError
from repro.sim.clock import MachineClock, ThreadClock
from repro.sim.cycles import DEFAULT_COST_MODEL, CostModel, CycleCounters
from repro.sim.epc import EPCDevice
from repro.sim.memory import REGION_ENCLAVE, REGION_UNTRUSTED, SimMemory


class Machine:
    """One simulated SGX-capable host.

    Parameters
    ----------
    cost:
        The cycle cost model (default: paper-calibrated i7-7700).
    num_threads:
        How many simulated worker threads the host runs.
    seed:
        Seed for the machine's deterministic RNG (IVs, attestation nonces).
    """

    def __init__(
        self,
        cost: CostModel = DEFAULT_COST_MODEL,
        num_threads: int = 1,
        seed: int = 2019,
    ):
        self.cost = cost
        self.clock = MachineClock(num_threads)
        self.counters = CycleCounters()
        self.epc = EPCDevice(cost, self.clock.paging, self.counters)
        self.memory = SimMemory(cost, self.epc, self.counters)
        self.rng = random.Random(seed)
        # Serializers owned by components (network locks, maintainer
        # locks); registered here so reset_measurement clears them too.
        self.serializers = []

    def context(self, thread_id: int = 0, in_enclave: bool = False) -> "ExecContext":
        """Create an execution context bound to one thread."""
        return ExecContext(self, self.clock.threads[thread_id], in_enclave)

    def elapsed_us(self) -> float:
        """Simulated wall time so far, in microseconds."""
        return self.cost.cycles_to_us(self.clock.elapsed_cycles())

    def register_serializer(self, serializer) -> None:
        """Track a component-owned serializer for measurement resets."""
        self.serializers.append(serializer)

    def reset_measurement(self) -> None:
        """Zero clocks and counters (EPC residency is kept — warm state)."""
        self.clock.reset()
        for serializer in self.serializers:
            serializer.reset()
        self.counters = CycleCounters()
        self.epc.counters = self.counters
        self.memory.counters = self.counters


class ExecContext:
    """A strand of execution: (machine, thread clock, privilege level)."""

    __slots__ = ("machine", "clock", "in_enclave")

    def __init__(self, machine: Machine, clock: ThreadClock, in_enclave: bool):
        self.machine = machine
        self.clock = clock
        self.in_enclave = in_enclave

    # -- generic charging ----------------------------------------------
    def charge(self, cycles: float) -> None:
        """Charge raw cycles to this context's thread."""
        self.clock.charge(cycles)

    def charge_us(self, us: float) -> None:
        """Charge a microsecond-denominated cost (I/O, network)."""
        self.clock.charge(self.machine.cost.us_to_cycles(us))

    # -- crypto cost helpers (the *work* happens in repro.crypto) ---------
    def charge_aes(self, nbytes: int) -> None:
        """Charge one AES-CTR call over ``nbytes``."""
        machine = self.machine
        cycles = machine.cost.aes_cycles(nbytes)
        self.clock.cycles += cycles
        counters = machine.counters
        counters.aes_calls += 1
        counters.aes_bytes += nbytes
        counters.crypto_cycles += cycles

    def charge_cmac(self, nbytes: int) -> None:
        """Charge one CMAC call over ``nbytes``."""
        machine = self.machine
        cycles = machine.cost.cmac_cycles(nbytes)
        self.clock.cycles += cycles
        counters = machine.counters
        counters.cmac_calls += 1
        counters.cmac_bytes += nbytes
        counters.crypto_cycles += cycles

    def charge_keyed_hash(self) -> None:
        """Charge one keyed bucket-index/key-hint hash."""
        self.clock.cycles += self.machine.cost.keyed_hash_cycles

    def charge_rand(self, nbytes: int = 16) -> None:
        """Charge an ``sgx_read_rand`` call."""
        self.clock.charge(
            self.machine.cost.rand_cycles * max(1, (nbytes + 15) // 16)
        )

    # -- boundary crossings ----------------------------------------------
    def ocall(self, syscall: bool = False) -> None:
        """Charge an OCALL round trip (optionally plus a kernel entry)."""
        if not self.in_enclave:
            raise EnclaveError("OCALL issued from outside the enclave")
        cost = self.machine.cost.ocall_cycles
        if syscall:
            cost += self.machine.cost.syscall_cycles
        self.clock.charge(cost)
        self.machine.counters.ocalls += 1
        self.machine.counters.crossing_cycles += cost

    def hotcall(self) -> None:
        """Charge a HotCalls switchless request handoff."""
        self.clock.charge(self.machine.cost.hotcall_cycles)
        self.machine.counters.hotcalls += 1
        self.machine.counters.crossing_cycles += self.machine.cost.hotcall_cycles

    def syscall(self) -> None:
        """Charge a plain (non-enclave) kernel entry."""
        if self.in_enclave:
            raise EnclaveError(
                "enclaves cannot issue syscalls directly; use ocall(syscall=True)"
            )
        self.clock.charge(self.machine.cost.syscall_cycles)


class Enclave:
    """An enclave instance: identity, secrets, and ECALL entry points.

    The measurement stands in for MRENCLAVE; remote attestation
    (:mod:`repro.sim.attestation`) proves it to clients.
    """

    def __init__(self, machine: Machine, measurement: bytes, name: str = "shieldstore"):
        if len(measurement) != 32:
            raise EnclaveError("measurement must be 32 bytes (SHA-256 sized)")
        self.machine = machine
        self.measurement = bytes(measurement)
        self.name = name

    def enter(self, thread_id: int = 0, hot: bool = False) -> ExecContext:
        """ECALL: transition a thread into the enclave and charge for it.

        ``hot=True`` models a HotCalls-style switchless entry.
        """
        ctx = self.machine.context(thread_id, in_enclave=True)
        if hot:
            ctx.hotcall()
        else:
            ctx.clock.charge(self.machine.cost.ecall_cycles)
            self.machine.counters.ecalls += 1
            self.machine.counters.crossing_cycles += self.machine.cost.ecall_cycles
        return ctx

    def context(self, thread_id: int = 0) -> ExecContext:
        """In-enclave context without charging a transition.

        Standalone experiments (paper §6.2) run the request loop inside
        the enclave, so per-operation crossings do not occur.
        """
        return self.machine.context(thread_id, in_enclave=True)

    def alloc(self, size: int, materialize: bool = True) -> int:
        """Allocate enclave (EPC-backed) memory."""
        return self.machine.memory.alloc(size, REGION_ENCLAVE, materialize)

    def alloc_untrusted(self, size: int, materialize: bool = True) -> int:
        """Allocate untrusted memory (what the extra heap allocator hands out)."""
        return self.machine.memory.alloc(size, REGION_UNTRUSTED, materialize)
