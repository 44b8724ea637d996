"""Per-thread cycle clocks and the global paging serializer.

The paper's scalability results (Fig. 13) hinge on two structural facts:

* ShieldStore threads own disjoint hash partitions, so they never
  synchronize and their clocks advance independently;
* the baseline's EPC page faults are serviced by the kernel SGX driver,
  which serializes them — so adding threads beyond two buys nothing
  ("demand paging causes significant serialization of thread execution").

We model that with one :class:`ThreadClock` per simulated worker plus a
:class:`PagingSerializer` shared by all threads of a machine: a fault
begins no earlier than the end of the previous fault, whichever thread
raised it.  Run wall-time is the max over thread clocks.
"""

from __future__ import annotations

from typing import List


class ThreadClock:
    """Monotonic cycle counter for one simulated worker thread."""

    __slots__ = ("thread_id", "cycles")

    def __init__(self, thread_id: int = 0):
        self.thread_id = thread_id
        self.cycles = 0.0

    def charge(self, cycles: float) -> None:
        """Advance this thread's clock by ``cycles`` (must be >= 0)."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.cycles += cycles

    def advance_to(self, cycles: float) -> None:
        """Move the clock forward to an absolute time (no-op if behind)."""
        if cycles > self.cycles:
            self.cycles = cycles

    def __repr__(self) -> str:
        return f"ThreadClock(thread_id={self.thread_id}, cycles={self.cycles:.0f})"


class PagingSerializer:
    """Serializes demand-paging faults across all threads of one machine.

    Modeled as a capacity bound rather than strict reservations: the
    resource performs serialized sections one at a time, so after N
    sections totalling W cycles, no requester can be past time W.  Each
    service charges its cost to the caller and then floors the caller's
    clock at the cumulative serialized work — a single thread is never
    penalized (its own clock already contains all its sections), while
    multiple threads cannot collectively exceed the resource's rate.
    (A strict last-reservation model would act as a barrier that syncs
    every thread to the fastest one, which over-serializes.)
    """

    __slots__ = ("work_cycles", "serviced_faults")

    def __init__(self) -> None:
        self.work_cycles = 0.0
        self.serviced_faults = 0

    def service(self, clock: ThreadClock, cost_cycles: float) -> None:
        """Charge a serialized section and apply the capacity bound."""
        self.work_cycles += cost_cycles
        clock.charge(cost_cycles)
        clock.advance_to(self.work_cycles)
        self.serviced_faults += 1

    def reset(self) -> None:
        """Forget all ordering state (new measurement epoch)."""
        self.work_cycles = 0.0
        self.serviced_faults = 0


class MachineClock:
    """The set of thread clocks making up one simulated machine."""

    def __init__(self, num_threads: int = 1):
        if num_threads < 1:
            raise ValueError("need at least one thread")
        self.threads: List[ThreadClock] = [ThreadClock(i) for i in range(num_threads)]
        self.paging = PagingSerializer()

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def elapsed_cycles(self) -> float:
        """Wall-clock of the machine: the slowest thread's clock."""
        return max(t.cycles for t in self.threads)

    def reset(self) -> None:
        """Zero every thread clock and the paging serializer."""
        for t in self.threads:
            t.cycles = 0.0
        self.paging.reset()
