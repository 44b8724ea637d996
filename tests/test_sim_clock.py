"""Thread clocks, the capacity-bound serializer, machine clocks."""

import pytest

from repro.sim.clock import MachineClock, PagingSerializer, ThreadClock


class TestThreadClock:
    def test_charge_accumulates(self):
        clock = ThreadClock(0)
        clock.charge(100)
        clock.charge(50.5)
        assert clock.cycles == 150.5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            ThreadClock(0).charge(-1)

    def test_advance_to_only_forward(self):
        clock = ThreadClock(0)
        clock.charge(100)
        clock.advance_to(50)
        assert clock.cycles == 100
        clock.advance_to(200)
        assert clock.cycles == 200


class TestPagingSerializer:
    def test_single_thread_pays_exactly_cost(self):
        """One thread's serialized sections never add waiting."""
        serializer = PagingSerializer()
        clock = ThreadClock(0)
        clock.charge(1000)
        serializer.service(clock, 500)
        assert clock.cycles == 1500
        serializer.service(clock, 500)
        assert clock.cycles == 2000

    def test_capacity_bound_delays_contending_threads(self):
        """Threads collectively cannot exceed the serialized rate."""
        serializer = PagingSerializer()
        clocks = [ThreadClock(i) for i in range(4)]
        # Each thread does only serialized work: after each round the
        # laggards must sit at the cumulative serialized work mark.
        for _round in range(10):
            for clock in clocks:
                serializer.service(clock, 100)
        # Total serialized work = 4000; every thread must be at >= its
        # own 1000 and the last-serviced at the full 4000.
        assert serializer.work_cycles == 4000
        assert max(c.cycles for c in clocks) == 4000

    def test_fast_thread_not_blocked_when_underutilized(self):
        serializer = PagingSerializer()
        fast = ThreadClock(0)
        fast.charge(10_000)  # plenty of parallel work
        serializer.service(fast, 10)
        assert fast.cycles == 10_010  # no extra wait

    def test_reset(self):
        serializer = PagingSerializer()
        serializer.service(ThreadClock(0), 100)
        serializer.reset()
        assert serializer.work_cycles == 0
        assert serializer.serviced_faults == 0


class TestMachineClock:
    def test_elapsed_is_max(self):
        mc = MachineClock(3)
        mc.threads[0].charge(10)
        mc.threads[2].charge(99)
        assert mc.elapsed_cycles() == 99

    def test_reset(self):
        mc = MachineClock(2)
        mc.threads[0].charge(10)
        mc.paging.service(mc.threads[1], 5)
        mc.reset()
        assert mc.elapsed_cycles() == 0
        assert mc.paging.work_cycles == 0

    def test_needs_one_thread(self):
        with pytest.raises(ValueError):
            MachineClock(0)
