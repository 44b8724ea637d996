"""Edge cases of the sealed shared-memory ring data plane.

Ring-level tests drive one :class:`~repro.core.shmring.ShmRing` from
two threads (the SPSC discipline does not care whether the peer is a
thread or a process); pool-level tests exercise the real two-process
plane through :class:`~repro.core.procpool.ProcessPartitionPool` with
``data_plane="shm"``.
"""

import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

import repro.core.procpool as procpool
import repro.core.shmring as shmring
from repro.core import process_mode_supported, shield_opt
from repro.core.procpool import ProcessPartitionPool, _pipe_channel
from repro.core.shmring import (
    HEADER_SIZE,
    Doorbell,
    RingTimeout,
    ShmRing,
    shm_supported,
)
from repro.errors import WorkerError
from repro.net.message import STATUS_OK, Request
from repro.sim.faults import FaultPlan, FaultRule, injected

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="platform has no multiprocessing.shared_memory"
)

SECRET = bytes(range(32))


def _ring_pair(num_slots=4, slot_size=64):
    """One segment, both roles — producer and consumer ends in-process."""
    prod = ShmRing.create("producer", num_slots, slot_size)
    cons = ShmRing.attach(prod.name, "consumer", num_slots, slot_size)
    return prod, cons


class TestRingFraming:
    def test_wrap_around_at_slot_boundaries(self):
        # 4 x 64B ring: frames pad to whole slots, so the 5th frame's
        # physical offset wraps past the end of the data region.
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        try:
            frames = [bytes([i]) * (50 + i) for i in range(16)]
            for i, frame in enumerate(frames):
                assert prod.write(frame, deadline=time.monotonic() + 5)
                assert cons.read() == frame, f"frame {i} corrupted at wrap"
            # Counters are monotonic (not reset at the wrap point).
            assert prod._local == cons._local > prod.capacity
        finally:
            cons.close()
            prod.close()

    def test_frame_split_across_physical_end(self):
        # Force a frame whose payload bytes physically straddle the end
        # of the buffer: 3 slots consumed, then a 2-slot frame.
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        try:
            assert prod.write(b"x" * 150)  # 3 slots
            assert cons.read() == b"x" * 150
            straddler = bytes(range(256))[: 2 * 64 - 10]
            assert prod.write(straddler)  # slots 3..0: wraps
            assert cons.read() == straddler
        finally:
            cons.close()
            prod.close()

    def test_larger_than_ring_frame_streams_through(self):
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        big = bytes(i % 251 for i in range(5000))  # ~20x ring capacity
        out = []

        def consume():
            out.append(cons.read(deadline=time.monotonic() + 30))

        reader = threading.Thread(target=consume)
        try:
            reader.start()
            assert prod.write(big, deadline=time.monotonic() + 30)
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert out == [big]
            assert prod.frames == cons.frames == 1
        finally:
            reader.join(timeout=1)
            cons.close()
            prod.close()


class TestRingFullPolicy:
    def test_full_ring_blocks_until_consumer_drains(self):
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        try:
            for i in range(4):
                assert prod.write(bytes([i]) * 40)  # 1 slot each -> full
            started = threading.Event()
            done = threading.Event()

            def blocked_write():
                started.set()
                prod.write(b"\xAA" * 40, deadline=time.monotonic() + 30)
                done.set()

            writer = threading.Thread(target=blocked_write)
            writer.start()
            started.wait(timeout=5)
            time.sleep(0.05)
            assert not done.is_set(), "write admitted into a full ring"
            assert cons.read() == b"\x00" * 40  # free one slot
            writer.join(timeout=30)
            assert done.is_set()
            assert prod.full_waits >= 1
            for i in range(1, 4):
                assert cons.read() == bytes([i]) * 40
            assert cons.read() == b"\xAA" * 40
        finally:
            cons.close()
            prod.close()

    def test_full_ring_shed_refuses_with_zero_bytes_written(self):
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        try:
            for i in range(4):
                assert prod.write(bytes([i]) * 40)
            head_before = prod._local
            assert prod.write(b"\xBB" * 40, block=False) is False
            assert prod._local == head_before, "shed write left bytes behind"
            # Drain one slot and the same frame is admitted cleanly.
            assert cons.read() == b"\x00" * 40
            assert prod.write(b"\xBB" * 40, block=False) is True
            for i in range(1, 4):
                assert cons.read() == bytes([i]) * 40
            assert cons.read() == b"\xBB" * 40
        finally:
            cons.close()
            prod.close()

    def test_shed_refuses_larger_than_ring_frames(self):
        # A frame that can only stream cannot be admitted atomically,
        # so the non-blocking path must refuse it outright.
        prod, cons = _ring_pair(num_slots=4, slot_size=64)
        try:
            assert prod.write(b"\xCC" * 5000, block=False) is False
            assert prod.data_available() == 0
        finally:
            cons.close()
            prod.close()


class TestRingWaits:
    def test_read_deadline_expires_as_ring_timeout(self):
        prod, cons = _ring_pair()
        try:
            with pytest.raises(RingTimeout):
                cons.read(deadline=time.monotonic() + 0.05)
        finally:
            cons.close()
            prod.close()

    def test_poll_reports_readiness_without_consuming(self):
        prod, cons = _ring_pair()
        try:
            assert cons.poll(0) is False
            prod.write(b"ready")
            assert cons.poll(0) is True
            assert cons.read() == b"ready"
            assert cons.poll(0) is False
        finally:
            cons.close()
            prod.close()

    def test_attach_resumes_mid_stream_counters(self):
        prod, cons = _ring_pair()
        try:
            prod.write(b"first")
            assert cons.read() == b"first"
            prod.write(b"second")
            # A fresh attach picks the counters up from the header
            # instead of assuming an empty ring.
            cons2 = ShmRing.attach(
                prod.name, "consumer", prod.num_slots, prod.slot_size
            )
            try:
                assert cons2.read() == b"second"
            finally:
                cons2.close()
        finally:
            cons.close()
            prod.close()


@pytest.mark.skipif(
    not process_mode_supported(), reason="process mode unsupported here"
)
class TestShmPlanePool:
    def _pool(self, **kwargs):
        config = shield_opt(num_buckets=32, num_mac_hashes=8)
        return ProcessPartitionPool(
            config, 1, SECRET, data_plane="shm", **kwargs
        )

    def test_round_trip_and_transport_counters(self):
        pool = self._pool()
        try:
            response = pool.execute(
                0, Request("set", b"ring-key", b"ring-value")
            )
            assert response.status == STATUS_OK
            response = pool.execute(0, Request("get", b"ring-key"))
            assert response.status == STATUS_OK
            assert response.value == b"ring-value"
            stats = pool.transport_stats()
            assert stats.ring_frames >= 4  # two requests + two replies
            assert stats.ring_bytes > 0
            assert stats.ring_max_occupancy > 0
        finally:
            pool.close()

    def test_no_plaintext_in_ring_buffers(self):
        # The rings live in host-visible shared memory: only sealed
        # records may land there.  The marker bytes must never appear
        # in either ring's buffer, in-flight or as residue.
        marker_key = b"MARKER-KEY-7f3a9c"
        marker_val = b"MARKER-VALUE-plaintext-must-not-cross-1b8e"
        pool = self._pool()
        try:
            pool.execute(0, Request("set", marker_key, marker_val))
            response = pool.execute(0, Request("get", marker_key))
            assert response.value == marker_val
            plane = pool.workers[0].plane
            for ring in (plane.req, plane.rep):
                residue = bytes(ring.shm.buf[HEADER_SIZE:])
                assert marker_key not in residue
                assert marker_val not in residue
        finally:
            pool.close()

    def test_stale_incarnation_record_does_not_authenticate(
        self, monkeypatch
    ):
        # Respawn rotates both the channel nonce AND the rings: a
        # record sealed under incarnation A, replayed into incarnation
        # B's fresh request ring, must kill the stream unanswered.
        nonces = []
        real_nonce = procpool._fresh_nonce

        def recording_nonce():
            nonces.append(real_nonce())
            return nonces[-1]

        monkeypatch.setattr(procpool, "_fresh_nonce", recording_nonce)
        config = shield_opt(num_buckets=32, num_mac_hashes=8)
        pool = ProcessPartitionPool(config, 1, SECRET, data_plane="shm")
        try:
            replica = _pipe_channel(
                SECRET, 0, nonces[0], "client", config.suite_name
            )
            tape = [
                replica.seal(bytes([procpool.OP_PING])) for _ in range(4)
            ]
            old_ring_names = {
                pool.workers[0].plane.req.name,
                pool.workers[0].plane.rep.name,
            }
            pool.workers[0].process.terminate()
            with pytest.raises(WorkerError):
                pool.execute(0, Request("get", b"x"))
            assert len(nonces) == 2 and nonces[0] != nonces[1]
            handle = pool.workers[0]
            new_ring_names = {
                handle.plane.req.name,
                handle.plane.rep.name,
            }
            assert not (old_ring_names & new_ring_names), (
                "respawn must allocate fresh rings"
            )
            # Replay incarnation A's seq-1 record (the sequence the new
            # session expects next).  The stale nonce means a different
            # channel key: authentication fails and the worker drops
            # the stream without replying.
            with handle.lock:
                handle.plane.send_raw(tape[1])
                handle.process.join(timeout=10)
                assert not handle.process.is_alive()
                assert handle.plane.poll(0.2) is False, (
                    "stale-incarnation record must not be answered"
                )
        finally:
            pool.close()

    @pytest.mark.parametrize("budget", [0, 100])
    def test_doorbell_drop_degrades_to_latency_only(self, monkeypatch, budget):
        # Every parent->worker doorbell byte is dropped; the worker's
        # bounded naps must still observe ring progress, so requests
        # keep completing — slower, never deadlocked.  At budget 0 (no
        # spare core: one CPU for worker + parent) every wait depends
        # on the doorbell; with two CPUs the same pool spins first.
        monkeypatch.setattr(procpool, "usable_cpus", lambda: 2 if budget else 1)
        plan = FaultPlan(
            [FaultRule(point="shmring.doorbell", kind="drop")], seed=7
        )
        pool = self._pool()
        try:
            plane = pool.workers[0].plane
            assert pool.ring_spin == plane.req.spin == plane.rep.spin == budget
            with injected(plan):
                for i in range(3):
                    response = pool.execute(
                        0, Request("set", b"k%d" % i, b"v%d" % i)
                    )
                    assert response.status == STATUS_OK
                # Rings fire only when the peer is armed at publish time
                # (timing-dependent), so force one attempt: the drop
                # must swallow it without counting it as sent.
                pool.workers[0].plane._doorbell.ring()
            assert plan.fires(point="shmring.doorbell") >= 1
            stats = pool.transport_stats()
            assert stats.ring_doorbell_rings == 0, (
                "dropped doorbells must not be counted as sent"
            )
            assert stats.ring_spin_budget == budget
            if not budget:
                assert stats.ring_spin_yields == 0
                assert stats.worker_ring_spin_yields == 0
        finally:
            pool.close()

    def test_spin_budget_is_zero_on_single_core(self):
        # The switchless spin only pays when the waiter has a core no
        # pool process (workers + the parent) needs; a 1-CPU host goes
        # straight to the doorbell whatever the pool's size.  (2, 2) is
        # the measured spare-core case: one worker, two CPUs.
        table = {
            (1, 2): False, (1, 3): False, (2, 3): False,
            (3, 3): True, (4, 3): True, (2, 2): True,
        }
        for (usable, processes), spins in table.items():
            budget = shmring.spin_budget(usable, processes)
            assert (budget > 0) is spins, (usable, processes, budget)
        assert not hasattr(shmring, "SPIN_CHECKS")

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity"
    )
    def test_pool_pinned_after_import_never_spins(self):
        # The decision is the pool's, taken when it is built — not an
        # import-time guess: a process that imports repro on all its
        # CPUs and *then* pins itself to one gets doorbell-only rings
        # on both ends, and so does a worker respawned later.
        script = """
import json, os
import repro.core.shmring
from repro.core import PartitionedShieldStore, shield_opt
from repro.core.procpool import OP_TIMING
from repro.errors import WorkerError

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
store = PartitionedShieldStore(
    shield_opt(num_buckets=64, num_mac_hashes=16),
    num_partitions=2, mode="processes", data_plane="shm",
)
try:
    model = {}
    for batch in range(20):
        keys = [b"k%03d" % ((batch * 7 + i) % 50) for i in range(16)]
        if batch % 2 == 0:
            items = [(k, b"v%d-" % batch + k) for k in keys]
            store.multi_set(items)
            model.update(items)
        else:
            assert store.multi_get(keys) == {k: model.get(k) for k in keys}
    stats = store.transport_stats()
    assert stats.usable_cpus == 1 and stats.ring_spin_budget == 0, stats
    assert stats.ring_spin_yields == 0 == stats.worker_ring_spin_yields, stats
    assert stats.ring_doorbell_waits > 0  # a reply is never there yet

    pool = store._pool
    pool.workers[0].process.kill()
    pool.workers[0].process.join(timeout=10)
    try:
        store.multi_get(sorted(model))
        raise SystemExit("a killed worker went unnoticed")
    except WorkerError:
        pass
    for _ in range(3):
        store.multi_set(sorted(model.items()))
    assert pool.recoveries == 1
    reborn = json.loads(pool.request(0, OP_TIMING).decode("ascii"))
    assert reborn["spin_yields"] == 0 and reborn["compute_s"] > 0, reborn
    stats = store.transport_stats()
    assert stats.ring_spin_yields == 0 == stats.worker_ring_spin_yields, stats
finally:
    store.close()
"""
        src = pathlib.Path(__file__).parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
