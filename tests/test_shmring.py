"""Edge cases of the sealed shared-memory ring data plane.

Ring-level tests drive one :class:`~repro.core.shmring.ShmRing` from
two threads (the SPSC discipline does not care whether the peer is a
thread or a process); pool-level tests exercise the real two-process
plane through :class:`~repro.core.procpool.ProcessPartitionPool` with
``data_plane="shm"``.
"""

import multiprocessing.connection
import os
import pathlib
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.procpool as procpool
from repro.core import process_mode_supported, shield_opt
from repro.core.procpool import ProcessPartitionPool, _pipe_channel
from repro.core.shmring import (
    DEFAULT_CAPACITY,
    HEADER_SIZE,
    Doorbell,
    RingPeerGone,
    ShmRing,
    shm_supported,
)
from repro.errors import WorkerError
from repro.net.message import STATUS_OK, Request, encode_multi_items
from repro.sim.faults import FaultPlan, FaultRule, injected

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="platform has no os.memfd_create"
)

SECRET = bytes(range(32))


def _rss_shmem_kib():
    """This process's resident shared-memory pages, or None where
    ``/proc/self/status`` does not report them."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _ring_pair(capacity=256):
    """One memfd, both roles — producer and consumer ends in-process,
    each with its end of a real doorbell socketpair."""
    prod = ShmRing.create("producer", capacity)
    cons = ShmRing.attach(prod.fd, "consumer", capacity)
    prod_end, cons_end = multiprocessing.connection.Pipe(duplex=True)
    prod.doorbell = Doorbell(prod_end)
    cons.doorbell = Doorbell(cons_end)
    return prod, cons


def _close(*rings):
    for ring in rings:
        ring.doorbell.close()
        ring.close()


def _in_thread(fn):
    """Run ``fn`` on a daemon thread; returns (thread, outcome list)."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except BaseException as exc:  # surfaced by the caller
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestRingFraming:
    def test_wrap_around_keeps_counters_monotonic(self):
        # 256-byte ring: frames pack back to back, so the 5th frame
        # already wraps past the end of the data region.
        prod, cons = _ring_pair()
        try:
            frames = [bytes([i]) * (50 + i) for i in range(16)]
            for i, frame in enumerate(frames):
                prod.write(frame)
                assert cons.read() == frame, f"frame {i} corrupted at wrap"
            # Counters are monotonic (not reset at the wrap point).
            assert prod._local == cons._local > prod.capacity
        finally:
            _close(cons, prod)

    def test_frame_split_across_physical_end(self):
        # Force a frame whose payload bytes physically straddle the end
        # of the buffer: 154 bytes consumed, then a 122-byte frame.
        prod, cons = _ring_pair()
        try:
            prod.write(b"x" * 150)
            assert cons.read() == b"x" * 150
            straddler = bytes(range(118))
            prod.write(straddler)  # bytes 154..276: wraps at 256
            assert cons.read() == straddler
        finally:
            _close(cons, prod)

    def test_larger_than_ring_frame_streams_through(self):
        prod, cons = _ring_pair()
        big = bytes(i % 251 for i in range(5000))  # ~20x ring capacity
        reader, out = _in_thread(cons.read)
        try:
            prod.write(big)
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert out == [big]
            assert prod.frames == cons.frames == 1
        finally:
            _close(cons, prod)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3 * 61), max_size=12))
    def test_any_frames_stream_through_an_odd_ring(self, lengths):
        # A 61-byte ring is no multiple of the 4-byte prefix, so prefixes
        # land split across the physical end and across two publishes.
        prod, cons = _ring_pair(capacity=61)
        frames = [bytes((n + i) % 256 for i in range(n)) for n in lengths]
        reader, out = _in_thread(lambda: [cons.read() for _ in frames])
        try:
            for frame in frames:
                prod.write(frame)
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert out == [frames]
            moved = sum(4 + n for n in lengths)
            assert prod.frames == cons.frames == len(frames)
            assert prod.bytes_moved == cons.bytes_moved == moved
        finally:
            _close(cons, prod)


class TestRingIsUntrusted:
    def test_forged_length_prefix_does_not_allocate_ahead(self):
        # The host can write any length prefix into the ring.  A reader
        # blocked on a forged 256 MiB frame holds only what was
        # published, and ends when the peer's doorbell end closes.
        prod, cons = _ring_pair()
        prod._copy_in(struct.pack("<I", 256 << 20))
        prod._advance(prod._local + 4)
        tracemalloc.start()
        try:
            reader, out = _in_thread(cons.read)
            time.sleep(0.2)
            assert reader.is_alive(), out
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < 8 << 20, peak
            prod.doorbell.close()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert len(out) == 1 and isinstance(out[0], RingPeerGone), out
        finally:
            tracemalloc.stop()
            _close(cons, prod)

    def test_forged_consumer_counter_never_copies_past_the_mapping(self):
        prod, cons = _ring_pair()
        try:
            # A tail forged far ahead of head claims the ring is emptier
            # than empty: writes still stay inside the mapping.
            cons._publish_counter(10 * cons.capacity)
            prod.write(bytes(3 * prod.capacity))
            assert prod.frames == 1
        finally:
            _close(cons, prod)


class TestRingFullPolicy:
    def test_full_ring_blocks_until_consumer_drains(self):
        prod, cons = _ring_pair()
        try:
            for i in range(4):
                prod.write(bytes([i]) * 60)  # 4 x (4 + 60) B -> full
            assert prod.data_available() == prod.capacity
            started = threading.Event()
            done = threading.Event()

            def blocked_write():
                started.set()
                prod.write(b"\xAA" * 60)
                done.set()

            writer = threading.Thread(target=blocked_write)
            writer.start()
            started.wait(timeout=5)
            time.sleep(0.05)
            assert not done.is_set(), "write admitted into a full ring"
            assert cons.read() == b"\x00" * 60  # free one frame's bytes
            writer.join(timeout=30)
            assert done.is_set()
            assert prod.full_waits >= 1
            for i in range(1, 4):
                assert cons.read() == bytes([i]) * 60
            assert cons.read() == b"\xAA" * 60
        finally:
            _close(cons, prod)


class TestRingWaits:
    def test_poll_timeout_expires_without_a_frame(self):
        prod, cons = _ring_pair()
        try:
            start = time.monotonic()
            assert cons.poll(0.05) is False
            assert 0.05 <= time.monotonic() - start < 5
        finally:
            _close(cons, prod)

    def test_poll_reports_readiness_without_consuming(self):
        prod, cons = _ring_pair()
        try:
            assert cons.poll(0) is False
            prod.write(b"ready")
            assert cons.poll(0) is True
            assert cons.read() == b"ready"
            assert cons.poll(0) is False
        finally:
            _close(cons, prod)

    def test_attach_resumes_mid_stream_counters(self):
        prod, cons = _ring_pair()
        try:
            prod.write(b"first")
            assert cons.read() == b"first"
            prod.write(b"second")
            # A fresh attach picks the counters up from the header
            # instead of assuming an empty ring.
            cons2 = ShmRing.attach(prod.fd, "consumer", prod.capacity)
            try:
                assert cons2.read() == b"second"
            finally:
                cons2.close()
        finally:
            _close(cons, prod)


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
            (stats,) = pool.gather_stats()
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
                residue = bytes(ring.shm[HEADER_SIZE:])
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
            with pool._pool_lock:
                handle.plane.send_raw(tape[1])
                handle.process.wait(timeout=10)
                assert handle.process.poll() is not None
                assert handle.plane.poll(0.2) is False, (
                    "stale-incarnation record must not be answered"
                )
        finally:
            pool.close()

    @pytest.mark.parametrize("value_len", [0, 100])
    def test_doorbell_drop_degrades_to_latency_only(self, value_len):
        # Every parent->worker doorbell byte is dropped; the worker's
        # bounded naps must still observe ring progress, so requests
        # keep completing — slower, never deadlocked — for the
        # shortest frames (empty values) and for longer ones alike.
        plan = FaultPlan(
            [FaultRule(point="shmring.doorbell", kind="drop")], seed=7
        )
        pool = self._pool()
        try:
            with injected(plan):
                for i in range(3):
                    value = bytes([0x61 + i]) * value_len
                    response = pool.execute(
                        0, Request("set", b"k%d" % i, value)
                    )
                    assert response.status == STATUS_OK
                    response = pool.execute(0, Request("get", b"k%d" % i))
                    assert response.status == STATUS_OK
                    assert response.value == value
                # Rings fire only when the peer is armed at publish time
                # (timing-dependent), so force one attempt: the drop
                # must swallow it without counting it as sent.
                pool.workers[0].plane._doorbell.ring()
            assert plan.fires(point="shmring.doorbell") >= 1
            (stats,) = pool.gather_stats()
            assert stats.ring_doorbell_rings == 0, (
                "dropped doorbells must not be counted as sent"
            )
            assert stats.ring_doorbell_waits > 0
        finally:
            pool.close()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity"
    )
    def test_pool_pinned_after_import_never_spins(self):
        # One wait path, whatever the CPUs: a pool built on every CPU
        # this process may use and one built after pinning it to one
        # both arm the doorbell at the parent and the worker ends — a
        # respawned worker too — and report nothing about spinning.
        # A wait is counted only when a worker finds its ring empty, so
        # each request after the respawn first gives the reborn worker
        # time to get back to its ring: on one CPU the parent could
        # otherwise queue every request before it does.
        script = """
import os, time
from repro.core import PartitionedShieldStore, shield_opt
from repro.errors import WorkerError

def serve_and_respawn():
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
        stats = store.stats()
        assert stats.ring_doorbell_waits > 0 < stats.worker_ring_doorbell_waits, stats
        fields = stats.snapshot_dict()
        assert not [f for f in fields if "spin" in f or "cpus" in f], fields

        pool = store._pool
        pool.workers[0].process.kill()
        pool.workers[0].process.wait(timeout=10)
        try:
            store.multi_get(sorted(model))
            raise SystemExit("a killed worker went unnoticed")
        except WorkerError:
            pass
        for _ in range(3):
            time.sleep(0.05)
            store.multi_set(sorted(model.items()))
        assert pool.recoveries == 1
        time.sleep(0.05)
        reborn = pool.gather_stats()[0]
        assert reborn.worker_ring_doorbell_waits > 0 < reborn.worker_compute_s, reborn
    finally:
        store.close()

serve_and_respawn()
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
serve_and_respawn()
"""
        src = pathlib.Path(__file__).parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", script], check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )

    def test_frames_larger_than_the_ring_cross_both_ways(self):
        # A batch, its reply and a checkpoint section, each larger than
        # the ring, stream through it in publishes of up to its
        # capacity: what comes out is the model.
        pool = self._pool()
        try:
            model = {b"big-%03d" % i: bytes([i]) * 1024 for i in range(96)}
            items = sorted(model.items())
            assert len(encode_multi_items(items)) > DEFAULT_CAPACITY
            pool.fan_out("multi_set", [(0, items)])
            # The request found the ring empty (strict request/reply)
            # and filled it: it crossed in more than one publish.  Its
            # ring_full_waits depend on scheduling — one CPU can run the
            # woken worker before the parent looks for room again.
            (stats,) = pool.gather_stats()
            assert stats.ring_max_occupancy == DEFAULT_CAPACITY
            rep = pool.workers[0].plane.rep
            moved = rep.bytes_moved
            assert pool.fan_out("multi_get", [(0, sorted(model))]) == [model]
            assert rep.bytes_moved - moved > DEFAULT_CAPACITY
            section = pool.snapshot_all(counter=1)[0]
            assert len(section) > DEFAULT_CAPACITY
            # The section round-trips: a worker reborn on it holds the model.
            pool.workers[0].process.kill()
            pool.workers[0].process.wait(timeout=10)
            with pytest.raises(WorkerError):
                pool.execute(0, Request("get", b"big-000"))
            assert pool.state == "recovered"
            assert pool.fan_out("multi_get", [(0, sorted(model))]) == [model]
        finally:
            pool.close()

    @pytest.mark.skipif(
        _rss_shmem_kib() is None, reason="/proc/self/status has no RssShmem"
    )
    def test_ring_memory_is_bounded_by_the_capacity(self):
        # The write position sweeps the whole data region, so a ring
        # costs its capacity in resident pages and no more.  The parent
        # maps one worker's two rings: their pages, plus a page
        # allowance for headers and rounding, are the budget.  It is
        # written for 64 KiB rings, not from DEFAULT_CAPACITY, so a
        # larger ring shows here as the memory it costs.
        budget_kib = (2 * (HEADER_SIZE + (64 << 10)) + (64 << 10)) // 1024
        before = _rss_shmem_kib()
        pool = self._pool()
        try:
            value = bytes(4000)
            for i in range(400):  # ~1.6 MiB of request frames
                response = pool.execute(0, Request("set", b"k%d" % (i % 8), value))
                assert response.status == STATUS_OK
            assert pool.gather_stats()[0].ring_bytes > 3 << 19  # 1.5 MiB
            grown = _rss_shmem_kib() - before
            assert grown <= budget_kib, (
                f"rings hold {grown} KiB resident, budget {budget_kib} KiB"
            )
        finally:
            pool.close()
