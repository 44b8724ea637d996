"""Process-parallel partition engine (shared-nothing workers + batched IPC).

Covers the process engine of
:class:`~repro.core.partition.PartitionedShieldStore` against the
in-process one — the same seeded workload must produce identical
operation counters whether partitions run inline or in worker processes
(contents, recovery and both data planes are compared in
``test_engine_equivalence.py``) — plus the failure semantics of the
multiprocess pool:
integrity violations crossing the process boundary as the original
exception class, and dead workers surfacing as
:class:`~repro.errors.WorkerError` instead of hangs.
"""

import json
import operator
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import (
    MODE_PROCESSES,
    MODE_SEQUENTIAL,
    PartitionedShieldStore,
    process_mode_supported,
    shield_opt,
)
from repro.core.entry import TAMPER_PROBE_OFFSET
from repro.core.stats import StoreStats
from repro.errors import IntegrityError, KeyNotFoundError, StoreError, WorkerError
from repro.sim import Machine

SECRET = bytes(range(32))
PARTITIONS = 2

needs_processes = pytest.mark.skipif(
    not process_mode_supported(),
    reason="platform cannot run the multiprocess engine",
)


def _config():
    return shield_opt(num_buckets=128, num_mac_hashes=32)


def _build(mode: str) -> PartitionedShieldStore:
    if mode == MODE_PROCESSES:
        return PartitionedShieldStore(
            _config(),
            master_secret=SECRET,
            num_partitions=PARTITIONS,
            mode=MODE_PROCESSES,
        )
    return PartitionedShieldStore(
        _config(),
        machine=Machine(num_threads=PARTITIONS),
        master_secret=SECRET,
        mode=mode,
    )


def _run_workload(store: PartitionedShieldStore) -> None:
    """Deterministic mix of batched and single-key operations."""
    keys = [f"key-{i:03d}".encode() for i in range(120)]
    store.multi_set([(k, b"value-" + k) for k in keys])
    store.multi_set([(k, b"updated-" + k) for k in keys[::3]])
    store.multi_get(keys)
    store.multi_delete(keys[100:110])
    store.set(b"single", b"one")
    store.append(b"single", b"-two")
    store.increment(b"counter")
    store.increment(b"counter", 5)
    store.compare_and_swap(b"single", b"one-two", b"three")
    store.delete(keys[0])


@needs_processes
class TestModeEquivalence:
    def test_identical_stats_across_modes(self):
        """Operation counters agree between in-process and worker modes.

        Host-time and data-plane fields are excluded: they legitimately
        differ per engine; every semantic counter (and, with no crash,
        the recovery counters) must still match exactly.
        """
        from repro.core import StoreStats

        snapshots = {}
        for mode in (MODE_SEQUENTIAL, MODE_PROCESSES):
            with _build(mode) as store:
                assert store.mode == mode
                _run_workload(store)
                snapshot = store.stats().snapshot_dict()
                for field in StoreStats.varying("clock", "plane"):
                    timer = snapshot.pop(field)
                    assert timer >= 0
                snapshots[mode] = snapshot
        assert snapshots[MODE_SEQUENTIAL] == snapshots[MODE_PROCESSES]

    def test_single_key_ops_route_through_workers(self):
        with _build(MODE_PROCESSES) as store:
            store.set(b"k", b"v")
            assert store.get(b"k") == b"v"
            assert store.contains(b"k")
            assert store.append(b"k", b"!") == b"v!"
            assert store.increment(b"n", 3) == 3
            assert store.compare_and_swap(b"k", b"v!", b"w")
            assert not store.compare_and_swap(b"k", b"stale", b"x")
            store.delete(b"k")
            assert not store.contains(b"k")
            with pytest.raises(KeyNotFoundError):
                store.get(b"missing")

    def test_concurrent_clients_get_their_own_replies(self):
        """Parallel parent threads (a stats reader beside the loop
        thread, the snapshot daemon) must never interleave plane frames
        and receive each other's replies — the pool lock keeps every
        send/recv round trip paired."""
        with _build(MODE_PROCESSES) as store:
            keys = [f"key-{i:03d}".encode() for i in range(60)]
            store.multi_set([(k, b"value-" + k) for k in keys])
            errors = []

            def client(client_id: int) -> None:
                marker = f"client-{client_id}".encode()
                try:
                    for round_no in range(12):
                        values = store.multi_get(keys)
                        for k in keys:
                            assert values[k] == b"value-" + k, (client_id, k)
                        store.set(marker, marker + b"-%d" % round_no)
                        assert store.get(marker) == marker + b"-%d" % round_no
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert store.audit() == len(store)


@needs_processes
class TestStatsAggregation:
    def test_merged_stats_follow_each_fields_rule(self):
        """``stats()`` is the partitions' records merged field by field:
        a sum, or the max for the gauge ``ring_max_occupancy``."""
        with _build(MODE_PROCESSES) as store:
            _run_workload(store)
            # The records stats() merged (a second gather would count
            # the first one's frames and seconds).
            gather, per_partition = store.per_partition_stats, []
            store.per_partition_stats = lambda: per_partition.extend(gather()) or per_partition
            merged = store.stats()
            assert len(per_partition) == PARTITIONS
        rules = {f.name: f.metadata.get("merge", operator.add) for f in fields(StoreStats)}
        assert rules["ring_max_occupancy"] is max
        assert {name for name, rule in rules.items() if rule is not operator.add} == {
            "ring_max_occupancy"
        }
        # The plane's fields are filled per worker, then merged.
        assert all(stats.ring_frames > 0 for stats in per_partition)
        for name, rule in rules.items():
            first, second = (getattr(stats, name) for stats in per_partition)
            assert getattr(merged, name) == rule(first, second), name
        assert merged.ring_max_occupancy < sum(
            stats.ring_max_occupancy for stats in per_partition
        )

    def test_batch_counters_survive_process_boundary(self):
        with _build(MODE_PROCESSES) as store:
            _run_workload(store)
            stats = store.stats()
            assert stats.batches > 0
            assert stats.batch_ops > 0
            assert stats.batch_verifications_saved > 0

    def test_stage_timings_keep_worker_cpu_beside_wall_clock(self):
        """``worker_compute_s`` is wall clock and includes time a worker
        spent off the core; ``worker_cpu_s`` is the CPU the same region
        got — together they tell a slow worker from a descheduled one."""
        with _build(MODE_PROCESSES) as store:
            _run_workload(store)
            timings = store.stage_timings()
            assert set(timings) == {
                "serialize_s", "ipc_wait_s", "worker_compute_s", "worker_cpu_s",
            }
            assert 0 < timings["worker_cpu_s"]
            # CPU of a single-threaded region cannot exceed its wall
            # clock by more than the two clocks' granularity.
            assert timings["worker_cpu_s"] <= timings["worker_compute_s"] + 0.05

    def test_handshake_wait_is_not_ipc_wait(self):
        """Waiting for a spawned worker's handshake reply is its
        interpreter start and recovery: a pool that has served no
        request has spent nothing waiting on the plane."""
        with _build(MODE_PROCESSES) as store:
            assert store.stage_timings()["ipc_wait_s"] == 0

    def test_from_dict_ignores_unknown_and_property_keys(self):
        """Snapshot dicts from newer workers may carry keys the parent
        does not know — including names that collide with read-only
        properties like ``operations`` — and must round-trip cleanly."""
        stats = StoreStats.from_dict(
            {"gets": 3, "hits": 2, "operations": 99, "not_a_counter": 1}
        )
        assert stats.gets == 3
        assert stats.hits == 2
        assert stats.operations == 3  # derived property, not the bogus 99


@needs_processes
class TestFailureSemantics:
    def test_integrity_error_crosses_process_boundary(self):
        """A tampered worker raises IntegrityError (not a generic wrapper)
        in the parent, annotated with the partition index."""
        with _build(MODE_PROCESSES) as store:
            keys = [f"key-{i:03d}".encode() for i in range(40)]
            store.multi_set([(k, b"v") for k in keys])
            victim = keys[7]
            index = store.partition_index_of(victim)
            store._pool.tamper(index, victim)
            with pytest.raises(IntegrityError, match=f"partition {index}"):
                store.multi_get(keys)

    def test_pool_survives_clean_errors(self):
        """A ReproError is a report, not a crash: the worker keeps serving."""
        with _build(MODE_PROCESSES) as store:
            store.set(b"poisoned", b"v")
            store.set(b"healthy", b"ok")
            index = store.partition_index_of(b"poisoned")
            store._pool.tamper(index, b"poisoned")
            with pytest.raises(IntegrityError):
                store.get(b"poisoned")
            assert store.get(b"healthy") == b"ok"

    def test_dead_worker_respawns_and_pool_stays_usable(self):
        """A dead worker no longer bricks the pool: it is respawned in
        place.  With no snapshot to restore from, the partition comes
        back empty and the pool reports ``degraded`` — but keeps
        serving, and the recovery shows up in the merged stats."""
        with _build(MODE_PROCESSES) as store:
            store.set(b"k", b"v")
            store._pool.workers[0].process.terminate()
            store._pool.workers[0].process.wait(timeout=5)
            with pytest.raises(WorkerError, match="respawned"):
                store.multi_get([f"key-{i}".encode() for i in range(20)])
            assert store.partition_state == "degraded"
            # Still serving after the recovery.
            store.set(b"post-crash", b"ok")
            assert store.get(b"post-crash") == b"ok"
            stats = store.stats()
            assert stats.worker_recoveries == 1

    @pytest.mark.parametrize("plane", ["pipe", "shm"])
    def test_worker_dead_before_handshake_is_reported_gone(
        self, plane, monkeypatch
    ):
        """A worker that exits before it answers its handshake is its
        plane's EOF: pool construction fails fast naming the exit, not
        after the handshake's whole timeout."""
        import repro.core.procpool as procpool
        from repro.core.shmring import shm_supported

        if plane == "shm" and not shm_supported():
            pytest.skip("platform has no os.memfd_create")
        monkeypatch.setattr(procpool, "_WORKER_PROGRAM", "import sys; sys.exit(3)")
        start = time.monotonic()
        with pytest.raises(WorkerError) as caught:
            procpool.ProcessPartitionPool(_config(), 1, SECRET, data_plane=plane)
        assert time.monotonic() - start < 5
        assert "no reply within" not in str(caught.value), caught.value

    def test_integrity_error_in_sequential_mode(self):
        """In-process fan-out annotates the original exception class."""
        store = _build(MODE_SEQUENTIAL)
        keys = [f"key-{i:03d}".encode() for i in range(40)]
        store.multi_set([(k, b"v") for k in keys])
        victim = keys[3]
        index = store.partition_index_of(victim)
        partition = store.partitions[index]
        bucket = partition.keyring.keyed_bucket_hash(
            victim, partition.config.num_buckets
        )
        addr = int.from_bytes(
            partition.machine.memory.raw_read(
                partition.buckets.slot_addr(bucket), 8
            ),
            "little",
        )
        byte = partition.machine.memory.raw_read(addr + TAMPER_PROBE_OFFSET, 1)[0]
        partition.machine.memory.raw_write(
            addr + TAMPER_PROBE_OFFSET, bytes([byte ^ 0x01])
        )
        with pytest.raises(IntegrityError, match=f"partition {index}"):
            store.multi_get(keys)
        store.close()


@needs_processes
class TestTimeoutsAndShutdown:
    def test_sub_interval_timeout_is_honored(self):
        """A handshake timeout below the rings' 0.02 s doorbell nap must
        fire on schedule, not get rounded up to a whole nap."""
        from repro.core.procpool import ProcessPartitionPool

        pool = ProcessPartitionPool(_config(), 1, SECRET)
        try:
            handle = pool.workers[0]
            with pool._pool_lock:
                # Nothing was sent, so no reply ever arrives: _recv must
                # give up after ~0.03 s.
                start = time.monotonic()
                with pytest.raises(WorkerError, match="no reply"):
                    pool._recv(handle, recover=False, timeout=0.03)
                elapsed = time.monotonic() - start
            assert elapsed < 0.09, elapsed
        finally:
            pool.close()

    def test_close_never_steals_inflight_replies(self):
        """close() must take the pool lock before sending shutdown
        frames: a connection thread mid round-trip either completes its
        own send/recv pairing or observes the closed pool as a
        WorkerError — it never decodes a shutdown acknowledgement (or
        another request's reply) as its own."""
        store = _build(MODE_PROCESSES)
        keys = [f"key-{i:03d}".encode() for i in range(80)]
        store.multi_set([(k, b"value-" + k) for k in keys])
        failures = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    try:
                        values = store.multi_get(keys)
                    except WorkerError:
                        return  # pool closed under us: the allowed outcome
                    for k in keys:
                        assert values[k] == b"value-" + k, k
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)  # let the hammering reach steady state
        store.close()
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures


def _plane_store(plane: str) -> PartitionedShieldStore:
    from repro.core.shmring import shm_supported

    if plane == "shm" and not shm_supported():
        pytest.skip("platform has no os.memfd_create")
    return PartitionedShieldStore(
        _config(),
        master_secret=SECRET,
        num_partitions=PARTITIONS,
        mode=MODE_PROCESSES,
        data_plane=plane,
    )


@needs_processes
class TestDroppedSend:
    @pytest.mark.parametrize("plane", ["shm", "pipe"])
    def test_dropped_send_recovers_instead_of_hanging(self, plane):
        """A sealed frame the host drops on its way to a worker is gone,
        and the channel's send sequence has moved past it: the call must
        fail over to recovery, never wait forever for a reply that
        cannot come.  One point, ``procpool.send``, scripts it on
        either plane."""
        from repro.sim.faults import FaultPlan, FaultRule, injected

        store = _plane_store(plane)
        plan = FaultPlan([FaultRule(point="procpool.send", kind="drop", hits=[0])])
        outcome = []

        def first_set():
            try:
                store.set(b"k", b"v")
                outcome.append(None)
            except WorkerError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=first_set, daemon=True)
        try:
            with injected(plan):
                caller.start()
                caller.join(timeout=30)
            assert not caller.is_alive(), "a dropped send hung the pool"
            assert "broke on send" in str(outcome[0])
            assert plan.fires("procpool.send", "drop") == 1
            store.set(b"k", b"v")
            assert store.get(b"k") == b"v"
            assert store._pool.state == "degraded"
        finally:
            if caller.is_alive():  # still holding the pool lock: no close()
                for handle in store._pool.workers:
                    handle.process.kill()
            else:
                store.close()


@needs_processes
class TestCrashedRecv:
    @pytest.mark.parametrize("plane", ["shm", "pipe"])
    def test_crashed_recv_respawns_the_worker(self, plane):
        """A ``procpool.recv`` crash kills the worker whose reply was
        just read: that call still gets its reply, and the next round
        trip to the partition finds the worker gone and respawns it."""
        from repro.sim.faults import FaultPlan, FaultRule, injected

        store = _plane_store(plane)
        plan = FaultPlan([FaultRule(point="procpool.recv", kind="crash", hits=[0])])
        try:
            with injected(plan):
                store.set(b"k", b"v")
                victim = store._pool.workers[store.partition_index_of(b"k")]
                old_pid = victim.process.pid
                assert victim.process.wait(timeout=10) is not None
                with pytest.raises(WorkerError, match="respawned"):
                    store.get(b"k")
            assert plan.fires("procpool.recv", "crash") == 1
            assert victim.process.pid != old_pid
            assert store.stats().worker_recoveries == 1
            store.set(b"k", b"again")
            assert store.get(b"k") == b"again"
        finally:
            store.close()


class TestModeResolution:
    def test_injected_machine_stays_in_process(self):
        store = PartitionedShieldStore(_config(), machine=Machine(num_threads=2))
        assert store.mode == MODE_SEQUENTIAL
        assert store._pool is None

    def test_single_partition_is_sequential(self):
        store = PartitionedShieldStore(_config(), num_partitions=1)
        assert store.mode == MODE_SEQUENTIAL

    @needs_processes
    def test_owned_machine_auto_selects_processes(self):
        with PartitionedShieldStore(_config(), num_partitions=2) as store:
            assert store.mode == MODE_PROCESSES
            store.set(b"k", b"v")
            assert store.get(b"k") == b"v"

    def test_num_partitions_conflict_rejected(self):
        with pytest.raises(StoreError):
            PartitionedShieldStore(
                _config(), machine=Machine(num_threads=4), num_partitions=2
            )

    def test_explicit_processes_with_machine_rejected(self):
        """An injected machine cannot be shared with worker processes;
        asking for both explicitly is an error, not silent idle clocks."""
        with pytest.raises(StoreError, match="injected machine"):
            PartitionedShieldStore(
                _config(), machine=Machine(num_threads=2), mode=MODE_PROCESSES
            )


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(script, tmp_path, env=None):
    """Run ``script`` as a file with this interpreter; its stdout."""
    path = tmp_path / "script.py"
    path.write_text(textwrap.dedent(script))
    if env is None:
        env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True,
        timeout=120, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@needs_processes
class TestWorkersArePlainChildren:
    """A worker is ``subprocess.Popen`` of this interpreter over
    inherited descriptors: no ``multiprocessing`` start method, so no
    resource-tracker process, no named shared memory and no re-import
    of the caller's ``__main__``."""

    def test_no_tracker_and_no_shm_names(self, tmp_path):
        out = _python(
            """
            import json, os
            import multiprocessing.resource_tracker as tracker
            from repro.core import PartitionedShieldStore, shield_opt

            def children():
                return [
                    child
                    for task in os.listdir("/proc/self/task")
                    for child in open(f"/proc/self/task/{task}/children").read().split()
                ]

            def main():
                shm_before = set(os.listdir("/dev/shm"))
                seen = {"live_shm": [], "trackers": []}
                for plane in ("pipe", "shm"):
                    store = PartitionedShieldStore(
                        shield_opt(num_buckets=64, num_mac_hashes=16),
                        mode="processes", num_partitions=2, data_plane=plane,
                    )
                    items = [(b"k%03d" % i, b"v%03d" % i) for i in range(64)]
                    store.multi_set(items)
                    assert store.multi_get([k for k, _ in items]) == dict(items)
                    seen["live_shm"] += sorted(set(os.listdir("/dev/shm")) - shm_before)
                    store.close()
                seen["trackers"] = [
                    pid for pid in children()
                    if b"resource_tracker" in open(f"/proc/{pid}/cmdline", "rb").read()
                ]
                seen["tracker_pid"] = tracker._resource_tracker._pid
                seen["new_shm"] = sorted(set(os.listdir("/dev/shm")) - shm_before)
                print(json.dumps(seen))

            if __name__ == "__main__":  # so a start method re-importing it works too
                main()
            """,
            tmp_path,
        )
        assert json.loads(out) == {
            "live_shm": [], "trackers": [], "tracker_pid": None, "new_shm": [],
        }

    @pytest.mark.parametrize("plane", ["pipe", "shm"])
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path, plane):
        """No exit handler runs in a SIGKILLed parent: EOF on the
        inherited descriptor is what ends its workers."""
        script = f"""
            import os, signal, sys
            from repro.core.procpool import ProcessPartitionPool
            from repro.core import shield_opt

            if __name__ == "__main__":  # so a start method re-importing it works too
                pool = ProcessPartitionPool(
                    shield_opt(num_buckets=32, num_mac_hashes=8), 2, bytes(32),
                    data_plane={plane!r},
                )
                print(*(handle.process.pid for handle in pool.workers), flush=True)
                os.kill(os.getpid(), signal.SIGKILL)
            """
        path = tmp_path / "script.py"
        path.write_text(textwrap.dedent(script))
        done = subprocess.run(
            [sys.executable, str(path)], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=_SRC),
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        workers = [int(pid) for pid in done.stdout.split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), "a worker outlived its parent"

    # Built at module level, with no ``if __name__ == "__main__"`` guard.
    UNGUARDED = """
        import sys
        {path_line}
        from repro.core import PartitionedShieldStore, shield_opt

        store = PartitionedShieldStore(
            shield_opt(num_buckets=64, num_mac_hashes=16),
            mode="processes", num_partitions=2,
        )
        items = [(b"k%03d" % i, b"v%03d" % i) for i in range(64)]
        store.multi_set(items)
        assert store.multi_get([k for k, _ in items]) == dict(items)
        assert store.mode == "processes"
        store.close()
        print("ok")
        """

    def test_no_main_guard_needed(self, tmp_path):
        out = _python(self.UNGUARDED.format(path_line=""), tmp_path)
        assert out == "ok\n"

    def test_no_main_guard_with_path_set_at_run_time(self, tmp_path):
        """``repro`` is importable only through a ``sys.path`` edit the
        script makes itself: the workers still find the package."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        script = self.UNGUARDED.format(path_line=f"sys.path.insert(0, {_SRC!r})")
        assert _python(script, tmp_path, env=env) == "ok\n"
