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

import threading
import time

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

        Wall-clock stage timers are excluded: they measure host time,
        which legitimately differs per engine; every semantic counter
        must still match exactly.
        """
        from repro.core import StoreStats

        snapshots = {}
        for mode in (MODE_SEQUENTIAL, MODE_PROCESSES):
            with _build(mode) as store:
                assert store.mode == mode
                _run_workload(store)
                snapshot = store.stats().snapshot_dict()
                for field in StoreStats.WALL_CLOCK_FIELDS:
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
        """Parallel parent threads (the TCP server runs one per
        connection) must never interleave pipe frames and receive each
        other's replies — per-worker locking keeps every send/recv
        round-trip paired."""
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
    def test_merged_stats_equal_sum_of_partitions(self):
        with _build(MODE_PROCESSES) as store:
            _run_workload(store)
            per_partition = store.per_partition_stats()
            assert len(per_partition) == PARTITIONS
            merged = store.stats().snapshot_dict()
            for name, value in merged.items():
                assert value == sum(
                    getattr(stats, name) for stats in per_partition
                ), name

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
            store._pool.workers[0].process.join(timeout=5)
            with pytest.raises(WorkerError, match="respawned"):
                store.multi_get([f"key-{i}".encode() for i in range(20)])
            assert store.partition_state == "degraded"
            # Still serving after the recovery.
            store.set(b"post-crash", b"ok")
            assert store.get(b"post-crash") == b"ok"
            stats = store.stats()
            assert stats.worker_recoveries == 1

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
        """A request_timeout below the 0.1 s liveness poll interval must
        fire on schedule, not get rounded up to a whole poll."""
        from repro.core.procpool import ProcessPartitionPool

        pool = ProcessPartitionPool(
            _config(), 1, SECRET, request_timeout=0.03
        )
        try:
            handle = pool.workers[0]
            with handle.lock:
                # Nothing was sent, so no reply ever arrives: _recv must
                # give up after ~0.03 s.  The old code polled a full
                # 0.1 s interval first, so it could never raise sooner.
                start = time.monotonic()
                with pytest.raises(WorkerError, match="no reply"):
                    pool._recv(handle, recover=False)
                elapsed = time.monotonic() - start
            assert elapsed < 0.09, elapsed
        finally:
            pool.close()

    def test_close_never_steals_inflight_replies(self):
        """close() must take the worker locks before sending shutdown
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

    def test_partition_of_unavailable_in_process_mode(self):
        if not process_mode_supported():
            pytest.skip("platform cannot run the multiprocess engine")
        with _build(MODE_PROCESSES) as store:
            with pytest.raises(StoreError):
                store.partition_of(b"k")
            assert 0 <= store.partition_index_of(b"k") < PARTITIONS
