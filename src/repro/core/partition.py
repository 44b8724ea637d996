"""Hash-partitioned parallel routing (paper §5.3, Figure 8).

Each simulated worker owns an exclusive slice of the hash-key space —
``Partition(KEY) = H(KEY) / total_threads`` — realized as one
independent :class:`~repro.core.store.ShieldStore` per partition, each
with its own buckets, MAC tree and allocator.  Because partitions are
disjoint, no locks exist and per-partition clocks advance
independently; run wall-time is the slowest partition's clock.

SGX cannot grow an enclave's thread pool at runtime (§5.3), so the
partition count is fixed at construction.

Engines
-------
:class:`PartitionedShieldStore` is the router; the partitions live in
one *engine*, picked once at construction (``mode``), and every
operation is a call on that one object:

* ``"sequential"`` — :class:`_InProcessEngine`: one
  :class:`~repro.core.host.PartitionHost` per simulated thread of the
  caller's :class:`~repro.sim.enclave.Machine`, partition slices run
  inline on the calling thread.  Simulated clocks still merge as
  ``max`` over partitions, so modeled parallelism is unaffected, and
  two identical runs charge bit-identical cycles;
* ``"processes"`` — the shared-nothing multiprocess engine
  (:class:`~repro.core.procpool.ProcessPartitionPool`): one long-lived
  worker process per partition, each hosting a private enclave sim +
  store, fed with batched frames over sealed rings or pipes.  This is
  the engine that makes wall-clock throughput scale with cores;
* ``"auto"`` — ``processes`` when the store owns its machine, has more
  than one partition, and the platform supports worker processes;
  otherwise ``sequential``.  Callers that pass an explicit ``machine``
  keep in-process partitions: worker processes cannot share a simulated
  machine, and those callers (experiments, cost-model tests) are
  reading its clocks and counters.  For the same reason, combining an
  injected ``machine`` with an explicit ``mode="processes"`` is
  rejected with a :class:`~repro.errors.StoreError` rather than
  silently leaving the machine's clocks idle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import StoreConfig
from repro.core.host import PartitionHost
from repro.core.persistence import default_platform_secret, read_blob
from repro.core.procpool import ProcessPartitionPool, process_mode_supported
from repro.core.stats import StoreStats, TransportStats
from repro.core.store import DEFAULT_MEASUREMENT, ShieldStore
from repro.core.wal import DEFAULT_SYNC_MS
from repro.crypto.keys import KeyRing
from repro.errors import ReproError, StoreError
from repro.sim.enclave import Enclave, Machine
from repro.sim.sealing import SealingService

MODE_AUTO = "auto"
MODE_SEQUENTIAL = "sequential"
MODE_PROCESSES = "processes"
_MODES = (MODE_SEQUENTIAL, MODE_PROCESSES)


def _annotate_partition_error(exc: ReproError, index: int) -> ReproError:
    """Re-raise material: same class, message prefixed with the partition."""
    try:
        wrapped = type(exc)(f"partition {index}: {exc}")
    except Exception:
        wrapped = StoreError(f"partition {index}: {exc}")
    return wrapped


class _InProcessEngine:
    """Partitions hosted on the caller's machine, driven inline.

    Mirrors the store-facing surface of
    :class:`~repro.core.procpool.ProcessPartitionPool`, so the router
    never asks which engine it has.  Nothing here can crash
    independently of the caller, hence the constant health fields.
    """

    data_plane = None
    state = "ok"
    recoveries = 0
    ops_lost = 0

    def __init__(self, hosts: List[PartitionHost], machine: Machine):
        self.hosts = hosts
        self.machine = machine
        self.reached_counter = min(host.reached for host in hosts)

    def store_of(self, index: int) -> ShieldStore:
        return self.hosts[index].store

    partition = store_of  # a ShieldStore *is* its partition's store API

    def stores(self) -> List[ShieldStore]:
        return [host.store for host in self.hosts]

    def fan_out(self, method: str, slices) -> list:
        """Run one batch verb over every ``(index, slice)``, in order.

        Each partition charges only its own simulated clock, so merged
        simulated time is ``max`` over partitions.  Partition failures
        re-raise as the original exception class with the partition
        index prepended.
        """
        results = []
        for index, items in slices:
            try:
                results.append(getattr(self.hosts[index].store, method)(items))
            except ReproError as exc:
                raise _annotate_partition_error(exc, index) from exc
        return results

    def total_len(self) -> int:
        return sum(len(host.store) for host in self.hosts)

    def iter_partition_items(self, index: int):
        return self.hosts[index].store.iter_items()

    def audit_all(self) -> int:
        return sum(host.store.audit() for host in self.hosts)

    def gather_stats(self) -> List[StoreStats]:
        return [host.store.stats for host in self.hosts]

    def elapsed_us(self) -> float:
        return self.machine.elapsed_us()

    def transport_stats(self) -> TransportStats:
        return TransportStats()

    def stage_timings(self) -> None:
        return None

    def snapshot_all(self, counter: int) -> Dict[int, bytes]:
        return {host.index: host.snapshot(counter) for host in self.hosts}

    def close(self) -> None:
        for host in self.hosts:
            host.close()


class PartitionedShieldStore:
    """ShieldStore sharded over disjoint hash partitions.

    Parameters
    ----------
    config:
        Table geometry for the *whole* store; each partition gets
        ``num_buckets / n`` buckets and ``num_mac_hashes / n`` hashes.
    machine:
        Shared simulated host.  Providing one pins the partitions
        in-process (see module docstring); omitting it lets ``auto``
        pick the multiprocess engine.
    master_secret:
        32-byte enclave master secret shared by every partition (one
        logical enclave); drawn from the machine RNG when omitted.
    mode:
        ``"auto"``, ``"sequential"`` or ``"processes"``.
    num_partitions:
        Partition count when no ``machine`` is given (the store then
        builds its own ``Machine`` with that many simulated threads).
    data_plane:
        Worker IPC transport for ``processes`` mode: ``"shm"``
        (sealed shared-memory rings, the default where supported) or
        ``"pipe"`` (the portable multiprocessing pipe).
    wal_dir:
        Directory for per-partition sealed write-ahead logs
        (:mod:`repro.core.wal`).  When set, every mutating op appends a
        sealed frame before applying, and construction replays any
        existing log chain — so recovery is snapshot + log tail instead
        of snapshot alone.  ``None`` (the default) disables the WAL.
    wal_sync_ms:
        Group-commit window in milliseconds: appends inside the window
        share one background fsync.  ``0`` syncs every append.
    checkpoint:
        A :class:`~repro.core.persistence.PartitionSnapshotter` blob to
        be born from: the geometry above must match its sealed header,
        every partition is built from its section (then its log tail)
        and the router hashes with the blob's master secret.  Go
        through :meth:`PartitionSnapshotter.open`, which also judges
        whether the result is *fresh* (``reached_counter``).
    """

    def __init__(
        self,
        config: StoreConfig,
        machine: Optional[Machine] = None,
        master_secret: Optional[bytes] = None,
        mode: str = MODE_AUTO,
        num_partitions: Optional[int] = None,
        platform_secret: Optional[bytes] = None,
        data_plane: Optional[str] = None,
        wal_dir: Optional[str] = None,
        wal_sync_ms: Optional[float] = None,
        checkpoint: Optional[bytes] = None,
    ):
        self.config = config
        if wal_sync_ms is None:
            wal_sync_ms = DEFAULT_SYNC_MS
        machine_owned = machine is None
        if machine_owned:
            machine = Machine(
                num_threads=num_partitions or 1, seed=config.seed
            )
        elif num_partitions not in (None, machine.clock.num_threads):
            raise StoreError(
                "num_partitions conflicts with the machine's thread count"
            )
        self.machine = machine
        self._num_partitions = machine.clock.num_threads
        if config.num_buckets < self._num_partitions:
            raise StoreError("need at least one bucket per thread")
        self.mode = self._resolve_mode(mode, machine_owned, self._num_partitions)
        self.enclave = Enclave(self.machine, DEFAULT_MEASUREMENT)
        if master_secret is None:
            master_secret = bytes(
                self.machine.rng.getrandbits(8) for _ in range(32)
            )
        if platform_secret is None:
            platform_secret = default_platform_secret(master_secret)
        # Seals snapshot headers (the hosts seal their sections to the
        # same platform); a redeployment with the same secret unseals them.
        self.sealing = SealingService(platform_secret)
        counter, sections = 0, None
        if checkpoint is not None:
            # Keys were partitioned under the snapshot's keyed hash, so
            # the store is built with the snapshot's master secret.
            counter, master_secret, sections = read_blob(
                self.enclave.context(), self.enclave, self.sealing,
                checkpoint, self._num_partitions, config,
            )
        # All partitions share the key ring (one enclave, one secret);
        # the router hashes with it before dispatching.
        self._keyring = KeyRing(master_secret)
        per_buckets = max(1, config.num_buckets // self._num_partitions)
        per_hashes = max(
            1, min(config.num_mac_hashes // self._num_partitions, per_buckets)
        )
        # Cache byte budgets are whole-store knobs too: each partition
        # (and each worker process, which receives part_config at spawn)
        # gets an equal slice of the §6.3 value cache and the verified
        # MAC-list cache.  Per-worker caches need no cross-process
        # coherence — partitions are disjoint key spaces.
        part_config = config.with_(
            num_buckets=per_buckets,
            num_mac_hashes=per_hashes,
            cache_bytes=config.cache_bytes // self._num_partitions,
            mac_cache_bytes=config.mac_cache_bytes // self._num_partitions,
        )
        # The one place the engine is chosen; everything below calls it.
        if self.mode == MODE_PROCESSES:
            # Shared-nothing: the data plane lives in worker processes,
            # one private enclave sim each.  The parent keeps only the
            # routing key ring and the (attestable) front-end enclave.
            self._engine = ProcessPartitionPool(
                part_config,
                self._num_partitions,
                master_secret,
                platform_secret=platform_secret,
                data_plane=data_plane,
                wal_dir=wal_dir,
                wal_sync_ms=wal_sync_ms,
                checkpoint=None if sections is None else (counter, sections),
            )
        else:
            self._engine = _InProcessEngine(
                [
                    PartitionHost(
                        part_config,
                        t,
                        master_secret,
                        machine=self.machine,
                        enclave=self.enclave,
                        platform_secret=platform_secret,
                        wal_dir=wal_dir,
                        wal_sync_ms=wal_sync_ms,
                        checkpoint=None if sections is None else (counter, sections[t]),
                    )
                    for t in range(self._num_partitions)
                ],
                self.machine,
            )

        # The snapshot counter start-up recovery reached in *every*
        # partition (0 for a store born empty, with no log).
        self.reached_counter: int = self._engine.reached_counter

    @staticmethod
    def _resolve_mode(mode: str, machine_owned: bool, n: int) -> str:
        if mode == MODE_AUTO:
            if n > 1 and machine_owned and process_mode_supported():
                # Store owns its machine and more than one partition:
                # pick the engine that actually scales with cores.
                return MODE_PROCESSES
            return MODE_SEQUENTIAL
        if mode not in _MODES:
            raise StoreError(f"unknown partition mode {mode!r}")
        if mode == MODE_PROCESSES:
            if not machine_owned:
                # Same rule auto mode applies: worker processes cannot
                # share a simulated machine, and a caller injecting one
                # is reading its clocks and counters — silently leaving
                # them idle would falsify every measurement.
                raise StoreError(
                    "mode='processes' cannot use an injected machine; "
                    "omit machine= (pass num_partitions) to run worker "
                    "processes, or pick an in-process mode"
                )
            if not process_mode_supported():
                raise StoreError("platform cannot run the multiprocess engine")
        return mode

    @property
    def num_threads(self) -> int:
        return self._num_partitions

    @property
    def _pool(self) -> Optional[ProcessPartitionPool]:
        """The process engine (``None`` in-process); fault-injection
        tests reach ``_pool.workers[i].process`` through this name."""
        return self._engine if self.mode == MODE_PROCESSES else None

    @property
    def partitions(self) -> List[ShieldStore]:
        """The in-process partition stores, in partition order (empty in
        ``processes`` mode: those stores live in the workers)."""
        return self._engine.stores()

    @property
    def data_plane(self) -> Optional[str]:
        """Worker IPC transport (``shm``/``pipe``); ``None`` in-process."""
        return self._engine.data_plane

    def transport_stats(self) -> TransportStats:
        """Data-plane counters (empty object for the in-process engine)."""
        return self._engine.transport_stats()

    def stage_timings(self) -> Optional[Dict[str, float]]:
        """Serialize / IPC-wait / worker-compute seconds (pool mode only)."""
        return self._engine.stage_timings()

    @property
    def partition_state(self) -> str:
        """Health of the partition engine.

        The in-process engine is always ``"ok"``; the multiprocess pool
        additionally reports ``"recovered"`` / ``"degraded"`` after a
        worker crash, ``"broken"`` when unrecoverable, and ``"closed"``.
        """
        return self._engine.state

    def partition_index_of(self, key: bytes) -> int:
        """Owning partition index (hash-disjoint, mode-independent)."""
        if self._num_partitions == 1:
            return 0  # every keyed hash maps to the only partition
        h = self._keyring.keyed_bucket_hash(bytes(key), 1 << 30)
        return h * self._num_partitions >> 30

    def partition_of(self, key: bytes) -> ShieldStore:
        """Route a key to its owning in-process partition store.

        Only meaningful in-process; in ``processes`` mode the partition
        lives in a worker and cannot be handed out
        (:class:`~repro.errors.StoreError`).
        """
        return self._engine.store_of(self.partition_index_of(key))

    # -- single-key operations ----------------------------------------------
    def _owner(self, key: bytes):
        """The owning partition's store API: the store itself
        in-process (a direct method call), the worker's proxy otherwise."""
        return self._engine.partition(self.partition_index_of(key))

    def get(self, key: bytes) -> bytes:
        return self._owner(key).get(key)

    def set(self, key: bytes, value: bytes) -> None:
        self._owner(key).set(key, value)

    def delete(self, key: bytes) -> None:
        self._owner(key).delete(key)

    def append(self, key: bytes, suffix: bytes) -> bytes:
        return self._owner(key).append(key, suffix)

    def increment(self, key: bytes, delta: int = 1) -> int:
        return self._owner(key).increment(key, delta)

    def compare_and_swap(self, key: bytes, expected: bytes, new_value: bytes) -> bool:
        return self._owner(key).compare_and_swap(key, expected, new_value)

    def contains(self, key: bytes) -> bool:
        return self._owner(key).contains(key)

    # -- batched operations: group by partition, then fan out ---------------
    def _slices(self, items, key_of=None) -> List[Tuple[int, list]]:
        """Split batch ``items`` into per-partition slices.

        ``key_of`` extracts the routing key (the item itself by
        default).  Order within a slice is preserved (later writes to a
        repeated key must win), and slices come back in partition order
        so routing is deterministic.
        """
        if self._num_partitions == 1:
            # Routing is the identity with one partition: skip the
            # per-key keyed hash (it dominates single-worker batches).
            return [(0, list(items))]
        grouped: Dict[int, list] = {}
        for item in items:
            key = item if key_of is None else key_of(item)
            grouped.setdefault(self.partition_index_of(key), []).append(item)
        return sorted(grouped.items())

    def close(self) -> None:
        """Release the engine: worker processes, attached logs (idempotent)."""
        self._engine.close()

    def __enter__(self) -> "PartitionedShieldStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def multi_get(self, keys) -> Dict[bytes, Optional[bytes]]:
        """Batched lookup, fanned out to the owning partitions.

        Each partition serves its slice of the batch on its own clock
        (or its own process), so the batch completes in max-partition
        time — the multi-key analogue of Fig. 8's partitioning.
        """
        results: Dict[bytes, Optional[bytes]] = {}
        for partial in self._engine.fan_out(
            "multi_get", self._slices(bytes(key) for key in keys)
        ):
            results.update(partial)
        return results

    def multi_set(self, items) -> None:
        """Batched insert/update, fanned out to the owning partitions.

        ``items`` is a dict or iterable of ``(key, value)`` pairs.  Each
        partition runs its slice through the store-level batched write
        pipeline (per-set verify-once + dirty-tracked set-hash flush).
        """
        if isinstance(items, dict):
            items = items.items()
        self._engine.fan_out(
            "multi_set",
            self._slices(
                ((bytes(key), bytes(value)) for key, value in items),
                key_of=lambda pair: pair[0],
            ),
        )

    def multi_delete(self, keys) -> Dict[bytes, bool]:
        """Batched removal; returns ``{key: was_present}`` like the
        store-level :meth:`~repro.core.store.ShieldStore.multi_delete`."""
        results: Dict[bytes, bool] = {}
        for partial in self._engine.fan_out(
            "multi_delete", self._slices(bytes(key) for key in keys)
        ):
            results.update(partial)
        return results

    def __len__(self) -> int:
        return self._engine.total_len()

    def iter_items(self):
        """All (key, value) pairs across partitions (partition order)."""
        for index in range(self._num_partitions):
            yield from self._engine.iter_partition_items(index)

    def audit(self) -> int:
        """Full-table integrity audit over every partition."""
        return self._engine.audit_all()

    # -- aggregates -----------------------------------------------------
    def per_partition_stats(self) -> List[StoreStats]:
        """Operation counters of each partition, in partition order.

        In ``processes`` mode the snapshots cross the process boundary
        as dicts and are reconstituted here, so batch-amortization
        counters survive intact.
        """
        return self._engine.gather_stats()

    def stats(self) -> StoreStats:
        """Merged operation stats across partitions.

        Engine-level recovery accounting (workers respawned after a
        crash, the upper bound of mutations lost) is folded in on top
        of the per-partition counters.
        """
        merged = StoreStats()
        for stats in self.per_partition_stats():
            merged = merged.merge(stats)
        merged.worker_recoveries += self._engine.recoveries
        merged.worker_ops_lost += self._engine.ops_lost
        return merged

    def elapsed_us(self) -> float:
        """Simulated wall time (slowest partition / worker)."""
        return max(self.machine.elapsed_us(), self._engine.elapsed_us())
