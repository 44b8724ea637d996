"""One partition's lifecycle: build -> recover -> checkpoint -> restore.

A partition is a :class:`~repro.core.store.ShieldStore`, the sealed
write-ahead log that makes its acknowledged writes durable
(:mod:`repro.core.wal`) and the sealing service that wraps its §4.4
snapshot sections.  :class:`PartitionHost` owns all three and is the
only code that knows how they fit together; both engines go through
it — a process worker hosts its private partition
(:func:`repro.core.procpool._worker_main`) and the in-process engine
hosts one per simulated thread (:mod:`repro.core.partition`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import StoreConfig
from repro.core.persistence import (
    default_platform_secret,
    read_section,
    write_section,
)
from repro.core.store import ShieldStore
from repro.core.wal import DEFAULT_SYNC_MS, WriteAheadLog, apply_request
from repro.sim.enclave import Enclave, Machine
from repro.sim.sealing import SealingService


class PartitionHost:
    """A partition's store, sealed WAL and sealing service.

    Building one *is* recovery: the fresh store replays whatever log
    chain a previous incarnation left, then attaches the tail log so
    every later mutation appends before it applies.

    ``machine``/``enclave`` pin the partition onto a shared simulated
    host as thread ``index`` (the in-process engine); without them each
    store gets a private single-thread machine (a worker process).
    ``master_secret`` is drawn from the machine RNG when omitted,
    ``platform_secret`` defaults to the deployment's derived sealing
    secret, and ``wal_dir=None`` runs without a log.
    """

    def __init__(
        self,
        config: StoreConfig,
        index: int = 0,
        master_secret: Optional[bytes] = None,
        machine: Optional[Machine] = None,
        enclave: Optional[Enclave] = None,
        platform_secret: Optional[bytes] = None,
        wal_dir: Optional[str] = None,
        wal_sync_ms: float = DEFAULT_SYNC_MS,
    ):
        self.config = config
        self.index = index
        self.wal_dir = wal_dir
        self.wal_sync_ms = wal_sync_ms
        self._machine = machine
        self._enclave = enclave
        self._master_secret = master_secret
        store = self._fresh_store()
        self._master_secret = store.keyring.master
        if platform_secret is None:
            platform_secret = default_platform_secret(self._master_secret)
        self.sealing = SealingService(platform_secret)
        self.store = self._replay_log(store, 0)

    def _fresh_store(self) -> ShieldStore:
        machine, thread_id = self._machine, self.index
        if machine is None:
            # A disjoint RNG stream per partition keeps the private
            # machines distinct while staying deterministic run to run.
            machine = Machine(
                num_threads=1, seed=self.config.seed + 7919 * (self.index + 1)
            )
            thread_id = 0
        return ShieldStore(
            self.config,
            machine=machine,
            enclave=self._enclave,
            thread_id=thread_id,
            master_secret=self._master_secret,
        )

    def _replay_log(self, store: ShieldStore, counter: int) -> ShieldStore:
        """Replay the log chain from ``counter`` into ``store``, then
        attach the tail log.  The log stays detached during replay, so
        re-applied ops do not re-log themselves."""
        if self.wal_dir is not None:
            store.wal = WriteAheadLog.recover(
                self.wal_dir,
                self.index,
                store.keyring.master,
                store.config.suite_name,
                counter,
                apply=lambda request: apply_request(store, request),
                stats=store.stats,
                sync_ms=self.wal_sync_ms,
            )
        return store

    @property
    def replayed(self) -> int:
        """Operations the serving store's log replayed when it was built."""
        return self.store.wal.replayed if self.store.wal is not None else 0

    # -- checkpoint ----------------------------------------------------------
    def snapshot(self, counter: int) -> bytes:
        """Seal + serialize the store as the section of snapshot
        ``counter``, rotating the log inside the capture."""
        store = self.store
        section = write_section(
            store.enclave.context(store.thread_id), store, self.sealing, counter
        )
        if store.wal is not None:
            # The truncation record brackets exactly what this section
            # contains; the fresh segment is keyed to ``counter``.
            store.wal.rotate(counter)
        return section

    # -- restore -------------------------------------------------------------
    def stage(self, counter: int, section: bytes, verify: bool = True) -> ShieldStore:
        """Build the replacement for snapshot ``counter``; swap nothing.

        A malformed section or a log tail that fails authentication
        raises here, so the serving store is untouched.
        """
        store = self._fresh_store()
        read_section(
            store.enclave.context(store.thread_id),
            store,
            self.sealing,
            section,
            counter,
            verify=verify,
        )
        # Frames sealed after this checkpoint's rotation live in the
        # segment chain starting at its counter.
        return self._replay_log(store, counter)

    def adopt(self, store: ShieldStore) -> None:
        """Swap a :meth:`stage`-built store in as the serving one."""
        self.close()
        self.store = store

    def restore(self, counter: int, section: bytes, verify: bool = True) -> int:
        """:meth:`stage` then :meth:`adopt`; returns the ops replayed."""
        self.adopt(self.stage(counter, section, verify))
        return self.replayed

    # -- durability ----------------------------------------------------------
    @staticmethod
    def release(store: ShieldStore) -> None:
        """Sync and detach ``store``'s log (idempotent) — the serving
        store on close, a staged one that will not be adopted."""
        if store.wal is not None:
            store.wal.close()
            store.wal = None

    def close(self) -> None:
        self.release(self.store)
