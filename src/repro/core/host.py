"""One partition's lifecycle: build (which is recovery) -> checkpoint.

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

from typing import Optional, Tuple

from repro.core.config import StoreConfig
from repro.core.persistence import (
    default_platform_secret,
    read_section,
    write_section,
)
from repro.core.store import ShieldStore
from repro.core.wal import DEFAULT_SYNC_MS, WriteAheadLog, apply_request
from repro.errors import IntegrityError, SnapshotError
from repro.sim.enclave import Enclave, Machine
from repro.sim.sealing import SealingService


class PartitionHost:
    """A partition's store, sealed WAL and sealing service.

    Building one *is* recovery, all of it: the fresh store loads the
    section of ``checkpoint`` (``(counter, section)``; none starts
    empty at counter 0), replays whatever log chain a previous
    incarnation left from that counter on, then attaches the tail log
    so every later mutation appends before it applies; a section or
    frame that fails authentication raises out of the constructor.
    ``reached`` is the snapshot counter recovery ended on — the
    checkpoint's, advanced by every truncation record the chain
    replayed — for the opener's freshness verdict.

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
        checkpoint: Optional[Tuple[int, bytes]] = None,
    ):
        self.index = index
        thread_id = index
        if machine is None:
            # A disjoint RNG stream per partition keeps the private
            # machines distinct while staying deterministic run to run.
            machine = Machine(num_threads=1, seed=config.seed + 7919 * (index + 1))
            thread_id = 0
        store = ShieldStore(
            config,
            machine=machine,
            enclave=enclave,
            thread_id=thread_id,
            master_secret=master_secret,
        )
        if platform_secret is None:
            platform_secret = default_platform_secret(store.keyring.master)
        self.sealing = SealingService(platform_secret)
        counter = 0
        try:
            if checkpoint is not None:
                counter, section = checkpoint
                read_section(
                    store.enclave.context(thread_id), store, self.sealing, section, counter
                )
            if wal_dir is not None:
                # Frames sealed after a checkpoint's rotation live in the
                # chain starting at its counter; the log attaches only
                # after the replay, so re-applied ops do not re-log.
                store.wal = WriteAheadLog.recover(
                    wal_dir,
                    index,
                    store.keyring.master,
                    config.suite_name,
                    counter,
                    apply=lambda request: apply_request(store, request),
                    stats=store.stats,
                    sync_ms=wal_sync_ms,
                )
                counter = store.wal.counter
        except IntegrityError as exc:
            # A set hash the records do not match, or an authentic log
            # replayed onto an entry that is not: one refusal for both.
            raise SnapshotError(f"recovered state failed verification: {exc}") from exc
        self.store = store
        self.reached = counter

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

    def close(self) -> None:
        """Sync and detach the log (idempotent)."""
        if self.store.wal is not None:
            self.store.wal.close()
            self.store.wal = None
