"""One served node, built one way: ``repro serve`` and
:class:`~repro.ext.replication.ReplicationGroup` both build theirs here,
so every node is durable (paper §4.4) and a killed group member restarts
from its own disk."""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Optional

from repro.core import PartitionSnapshotter, SnapshotDaemon, WriteAheadLog, open_store
from repro.errors import IntegrityError, SnapshotError
from repro.sim import MonotonicCounterService


class Node:
    """A durable store, optionally replicated, its server and its daemon.

    Building one is start-up: :func:`~repro.core.checkpoint.open_store`
    recovers the store from ``snapshot_dir`` and ``wal_dir`` (either may
    be ``None``; ``store_args`` go to the store) or raises its refusal
    before anything listens.  A ``node_id`` wraps partition 0 in a
    :class:`~repro.ext.replication.ReplicatedStore`.  :attr:`store` is
    what the server serves, :attr:`durable` what checkpoints and the log
    hold.  Nothing runs before :meth:`start`.
    """

    def __init__(
        self,
        config,
        attestation,
        snapshot_dir: Optional[str] = None,
        wal_dir: Optional[str] = None,
        node_id: Optional[str] = None,
        anti_entropy_interval_s: Optional[float] = None,
        snapshot_interval_s: float = 60.0,
        snapshot_keep: int = 5,
        server_args: Optional[dict] = None,
        **store_args,
    ):
        # Looked up per call, so a caller can stand in for the server.
        from repro.net import TCPShieldServer

        snapshotter = PartitionSnapshotter(MonotonicCounterService(
            snapshot_dir and os.path.join(snapshot_dir, "counters.json")
        ))
        self.durable, self.restored_from, self.replayed = open_store(
            snapshotter, snapshot_dir, config, wal_dir=wal_dir, **store_args
        )
        self.node_id = node_id
        self.anti_entropy_interval_s = anti_entropy_interval_s
        self.store = self.durable
        if node_id is not None:
            from repro.ext.replication import ReplicatedStore

            # Versioned records are opaque values to checkpoints and the log.
            # Wrapping reads every recovered record, MAC-verified: a tampered
            # one refuses the start-up as a bad checkpoint does.
            try:
                self.store = ReplicatedStore(self.durable.partitions[0], node_id)
            except IntegrityError as exc:
                self.durable.close()
                raise SnapshotError(f"recovered state failed verification: {exc}") from exc
        self.server = TCPShieldServer(self.store, attestation, **(server_args or {}))
        self.address = self.server.address
        self.daemon: Optional[SnapshotDaemon] = None
        if snapshot_dir is not None:
            def take_snapshot():
                # Anti-entropy merges write the store under the replicated
                # store's mutex alone: the cut holds it too, taken after
                # store_lock as the loop thread takes them.
                with self.store.mutex if node_id else contextlib.nullcontext():
                    return snapshotter.snapshot_bytes(self.durable)

            # Log segments go only once the checkpoint holding them is durable.
            retire = functools.partial(WriteAheadLog.retire, wal_dir) if wal_dir else None
            self.daemon = self.server.snapshot_daemon = SnapshotDaemon(
                take_snapshot, snapshot_dir, snapshot_interval_s,
                lock=self.server.store_lock, keep=snapshot_keep, on_checkpoint=retire,
            )
        self.alive = True

    def start(self) -> None:
        """The replicator first (no served write waits on its queue),
        then the server, then the checkpoint daemon."""
        if self.node_id is not None:
            self.store.start(anti_entropy_interval_s=self.anti_entropy_interval_s)
        self.server.start()
        if self.daemon is not None:
            self.daemon.start()

    def close(self, checkpoint: bool = True) -> Optional[str]:
        """Server, replicator, daemon, final checkpoint, store: nothing
        is acknowledged after the cut, and the store closes last.

        Returns the final checkpoint's path, if one was taken; a failed
        one raises after the store is closed.  ``checkpoint=False`` is a
        crash: the next start-up recovers from the last checkpoint and
        the log.
        """
        self.alive = False
        self.server.close()
        if self.node_id is not None:
            self.store.close()
        try:
            if self.daemon is not None:
                self.daemon.stop()
                if checkpoint:
                    return self.daemon.run_once()
            return None
        finally:
            self.durable.close()
