"""Checkpoint files of a served store (paper §4.4, the durable end).

The snapshotter in :mod:`repro.core.persistence` produces a blob;
:class:`SnapshotDaemon` gets it onto disk atomically and prunes old
ones (``repro serve --snapshot-dir`` runs one beside the TCP server,
cutting under its ``store_lock``), and :func:`open_store` is the other
end: how a node starts from whatever the disk holds.
"""

from __future__ import annotations

import glob
import os
import threading
from typing import Optional, Tuple

from repro.core.persistence import PartitionSnapshotter, snapshot_counter
from repro.core.wal import fsync_directory
from repro.errors import SealingError, SnapshotError, StoreError
from repro.sim import faults


class SnapshotDaemon:
    """Periodic §4.4 checkpoints of a served store to a directory.

    ``take_snapshot`` is a zero-argument callable returning one snapshot
    blob (``repro serve`` passes ``PartitionSnapshotter.snapshot_bytes``;
    the monotonic counter sits at byte offset 8).  Every ``interval_s``
    seconds the daemon takes ``lock`` (the server's ``store_lock``, kept
    as :attr:`store_lock`), produces a blob, and writes it atomically
    (temp file + ``os.replace``) as ``snapshot-<counter>.bin``, so a
    crash mid-write never leaves a truncated latest checkpoint.

    Retention: after each successful write the oldest checkpoints are
    deleted so at most ``keep`` ``snapshot-*.bin`` files remain.  Stale
    ``snapshot-*.bin.tmp`` files (a crash between temp write and rename)
    are swept at daemon start and on every prune.  Only snapshot blobs
    are touched — the monotonic-counter state file lives in the same
    directory and must survive every prune, because it is the rollback
    defense for whatever snapshot remains.

    ``on_checkpoint`` (optional) is called with the snapshot counter
    after a checkpoint is durable — written, renamed and the directory
    fsynced — which is the earliest moment write-ahead-log segments
    below that counter may be retired.
    """

    def __init__(
        self,
        take_snapshot,
        directory,
        interval_s: float,
        lock=None,
        keep: int = 5,
        on_checkpoint=None,
    ):
        self.take_snapshot = take_snapshot
        self.directory = os.fspath(directory)
        self.interval_s = interval_s
        self.store_lock = lock if lock is not None else threading.RLock()
        if keep < 1:
            raise StoreError(f"snapshot retention must keep >= 1, got {keep}")
        self.keep = keep
        self.on_checkpoint = on_checkpoint
        self.snapshots_written = 0
        self.snapshots_pruned = 0
        self.snapshot_failures = 0
        self.last_path: Optional[str] = None
        self.last_error: Optional[Exception] = None
        self._stopev = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="shieldstore-snapshot", daemon=True
        )
        os.makedirs(self.directory, exist_ok=True)
        # A crash between temp write and rename leaves a .tmp the
        # retention glob never matched; sweep leftovers up front.
        self._sweep_tmp()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop the periodic loop (does not take a final snapshot)."""
        self._stopev.set()
        if self._thread.is_alive():
            self._thread.join(timeout=30)

    def _loop(self) -> None:
        while not self._stopev.wait(self.interval_s):
            try:
                self.run_once()
            except Exception as exc:  # keep checkpointing; surface + count
                self.last_error = exc
                self.snapshot_failures += 1

    def run_once(self) -> str:
        """Take one checkpoint now; returns the file path written."""
        with self.store_lock:
            blob = self.take_snapshot()
        counter = snapshot_counter(blob)
        path = os.path.join(self.directory, f"snapshot-{counter:012d}.bin")
        tmp = path + ".tmp"
        # A tamper hit is scripted on-disk corruption.
        blob = faults.cross(
            "snapshot.write", blob, on_crash=lambda: self._crash_write(tmp, blob)
        )
        if blob is faults.DROPPED:
            raise StoreError("injected checkpoint drop: nothing written")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # The rename is only durable once the directory entry is; fsync
        # the directory so a power cut cannot resurrect the old name.
        fsync_directory(self.directory)
        self.snapshots_written += 1
        self.last_path = path
        self.last_error = None
        if self.on_checkpoint is not None:
            self.on_checkpoint(counter)
        self._prune()
        return path

    @staticmethod
    def _crash_write(tmp: str, blob: bytes) -> None:
        """Scripted crash mid-write: leave a truncated temp file behind."""
        with open(tmp, "wb") as fh:
            fh.write(blob[: max(1, len(blob) // 2)])
        raise OSError("injected crash during checkpoint write")

    def _prune(self) -> None:
        """Delete checkpoints beyond the ``keep`` newest (by counter)."""
        paths = sorted(
            glob.glob(os.path.join(self.directory, "snapshot-*.bin"))
        )
        for stale in paths[: -self.keep]:
            try:
                os.remove(stale)
                self.snapshots_pruned += 1
            except OSError:
                pass  # already gone or busy; retry at the next prune
        self._sweep_tmp()

    def _sweep_tmp(self) -> None:
        """Remove orphaned ``snapshot-*.bin.tmp`` files (crash debris).

        ``run_once`` renames its temp file away before this runs, so
        any ``.tmp`` seen here was abandoned by a crash mid-write; each
        one actually removed counts as pruned.
        """
        for tmp in glob.glob(
            os.path.join(self.directory, "snapshot-*.bin.tmp")
        ):
            try:
                os.remove(tmp)
                self.snapshots_pruned += 1
            except OSError:
                pass

    @staticmethod
    def latest_snapshot(directory) -> Optional[str]:
        """Path of the newest checkpoint in ``directory`` (by counter).

        File names embed the zero-padded monotonic counter, so the
        lexicographically greatest name is the newest snapshot.
        """
        paths = sorted(
            glob.glob(os.path.join(os.fspath(directory), "snapshot-*.bin"))
        )
        return paths[-1] if paths else None

    @staticmethod
    def load_latest(directory) -> Optional[Tuple[str, bytes]]:
        """Read the newest checkpoint; ``(path, blob)`` or ``None``.

        The read is a ``snapshot.read`` injection point, so restore-time
        corruption and I/O failures are scriptable.
        """
        path = SnapshotDaemon.latest_snapshot(directory)
        if path is None:
            return None
        with open(path, "rb") as fh:
            blob = fh.read()
        blob = faults.cross("snapshot.read", blob)
        if blob is faults.DROPPED:
            return None
        return path, blob


def open_store(snapshotter: PartitionSnapshotter, source, config, **store_args):
    """Start a node from durable state: ``(store, path, replayed)``.

    ``source`` is a checkpoint directory (its newest file is taken) or
    ``None``; ``store_args`` go to the store.  The one start-up there is
    (:class:`~repro.node.Node`: ``repro serve`` and every replication
    group member): newest checkpoint, :meth:`PartitionSnapshotter.open`,
    the count of log operations replayed.  A refusal is a :class:`SnapshotError` or
    :class:`SealingError` (:class:`~repro.errors.RollbackError`
    included) naming the file; hostile bytes raise nothing else.
    """
    latest = None if source is None else SnapshotDaemon.load_latest(source)
    path, blob = latest or (None, None)
    try:
        store = snapshotter.open(blob, config, **store_args)
    except (SnapshotError, SealingError) as exc:
        raise type(exc)(f"{path or 'no checkpoint'}: {exc}") from exc
    return store, path, store.stats().wal_replayed
