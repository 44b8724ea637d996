"""Sealed per-partition write-ahead log (recovery = snapshot + replay).

Periodic checkpoints alone lose every mutation since the last snapshot
when a partition dies (`worker_ops_lost` counts the damage).  This
module closes that window: every mutating operation appends one sealed
frame *before* it is applied, so an acknowledged write is always either
in the latest checkpoint or replayable from the log tail.

Segment files and keys
----------------------
The log is a chain of segments, one per snapshot incarnation::

    wal-<partition:04d>-<counter:012d>.log

Each segment is keyed to the monotonic snapshot counter it starts at::

    log_key = derive_key(master, f"shieldstore/wal/{partition}/{counter}", 32)
    enc_key = derive_key(log_key, "wal/enc")
    mac_key = derive_key(log_key, "wal/mac")

so a segment recorded under an older incarnation (or for another
partition) simply fails authentication — the untrusted filesystem
cannot splice logs across incarnations or partitions.

Frame layout
------------
Length-prefixed sealed frames, reusing the ``net/message`` request
codec for the payload::

    u32 body_len | u64 seq | u8 kind | u64 epoch | ciphertext | mac(16)

``body_len`` is bounded by :data:`repro.reader.WAL_BODY` on both
sides: replay refuses a longer frame, so ``append`` refuses its op.

The MAC binds ``(partition, counter, seq, kind, epoch, ciphertext)``
and the sequence number is strictly sequential from 0 within a segment,
so the host cannot replay, reorder, drop, or truncate-and-extend
frames.  ``epoch`` is a random per-process-incarnation value mixed into
each frame's IV: recovery truncates a torn tail and the next
incarnation re-appends *the same sequence number* to the same segment
(same key), which without the epoch would reuse the (key, IV) pair of
the torn frame the crashed process already encrypted.  Kinds:

* ``KIND_OP`` (1) — payload is one encoded mutating request;
* ``KIND_TRUNCATE`` (2) — payload is the u64 counter of the *next*
  segment.  Sealed by :meth:`WriteAheadLog.rotate` when a checkpoint
  captures the partition, it is the handshake that says "everything
  before this point is inside snapshot ``next_counter``".  It must be
  the final frame of its segment.

Torn tail vs tamper
-------------------
Each frame is written with a single unbuffered ``write()`` *before* the
operation is applied or acknowledged, so a partial frame at EOF can
only be the last append of a crashed process — an operation that was
never acknowledged.  Recovery therefore distinguishes:

* **clean torn tail** — the final frame's length prefix or body
  overruns EOF: truncate the file back to the last complete frame,
  count ``wal_torn_truncated``, and continue;
* **authentication failure** — a *complete* frame with a bad MAC, a
  sequence gap, or frames after a truncation record: raise
  :class:`~repro.errors.SnapshotError`; the host tampered.

Group commit
------------
``fsync`` is batched behind a small commit window (``sync_ms``) and kept
off the request path: ``append`` writes its frame, marks the log dirty
and wakes the log's *committer* — a daemon thread the first append
starts — which waits out the window since the last completed sync, then
fsyncs what has been written.  Nobody ticks the log: a lone append is on
disk within ``sync_ms`` + one GIL switch interval (<= 5 ms, only when
the appending thread never blocks) + one ``fsync``.  With ``sync_ms``
<= 0 there is no committer: every append fsyncs on its caller.  A failed
background ``fsync`` is neither silent nor fatal: the committer keeps
the exception, the log stays dirty, and the next ``append`` / ``sync`` /
``rotate`` / ``close`` raises it once on its caller (a refused write,
never a silently non-durable ack) and wakes the committer to retry.
Process crashes (SIGKILL) lose nothing that ``write()`` returned for —
the page cache survives the process — so the window only bounds loss
across *power* failure, which is the paper's §4.4 posture too.
"""

from __future__ import annotations

import glob
import os
import struct
import threading
import time
from typing import Callable, Iterable, Optional

from repro.crypto.keys import derive_key
from repro.crypto.suite import MAC_SIZE, make_suite
from repro.errors import SnapshotError, StoreError
from repro.net.message import (
    MUTATING_OPS,
    Request,
    decode_request,
    encode_request,
)
from repro.reader import U32, U64, WAL_BODY, Reader, whole
from repro.sim import faults

KIND_OP = 1
KIND_TRUNCATE = 2

DEFAULT_SYNC_MS = 2.0

_SEQ_KIND_EPOCH = struct.Struct("<QBQ")
_AD = struct.Struct("<IQQBQ")  # partition, counter, seq, kind, epoch
_MIN_BODY = _SEQ_KIND_EPOCH.size + MAC_SIZE


def fsync_directory(path: str) -> None:
    """fsync a directory so renames/creates/unlinks inside it are durable.

    A checkpoint's ``os.replace`` and a WAL segment's creation only
    survive power loss once the *directory* entry is on disk.  Platforms
    whose directories cannot be opened or synced (some network
    filesystems) are tolerated silently — there is no portable fallback.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def segment_path(directory: str, partition: int, counter: int) -> str:
    """Filename of one partition's segment for one snapshot counter."""
    return os.path.join(directory, f"wal-{partition:04d}-{counter:012d}.log")


def apply_request(store, request: Request) -> None:
    """Re-apply one logged mutating request to ``store`` during replay.

    Runs the mutating arm of ``net.server.execute_request``'s verb
    table.  Ops that failed deterministically the first time (delete of
    an absent key, increment of a non-integer) fail identically here
    and are tolerated — the frame was appended before the failure
    surfaced.
    """
    from repro.errors import KeyNotFoundError, StoreError
    from repro.net.server import STORE_VERBS

    handler = STORE_VERBS.get(request.op) if request.op in MUTATING_OPS else None
    if handler is None:
        raise SnapshotError(f"non-mutating op {request.op!r} in WAL frame")
    try:
        handler(store, request)
    except (KeyNotFoundError, ValueError):
        pass  # deterministic first-run miss: frame preceded the failure
    except StoreError as exc:
        if type(exc) is not StoreError:
            raise  # Worker/Snapshot subclasses are real replay failures
        # e.g. increment over a non-integer value: failed originally too.


class WriteAheadLog:
    """One partition's sealed log: append-before-apply, rotate-on-checkpoint.

    Create via :meth:`recover`, which replays any existing chain and
    returns a log positioned at the chain tail; a fresh deployment with
    no segments starts at ``(counter, seq 0)`` with the file created
    lazily on first append.
    """

    def __init__(
        self,
        directory: str,
        partition: int,
        master: bytes,
        suite_name: str,
        counter: int,
        sync_ms: float = DEFAULT_SYNC_MS,
        stats=None,
    ):
        self.directory = directory
        self.partition = partition
        self.suite_name = suite_name
        self.counter = counter
        self.sync_ms = sync_ms
        self.stats = stats
        self.replayed = 0
        self._master = bytes(master)
        self._suite = self._suite_for(counter)
        self._seq = 0
        # Per-incarnation frame epoch (entropy, NOT the seeded machine
        # RNG): appended frames get IV = (seq, epoch), so re-appending a
        # sequence number after a torn-tail truncation — same segment,
        # same key — still takes a fresh keystream span.
        self._epoch = int.from_bytes(os.urandom(8), "big")
        self._fh = None
        self._dirty = False
        self._last_sync = time.monotonic()
        # Group commit: an fsync and a handle swap exclude each other here.
        self._commit_lock = threading.Lock()
        self._committer: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._failure: Optional[Exception] = None
        os.makedirs(directory, exist_ok=True)

    # -- sealing -------------------------------------------------------------
    def _suite_for(self, counter: int):
        log_key = derive_key(
            self._master,
            f"shieldstore/wal/{self.partition}/{counter}",
            32,
        )
        return make_suite(
            self.suite_name,
            derive_key(log_key, "wal/enc"),
            derive_key(log_key, "wal/mac"),
        )

    @staticmethod
    def _iv(seq: int, epoch: int) -> bytes:
        return struct.pack("<QQ", seq, epoch)

    def _seal_frame(self, kind: int, payload: bytes) -> bytes:
        seq, epoch = self._seq, self._epoch
        ciphertext = self._suite.encrypt(self._iv(seq, epoch), payload)
        tag = self._suite.mac(
            _AD.pack(self.partition, self.counter, seq, kind, epoch)
            + ciphertext
        )
        body = _SEQ_KIND_EPOCH.pack(seq, kind, epoch) + ciphertext + tag
        return U32.pack(len(body)) + body

    # -- the write path ------------------------------------------------------
    def _ensure_open(self):
        if self._fh is None:
            # Unbuffered: one write() per frame, so a crashed process
            # leaves at most one torn frame — and only at EOF.
            self._fh = open(  # noqa: SIM115 - handle outlives the scope
                segment_path(self.directory, self.partition, self.counter),
                "ab",
                buffering=0,
            )
        return self._fh

    def append(self, request: Request) -> None:
        """Seal one mutating request into the log (called before apply)."""
        self._raise_kept()
        payload = encode_request(request)
        if _MIN_BODY + len(payload) > WAL_BODY:  # replay would refuse it
            raise StoreError(f"{request.op} too large for the log ({len(payload)} bytes)")
        frame = self._seal_frame(KIND_OP, payload)
        fh = self._ensure_open()
        frame = faults.cross(
            "wal.append", frame, on_crash=lambda: self._crash_append(frame)
        )
        if frame is faults.DROPPED:
            return  # host swallowed the write; recovery will show it
        fh.write(frame)
        self._seq += 1
        self._dirty = True
        if self.stats is not None:
            self.stats.wal_appends += 1
        if self.sync_ms <= 0:
            self.sync()
            return
        if self._committer is None:
            name = f"wal-commit-{self.partition}"
            self._committer = threading.Thread(target=self._commit_loop, name=name, daemon=True)
            self._committer.start()
        self._wake.set()

    def _crash_append(self, frame: bytes) -> None:
        """Injected crash mid-append: half a frame reaches the file."""
        self._ensure_open().write(frame[: max(1, len(frame) // 2)])
        raise OSError("injected crash during WAL append")

    def sync(self) -> None:
        """fsync everything appended so far — the committer's one act;
        ``rotate``, ``close`` and a ``sync_ms <= 0`` append call it too."""
        self._raise_kept()
        with self._commit_lock:
            if self._fh is None or not self._dirty:
                return
            # Cleared first: a frame written while the disk works re-marks it.
            self._dirty = False
            try:
                faults.check("wal.fsync")
                os.fsync(self._fh.fileno())
            except BaseException:
                self._dirty = True
                raise
            self._last_sync = time.monotonic()
            if self.stats is not None:
                self.stats.wal_fsyncs += 1

    def _commit_loop(self) -> None:
        """The committer: once woken, wait out the window since the last
        completed sync, then fsync; ``close`` stops it mid-wait."""
        window = self.sync_ms / 1000.0
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._stop.wait(max(0.0, self._last_sync + window - time.monotonic())):
                return
            if self._failure is None:  # an unseen failure waits for a caller
                try:
                    self.sync()
                except Exception as exc:
                    self._failure = exc

    def _raise_kept(self) -> None:
        """Raise, once, a failure the committer kept; wake it to retry."""
        failure = self._failure
        if failure is not None:
            self._failure = None
            self._wake.set()
            raise failure

    def rotate(self, new_counter: int) -> None:
        """Seal a truncation record and start a fresh segment.

        Called inside the checkpoint's locked capture region: the new
        segment is keyed to the snapshot counter being captured, so the
        chain handshake (old segment's truncation record -> new
        segment) exactly brackets the snapshot's contents.
        """
        if new_counter <= self.counter:
            raise SnapshotError(
                f"WAL rotation counter must advance "
                f"({self.counter} -> {new_counter})"
            )
        self._raise_kept()  # before the record is written, not after
        frame = self._seal_frame(KIND_TRUNCATE, U64.pack(new_counter))
        fh = self._ensure_open()
        fh.write(frame)
        self._dirty = True
        self.sync()
        with self._commit_lock:  # never close a handle under an fsync
            fh.close()
            self._fh = None
        self.counter = new_counter
        self._suite = self._suite_for(new_counter)
        self._seq = 0
        # Create the new segment eagerly so the chain never dangles
        # past a sealed truncation record, then make both directory
        # entries durable.
        self._ensure_open()
        fsync_directory(self.directory)
        if self.stats is not None:
            self.stats.wal_rotations += 1

    def close(self) -> None:
        """Stop the committer, fsync what it left, close the handle —
        the last two even when the fsync (or a kept failure) raises."""
        committer, self._committer = self._committer, None
        if committer is not None:
            self._stop.set()
            self._wake.set()
            committer.join()
            self._stop.clear()
        try:
            self.sync()
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- recovery ------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str,
        partition: int,
        master: bytes,
        suite_name: str,
        counter: int,
        apply: Optional[Callable[[Request], None]] = None,
        stats=None,
        sync_ms: float = DEFAULT_SYNC_MS,
    ) -> "WriteAheadLog":
        """Replay the segment chain from ``counter``; return the tail log.

        ``apply`` receives each logged request in order (attach it to a
        store restored from the snapshot that ``counter`` names).  Torn
        final frames are truncated away; any complete-but-unauthentic
        frame raises :class:`SnapshotError`, and so does an orphaned
        chain — a missing segment with a later one of this partition
        present means the host removed the link that leads to it (or
        handed recovery an older checkpoint than the log belongs to).
        """
        wal = cls(
            directory, partition, master, suite_name, counter,
            sync_ms=sync_ms, stats=stats,
        )
        while True:
            path = segment_path(directory, partition, wal.counter)
            if not os.path.exists(path):
                mine = os.path.join(glob.escape(directory), f"wal-{partition:04d}-*.log")
                if max(glob.glob(mine), default="") > path:
                    # shieldlint: ignore[trust-boundary] -- a snapshot counter (the caller's, or an authenticated truncation record's), not client key/value plaintext
                    raise SnapshotError(
                        f"WAL chain of partition {partition} is orphaned: "
                        f"segment {wal.counter} is missing but a later one exists"
                    )
                return wal  # fresh incarnation: lazy-create on append
            with open(path, "rb") as fh:
                data = fh.read()
            data = faults.cross("wal.replay", data)
            if data is faults.DROPPED:
                return wal  # host hid the segment: treat as absent
            next_counter, good_offset, seq = wal._replay_segment(data, apply)
            if good_offset < len(data):
                # Clean torn tail: give the file back its last complete
                # frame boundary so future appends extend a valid chain.
                with open(path, "r+b") as fh:
                    fh.truncate(good_offset)
                    fh.flush()
                    os.fsync(fh.fileno())
                if stats is not None:
                    stats.wal_torn_truncated += 1
            if next_counter is None:
                wal._seq = seq
                return wal
            wal.counter = next_counter
            wal._suite = wal._suite_for(next_counter)
            wal._seq = 0

    def _replay_segment(self, data: bytes, apply):
        """Authenticate + replay one segment's frames.

        Returns ``(next_counter or None, last_good_offset, next_seq)``.
        """
        where = f"WAL segment {self.counter} of partition {self.partition}"
        reader = Reader(data, SnapshotError, f"{where}: frame")
        seq, next_counter = 0, None
        while True:
            offset = reader.off
            if reader.left() < U32.size:
                return next_counter, offset, seq  # torn length prefix
            body_len = reader.length(WAL_BODY, _MIN_BODY)
            if reader.left() < body_len:
                return next_counter, offset, seq  # torn frame body
            frame_seq, kind, epoch = reader.unpack(_SEQ_KIND_EPOCH)
            ciphertext = reader.take(body_len - _MIN_BODY)
            tag = reader.take(MAC_SIZE)
            if next_counter is not None:
                raise SnapshotError(
                    f"{where} has frames after its truncation record (spliced log)"
                )
            if frame_seq != seq or not self._suite.verify(
                _AD.pack(self.partition, self.counter, frame_seq, kind, epoch)
                + ciphertext,
                tag,
            ):
                raise SnapshotError(
                    f"{where}: frame {seq} failed authentication "
                    "(tampered, reordered, or wrong incarnation)"
                )
            payload = self._suite.decrypt(self._iv(frame_seq, epoch), ciphertext)
            if kind == KIND_TRUNCATE:
                candidate = whole(payload, U64, SnapshotError, "WAL truncation record")
                if candidate <= self.counter:
                    # shieldlint: ignore[trust-boundary] -- an authenticated snapshot counter from the truncation record, not client key/value plaintext
                    raise SnapshotError(
                        f"WAL truncation record in segment {self.counter} "
                        f"names non-advancing counter {candidate}"
                    )
                next_counter = candidate
            elif kind == KIND_OP:
                if apply is not None:
                    apply(decode_request(payload))
                self.replayed += 1
                if self.stats is not None:
                    self.stats.wal_replayed += 1
            else:
                raise SnapshotError(f"unknown WAL frame kind {kind}")
            seq += 1

    # -- housekeeping --------------------------------------------------------
    @staticmethod
    def retire(directory: str, below: int,
               partitions: Optional[Iterable[int]] = None) -> int:
        """Delete segments older than snapshot counter ``below``.

        Only call once the checkpoint at ``below`` is durably on disk —
        those segments' contents are then contained in the snapshot.
        Returns the number of files removed.
        """
        removed = 0
        for path in glob.glob(os.path.join(directory, "wal-*.log")):
            name = os.path.basename(path)
            try:
                part_s, counter_s = name[4:-4].split("-")
                part, counter = int(part_s), int(counter_s)
            except ValueError:
                continue  # not one of ours
            if partitions is not None and part not in set(partitions):
                continue
            if counter < below:
                try:
                    os.remove(path)
                    removed += 1
                except OSError:
                    pass
        if removed:
            fsync_directory(directory)
        return removed
