"""Sealed shared-memory SPSC ring buffers: the shm data plane.

Instead of round-tripping every batch frame through a pipe (two kernel
copies plus a wakeup per direction), the parent and each worker share
two fixed-size ring buffers — one request ring (parent produces, worker
consumes) and one reply ring (the reverse).  Each ring is an anonymous
``memfd`` (``os.memfd_create`` + ``ftruncate``) mapped by both
processes: the worker inherits the descriptor, so the ring has no name
on any filesystem — nothing to unlink and nothing a killed process can
leak.

Only *sealed* records ride the rings.  Shared memory is host-visible,
i.e. untrusted under the §2.3 threat model, exactly like the pipe it
replaces: every frame written here is already encrypted + MACed by the
per-incarnation :class:`~repro.net.message.SecureChannel` the pool
derives in :mod:`repro.core.procpool`.  shieldlint's trust map treats
any *unsealed* store into a ring's mapping (``self.shm[a:b] = x``) as a
trust-boundary violation.

Ring layout
-----------
::

    +---------------- header (64 bytes) ----------------+
    | head u64 | tail u64 | cwait u8 | pwait u8 | pad   |
    +----------------- data (capacity) -----------------+
    | len u32 | sealed record | len u32 | sealed rec... |
    +---------------------------------------------------+

``head`` and ``tail`` are *monotonic* byte counters (physical offset =
``counter % capacity``), each written by exactly one side.  Every frame
— a 20-byte reply or a multi-MiB snapshot section alike — is the byte
stream ``len u32 | record``, packed back to back with no padding, and
moves one way: the producer copies in whatever fits and advances
``head``, the consumer copies out whatever is published and advances
``tail``.  So a frame larger than the ring streams through it, and any
byte of a frame, its length prefix included, may sit on either side of
the physical end or of a publish.  The length prefix lies in
host-writable memory, so the reader never allocates on its word: a
frame grows only by the bytes actually published.

Capacity
--------
A ring holds :data:`DEFAULT_CAPACITY` (64 KiB) of data.  It is sized to
the frames the plane usually carries, not to the largest it could
carry: a batch of a few hundred keys and its reply fit with room to
spare, and anything larger streams through in publishes of up to the
capacity.
A ring therefore costs at most ``HEADER_SIZE + capacity`` resident
bytes in each process that maps it, whatever crosses it.

Readiness without futexes
-------------------------
A side that must wait arms its *waiting flag* in the header and naps on
the **doorbell** — one duplex ``multiprocessing`` ``Connection`` pair
per worker, shared by both rings.  A producer publishing into a ring
whose consumer declared itself waiting sends one doorbell byte; the
waiter re-checks the ring *after* arming the flag and before napping,
so the publish-then-check / arm-then-check orders close the lost-wakeup
race.  Doorbell naps are always bounded by :data:`POLL_INTERVAL`, so a
dropped doorbell (see the ``shmring.doorbell`` fault point) degrades to
at most one poll interval of added latency — never a deadlock.  Each
process holds the only copy of its doorbell end, so the doorbell's EOF
is how a waiter learns its peer died (:class:`RingPeerGone`).
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from typing import Callable, Optional

from repro.errors import StoreError

__all__ = [
    "DEFAULT_CAPACITY",
    "Doorbell",
    "RingPeerGone",
    "ShmRing",
    "shm_supported",
]

# 64 KiB per ring.  The data region's pages become resident in both
# processes once the write position has swept them, so the capacity is
# what a ring costs in RSS.  The largest frame the shieldbench workloads
# send is 27,482 bytes (one worker's 128-pair slice of a 256-pair bulk
# load), 2.4x under this; 64 KiB is also the Linux pipe buffer, so both
# data planes start streaming at the same frame size.  Larger frames
# (snapshot sections, OP_ITER replies, big client batches) stream
# through and pay for it: a 1 MiB frame took 1.8x as long as through a
# 1 MiB ring pinned to one CPU and 3.6x on two vCPUs, about 1.5 ms,
# which is small next to the store work of the thousands of keys such
# a frame carries.
DEFAULT_CAPACITY = 64 << 10

HEADER_SIZE = 64
_HEAD_OFF = 0   # u64, producer-owned monotonic byte counter
_TAIL_OFF = 8   # u64, consumer-owned monotonic byte counter
_CWAIT_OFF = 16  # u8, consumer armed the doorbell (producer must ring)
_PWAIT_OFF = 17  # u8, producer armed the doorbell (consumer must ring)

_U64 = struct.Struct("<Q")
_LEN = struct.Struct("<I")

# Upper bound on one doorbell nap.  CPython gives no cross-process
# memory-ordering guarantees for the waiting flags, so waits are always
# bounded: a lost doorbell costs at most this much latency.
POLL_INTERVAL = 0.02


def shm_supported() -> bool:
    """Whether this platform can host shared-memory rings."""
    return hasattr(os, "memfd_create")


class RingPeerGone(OSError):
    """The peer died or closed its doorbell end mid-wait."""


class Doorbell:
    """The wakeup line both rings of one worker share.

    A doorbell byte carries no meaning beyond "re-check your ring":
    both sides send on publish/release and drain everything pending on
    wake, so sharing one duplex ``Connection`` pair between the request
    and reply rings is safe — each process only ever naps on one
    condition at a time (the plane is strict request/reply).
    """

    def __init__(self, conn, fault_point: Optional[str] = None):
        self.conn = conn
        self.fault_point = fault_point
        self.on_crash: Optional[Callable[[], None]] = None
        self.rings = 0

    def ring(self) -> None:
        """Send one wakeup byte (best-effort: a dead peer shows as EOF
        in the waiting side's :meth:`wait`, not here)."""
        if self.fault_point is not None:
            from repro.sim import faults

            try:
                hit = faults.check(
                    self.fault_point, b"\x01", on_crash=self.on_crash
                )
            except OSError:
                return  # injected crash/error: the wakeup byte is lost
            if hit is not None and hit.kind == "drop":
                return
        self.rings += 1
        try:
            self.conn.send_bytes(b"\x01")
        except (BrokenPipeError, OSError):
            pass

    def wait(self, timeout: float) -> None:
        """Nap until rung or ``timeout``; drains every pending byte."""
        try:
            if self.conn.poll(timeout):
                while True:
                    self.conn.recv_bytes(maxlength=64)
                    if not self.conn.poll(0):
                        break
        except EOFError as exc:
            raise RingPeerGone("ring doorbell closed by peer") from exc
        except OSError as exc:
            raise RingPeerGone(f"ring doorbell broke ({exc})") from exc

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class ShmRing:
    """One direction of a worker's data plane (single producer, single
    consumer) in one shared mapping of a ``memfd``.

    Exactly one process holds the ``producer`` role and one the
    ``consumer`` role; each caches its own counter locally (it is the
    only writer) and reads the peer's from the header.  The creating
    side *owns* the descriptor (``fd``, handed to the worker at spawn)
    and closes it on :meth:`close`; the memory goes with the last
    mapping.
    """

    def __init__(self, fd: int, capacity: int, role: str, owner: bool):
        if role not in ("producer", "consumer"):
            raise StoreError(f"unknown ring role {role!r}")
        if capacity < 1:
            raise StoreError("ring needs a data region of >= 1 byte")
        self.fd = fd
        # The ring's identity across processes: it has no filesystem name.
        self.name = f"memfd:{os.fstat(fd).st_ino}"
        self._map = mmap.mmap(fd, HEADER_SIZE + capacity)
        self.shm = memoryview(self._map)
        self.capacity = capacity
        self.role = role
        self._owner = owner
        # Cache of the counter this side owns (head for the producer,
        # tail for the consumer) — re-read from the header at attach.
        own_off = _HEAD_OFF if role == "producer" else _TAIL_OFF
        self._local = _U64.unpack_from(self.shm, own_off)[0]
        self.doorbell: Optional[Doorbell] = None
        self._closed = False
        # -- occupancy / wait counters (the ring fields of the
        #    worker's StoreStats record; see repro.core.stats) --
        self.frames = 0          # complete frames moved through this end
        self.bytes_moved = 0     # prefix + payload bytes
        self.full_waits = 0      # producer found the ring full
        self.doorbell_waits = 0  # times this end armed its waiting flag
        self.max_occupancy = 0   # high-water mark of in-flight bytes

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, role: str, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        if not shm_supported():
            raise StoreError("platform has no os.memfd_create")
        fd = os.memfd_create("shieldstore-ring")  # close-on-exec
        try:
            os.ftruncate(fd, HEADER_SIZE + capacity)  # zero-filled
            return cls(fd, capacity, role, owner=True)
        except BaseException:
            os.close(fd)
            raise

    @classmethod
    def attach(cls, fd: int, role: str, capacity: int) -> "ShmRing":
        """Map the ring behind ``fd``; the descriptor stays the caller's."""
        return cls(fd, capacity, role, owner=False)

    # -- header accessors ----------------------------------------------------
    def _peer_counter(self) -> int:
        """The counter the *other* side owns (tail for a producer)."""
        off = _TAIL_OFF if self.role == "producer" else _HEAD_OFF
        return _U64.unpack_from(self.shm, off)[0]

    def _publish_counter(self, value: int) -> None:
        off = _HEAD_OFF if self.role == "producer" else _TAIL_OFF
        _U64.pack_into(self.shm, off, value)
        self._local = value

    def _peer_waiting(self) -> bool:
        off = _CWAIT_OFF if self.role == "producer" else _PWAIT_OFF
        return self.shm[off] != 0

    def _set_waiting(self, flag: bool) -> None:
        off = _PWAIT_OFF if self.role == "producer" else _CWAIT_OFF
        self.shm[off] = 1 if flag else 0

    # -- occupancy -----------------------------------------------------------
    def data_available(self) -> int:
        """Unconsumed bytes currently in the ring."""
        if self.role == "producer":
            return self._local - self._peer_counter()
        return self._peer_counter() - self._local

    def _has_data(self) -> bool:
        return self.data_available() > 0

    def _has_room(self) -> bool:
        return self.data_available() < self.capacity

    # -- blocking ------------------------------------------------------------
    def _wait(
        self, ready: Callable[[], bool], deadline: Optional[float] = None
    ) -> bool:
        """Block until ``ready()``: arm the flag, re-check, doorbell-nap.

        Returns False once ``deadline`` (only :meth:`poll` passes one)
        has passed.  Raises :class:`RingPeerGone` when the doorbell hits
        EOF with the ring still not ready — what a dead peer published
        before it went is still read.  Naps are bounded by
        ``POLL_INTERVAL`` so a lost doorbell can only add latency.
        """
        if ready():
            return True
        self.doorbell_waits += 1
        try:
            while True:
                self._set_waiting(True)
                if ready():
                    return True
                nap = POLL_INTERVAL
                if deadline is not None:
                    nap = min(nap, deadline - time.monotonic())
                    if nap <= 0:
                        return False
                if self.doorbell is None:
                    time.sleep(nap)
                    continue
                try:
                    self.doorbell.wait(nap)
                except RingPeerGone:
                    if ready():
                        return True
                    raise
        finally:
            self._set_waiting(False)

    # -- byte movement -------------------------------------------------------
    def _copy_in(self, data) -> None:
        """Write ``data`` at the producer's position (wrap-split)."""
        pos = self._local % self.capacity
        src = memoryview(data)
        n = len(src)
        first = min(n, self.capacity - pos)
        base = HEADER_SIZE + pos
        self.shm[base : base + first] = src[:first]
        if first < n:
            self.shm[HEADER_SIZE : HEADER_SIZE + n - first] = src[first:]

    def _copy_out(self, dest: bytearray, n: int) -> None:
        """Append ``n`` bytes at the consumer's position to ``dest``."""
        pos = self._local % self.capacity
        first = min(n, self.capacity - pos)
        base = HEADER_SIZE + pos
        dest += self.shm[base : base + first]
        if first < n:
            dest += self.shm[HEADER_SIZE : HEADER_SIZE + n - first]

    def _advance(self, new_counter: int) -> None:
        """Publish progress and ring the peer iff it armed its flag."""
        self._publish_counter(new_counter)
        if self.role == "producer":
            occupancy = self.data_available()
            if occupancy > self.max_occupancy:
                self.max_occupancy = occupancy
        if self._peer_waiting() and self.doorbell is not None:
            self.doorbell.ring()

    # -- producer side -------------------------------------------------------
    def write(self, frame) -> None:
        """Stream one ``len u32 | frame`` record in, publishing whatever
        fits and blocking while the ring is full."""
        if self.role != "producer":
            raise StoreError("read end cannot write")
        record = memoryview(_LEN.pack(len(frame)) + frame)
        sent = 0
        while sent < len(record):
            # The peer's counter is host-writable: clamping to the
            # capacity keeps a forged one from pushing a copy past the
            # mapping.
            free = min(self.capacity - self.data_available(), self.capacity)
            if free <= 0:
                self.full_waits += 1
                self._wait(self._has_room)
                continue
            take = min(free, len(record) - sent)
            self._copy_in(record[sent : sent + take])
            self._advance(self._local + take)
            sent += take
        self.frames += 1
        self.bytes_moved += len(record)

    # -- consumer side -------------------------------------------------------
    def poll(self, timeout: float) -> bool:
        """Whether frame bytes are ready to read within ``timeout``
        (False, too, once the peer is gone with nothing published)."""
        if self.role != "consumer":
            raise StoreError("write end cannot poll for data")
        try:
            return self._wait(self._has_data, time.monotonic() + timeout)
        except RingPeerGone:
            return False

    def read(self) -> bytes:
        """Stream the next frame out, releasing bytes as they are copied
        and blocking until the whole frame is published."""
        if self.role != "consumer":
            raise StoreError("write end cannot read")
        record = bytearray()
        want = _LEN.size  # the prefix, then the prefix plus what it counts
        while len(record) < want:
            avail = min(self.data_available(), self.capacity)
            if avail <= 0:
                self._wait(self._has_data)
                continue
            take = min(avail, want - len(record))
            self._copy_out(record, take)
            self._advance(self._local + take)
            if len(record) == _LEN.size:
                want += _LEN.unpack(record)[0]
        self.frames += 1
        self.bytes_moved += want
        return bytes(memoryview(record)[_LEN.size :])

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the mapping; the owning side also closes the memfd."""
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.release()
            self._map.close()
        except BufferError:
            pass  # a view still in use: the mapping goes with the object
        if self._owner:
            os.close(self.fd)

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
