"""Sealed shared-memory SPSC ring buffers: the switchless data plane.

The paper's hot path never crosses the enclave boundary per request —
HotCalls-style shared-memory handoffs replace OCALLs (§2.2, and the
exit-less data-path design of Harnik et al.).  This module is that idea
applied to our worker IPC: instead of round-tripping every batch frame
through a ``multiprocessing`` pipe (two kernel copies plus a wakeup per
direction), the parent and each worker share two fixed-size ring
buffers — one request ring (parent produces, worker consumes) and one
reply ring (the reverse).  Each ring is an anonymous ``memfd``
(``os.memfd_create`` + ``ftruncate``) mapped by both processes: the
worker inherits the descriptor, so the ring has no name on any
filesystem — nothing to unlink and nothing a killed process can leak.

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
    +------------- data (num_slots * slot_size) --------+
    | frame := len u32 | sealed record | pad to slot    |
    | frame := ...                                      |
    +---------------------------------------------------+

``head`` and ``tail`` are *monotonic* byte counters (physical offset =
``counter % capacity``), each written by exactly one side: the producer
advances ``head`` after copying a frame in, the consumer advances
``tail`` after copying a frame out.  Frames start on slot boundaries
(their footprint is padded up to a slot multiple) and the payload bytes
are logically contiguous — a frame crossing the physical end of the
ring is split into two ``memoryview`` copies.  A frame larger than the
whole ring streams through it in chunks: the producer publishes bytes
as slots free up and the consumer releases them as it assembles the
frame, so snapshot sections of any size cross without growing the ring.

Readiness without futexes
-------------------------
Each side first spins its ring's ``spin`` cooperative ``sleep(0)``
yields (:func:`spin_budget`: decided once by whoever builds the plane,
zero unless the waiter has a core no pool process needs), then arms its
*waiting flag* in the header and naps on the **doorbell** — one duplex
``multiprocessing`` ``Connection`` pair per worker, shared by both
rings.  A producer publishing into a ring
whose consumer declared itself waiting sends one doorbell byte; the
waiter re-checks the ring *after* arming the flag and before napping,
so the publish-then-check / arm-then-check orders close the lost-wakeup
race.  Doorbell naps are always bounded by :data:`POLL_INTERVAL`, so a
dropped doorbell (see the ``shmring.doorbell`` fault point) degrades to
at most one poll interval of added latency — never a deadlock — and
the doorbell's EOF doubles as peer-death detection for the worker.
"""

from __future__ import annotations

import mmap
import os
import struct
import time
from typing import Callable, Optional

from repro.errors import StoreError

__all__ = [
    "DEFAULT_NUM_SLOTS",
    "DEFAULT_SLOT_SIZE",
    "Doorbell",
    "RingPeerGone",
    "RingTimeout",
    "ShmRing",
    "shm_supported",
    "spin_budget",
]

# 1024 slots x 1 KiB = 1 MiB per ring: a 256-op batch frame fits in a
# handful of slots, and snapshot sections stream through chunked.
DEFAULT_NUM_SLOTS = 1024
DEFAULT_SLOT_SIZE = 1024

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


def spin_budget(usable: int, processes: int) -> int:
    """Cooperative yields before arming the doorbell, for a plane whose
    ``processes`` (workers + the parent) share ``usable`` CPUs.

    A spin pays only when the waiter holds a core nobody else needs:
    the peer runs concurrently and a short spin usually sees progress
    with no doorbell syscall at all — the switchless fast path.  With
    fewer CPUs than processes each ``sleep(0)`` is a scheduler round
    trip onto a core a worker is computing on: the budget is zero and
    waits arm the doorbell at once, at the pipe plane's poll/wake cost.
    """
    return 100 if usable >= processes else 0


def shm_supported() -> bool:
    """Whether this platform can host shared-memory rings."""
    return hasattr(os, "memfd_create")


class RingTimeout(OSError):
    """A bounded ring wait expired before the peer made progress."""


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
        self.waits = 0

    def ring(self) -> None:
        """Send one wakeup byte (best-effort: peer death is the alive
        callback's job, not the doorbell's)."""
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
        self.waits += 1
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

    def __init__(
        self, fd: int, num_slots: int, slot_size: int, role: str, owner: bool, spin: int
    ):
        if role not in ("producer", "consumer"):
            raise StoreError(f"unknown ring role {role!r}")
        if num_slots < 2 or slot_size < 16:
            raise StoreError("ring needs >= 2 slots of >= 16 bytes")
        self.fd = fd
        # The ring's identity across processes: it has no filesystem name.
        self.name = f"memfd:{os.fstat(fd).st_ino}"
        self._map = mmap.mmap(fd, HEADER_SIZE + num_slots * slot_size)
        self.shm = memoryview(self._map)
        self.num_slots = num_slots
        self.slot_size = slot_size
        self.capacity = num_slots * slot_size
        self.role = role
        self.spin = spin  # yields before arming the doorbell (spin_budget)
        self._owner = owner
        # Cache of the counter this side owns (head for the producer,
        # tail for the consumer) — re-read from the header at attach.
        own_off = _HEAD_OFF if role == "producer" else _TAIL_OFF
        self._local = _U64.unpack_from(self.shm, own_off)[0]
        self.doorbell: Optional[Doorbell] = None
        self._closed = False
        # -- occupancy / wait counters (parent aggregates them into
        #    TransportStats; see repro.core.stats) --
        self.frames = 0          # complete frames moved through this end
        self.bytes_moved = 0     # prefix + payload bytes (pad excluded)
        self.full_waits = 0      # producer found the ring full
        self.spin_yields = 0     # sleep(0) yields taken before arming
        self.doorbell_waits = 0  # times this end armed its waiting flag
        self.max_occupancy = 0   # high-water mark of in-flight bytes

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        role: str,
        num_slots: int = DEFAULT_NUM_SLOTS,
        slot_size: int = DEFAULT_SLOT_SIZE,
        spin: int = 0,
    ) -> "ShmRing":
        if not shm_supported():
            raise StoreError("platform has no os.memfd_create")
        fd = os.memfd_create("shieldstore-ring")  # close-on-exec
        try:
            os.ftruncate(fd, HEADER_SIZE + num_slots * slot_size)  # zero-filled
            return cls(fd, num_slots, slot_size, role, owner=True, spin=spin)
        except BaseException:
            os.close(fd)
            raise

    @classmethod
    def attach(
        cls, fd: int, role: str, num_slots: int, slot_size: int, spin: int = 0
    ) -> "ShmRing":
        """Map the ring behind ``fd``; the descriptor stays the caller's."""
        return cls(fd, num_slots, slot_size, role, owner=False, spin=spin)

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

    # -- blocking ------------------------------------------------------------
    def _wait(
        self,
        ready: Callable[[], bool],
        deadline: Optional[float],
        alive: Optional[Callable[[], bool]],
    ) -> None:
        """Block until ``ready()``; spin-yield first, then doorbell-nap.

        Raises :class:`RingTimeout` past ``deadline`` and
        :class:`RingPeerGone` when ``alive`` reports the peer dead (or
        the doorbell hits EOF).  Naps are bounded by ``POLL_INTERVAL``
        so a lost doorbell can only add latency.
        """
        for _ in range(self.spin):
            if ready():
                return
            self.spin_yields += 1
            time.sleep(0)
        if ready():
            return
        self.doorbell_waits += 1
        try:
            while True:
                self._set_waiting(True)
                if ready():
                    return
                nap = POLL_INTERVAL
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise RingTimeout(
                            f"ring {self.role} wait expired "
                            f"(occupancy {self.data_available()}B)"
                        )
                    nap = min(nap, remaining)
                if self.doorbell is not None:
                    self.doorbell.wait(nap)
                else:
                    time.sleep(nap)
                if ready():
                    return
                if alive is not None and not alive():
                    raise RingPeerGone("ring peer process died")
        finally:
            self._set_waiting(False)

    # -- byte movement -------------------------------------------------------
    def _copy_in(self, counter: int, data) -> None:
        """Write ``data`` at monotonic position ``counter`` (wrap-split)."""
        pos = counter % self.capacity
        src = memoryview(data)
        n = len(src)
        first = min(n, self.capacity - pos)
        base = HEADER_SIZE + pos
        self.shm[base : base + first] = src[:first]
        if first < n:
            self.shm[HEADER_SIZE : HEADER_SIZE + n - first] = src[first:]

    def _copy_out(self, counter: int, dest, dest_off: int, n: int) -> None:
        """Read ``n`` bytes at ``counter`` into ``dest[dest_off:]``."""
        pos = counter % self.capacity
        first = min(n, self.capacity - pos)
        base = HEADER_SIZE + pos
        dest[dest_off : dest_off + first] = self.shm[base : base + first]
        if first < n:
            dest[dest_off + first : dest_off + n] = self.shm[
                HEADER_SIZE : HEADER_SIZE + n - first
            ]

    def _padded(self, total: int) -> int:
        return -(-total // self.slot_size) * self.slot_size

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
    def write(
        self,
        frame,
        deadline: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
        block: bool = True,
    ) -> bool:
        """Append one length-prefixed frame; ``True`` once fully written.

        ``block=False`` is the *shed* path: a frame that does not fit in
        the free space right now is refused up front (``False``) with
        zero bytes written, so the caller can drop or retry without the
        ring ever holding a half-frame.  Frames larger than the whole
        ring always stream (they cannot be admitted atomically) and are
        therefore refused when ``block=False``.
        """
        if self.role != "producer":
            raise StoreError("read end cannot write")
        total = _LEN.size + len(frame)
        padded = self._padded(total)
        if padded > self.capacity:
            if not block:
                return False
            self._write_streaming(frame, total, padded, deadline, alive)
        else:
            if self.capacity - (self._local - self._peer_counter()) < padded:
                if not block:
                    return False
                self.full_waits += 1
                self._wait(
                    lambda: self.capacity
                    - (self._local - self._peer_counter())
                    >= padded,
                    deadline,
                    alive,
                )
            self._copy_in(self._local, _LEN.pack(len(frame)))
            self._copy_in(self._local + _LEN.size, frame)
            self._advance(self._local + padded)
        self.frames += 1
        self.bytes_moved += total
        return True

    def _write_streaming(
        self, frame, total: int, padded: int, deadline, alive
    ) -> None:
        """Stream a larger-than-ring frame through in chunks.

        Publishes each chunk as it lands so the consumer can release
        space behind it; only the payload region is copied (pad bytes
        are published but never written).
        """
        prefix = _LEN.pack(len(frame))
        payload = memoryview(frame)
        sent = 0  # bytes of the padded stream already published
        while sent < padded:
            free = self.capacity - (self._local - self._peer_counter())
            if free <= 0:
                self.full_waits += 1
                self._wait(
                    lambda: self.capacity - (self._local - self._peer_counter())
                    > 0,
                    deadline,
                    alive,
                )
                free = self.capacity - (self._local - self._peer_counter())
            take = min(free, padded - sent)
            offset = 0
            if sent < _LEN.size:
                n = min(sent + take, _LEN.size) - sent
                self._copy_in(self._local + offset, prefix[sent : sent + n])
                offset += n
            pay_lo = max(sent, _LEN.size) - _LEN.size
            pay_hi = min(sent + take, total) - _LEN.size
            if pay_hi > pay_lo:
                self._copy_in(self._local + offset, payload[pay_lo:pay_hi])
            self._advance(self._local + take)
            sent += take

    # -- consumer side -------------------------------------------------------
    def poll(self, timeout: float) -> bool:
        """Whether a frame (or its first slots) is ready to read."""
        if self.role != "consumer":
            raise StoreError("write end cannot poll for data")
        if self.data_available() >= _LEN.size:
            return True
        if timeout <= 0:
            return False
        try:
            self._wait(
                lambda: self.data_available() >= _LEN.size,
                time.monotonic() + timeout,
                None,
            )
        except (RingTimeout, RingPeerGone):
            return self.data_available() >= _LEN.size
        return True

    def read(
        self,
        deadline: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> bytes:
        """Pop the next frame (blocking, deadline- and liveness-aware)."""
        if self.role != "consumer":
            raise StoreError("write end cannot read")
        if self.data_available() < _LEN.size:
            self._wait(
                lambda: self.data_available() >= _LEN.size, deadline, alive
            )
        scratch = bytearray(_LEN.size)
        self._copy_out(self._local, scratch, 0, _LEN.size)
        length = _LEN.unpack(bytes(scratch))[0]
        total = _LEN.size + length
        padded = self._padded(total)
        out = bytearray(length)
        if padded <= self.capacity:
            if self.data_available() < padded:
                self._wait(
                    lambda: self.data_available() >= padded, deadline, alive
                )
            self._copy_out(self._local + _LEN.size, out, 0, length)
            self._advance(self._local + padded)
        else:
            self._read_streaming(out, total, padded, deadline, alive)
        self.frames += 1
        self.bytes_moved += total
        return bytes(out)

    def _read_streaming(
        self, out: bytearray, total: int, padded: int, deadline, alive
    ) -> None:
        done = 0  # bytes of the padded stream released back to the producer
        while done < padded:
            avail = self.data_available()
            if avail <= 0:
                self._wait(
                    lambda: self.data_available() > 0, deadline, alive
                )
                avail = self.data_available()
            take = min(avail, padded - done)
            pay_lo = max(done, _LEN.size) - _LEN.size
            pay_hi = min(done + take, total) - _LEN.size
            if pay_hi > pay_lo:
                src = self._local + (max(done, _LEN.size) - done)
                self._copy_out(src, out, pay_lo, pay_hi - pay_lo)
            self._advance(self._local + take)
            done += take

    # -- lifecycle -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Counter view for stats aggregation and debugging."""
        return {
            "role": self.role,
            "frames": self.frames,
            "bytes_moved": self.bytes_moved,
            "full_waits": self.full_waits,
            "spin_yields": self.spin_yields,
            "doorbell_waits": self.doorbell_waits,
            "max_occupancy": self.max_occupancy,
            "capacity": self.capacity,
        }

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
