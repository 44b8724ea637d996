"""Shared-nothing multiprocess partition engine.

The paper's scalability result (§5.4, Figs. 12-13) comes from
hash-partitioned threads that never synchronize: each thread owns a
disjoint slice of the table.  In CPython a thread pool cannot cash that
design in — the GIL serializes the Python-level store work — so this
module turns partitions into *processes*: one long-lived worker process
per partition, spawned once at pool construction (mirroring §5.3's
fixed enclave thread pool), each owning a private enclave simulation
(:class:`~repro.sim.enclave.Machine` + :class:`~repro.core.store.ShieldStore`)
that no other process can touch.  No locks, no shared state, no GIL
contention — the only coupling is the batched IPC below.

Data plane
----------
The parent routes operations by key (the same keyed hash the in-process
router uses) and ships each worker its slice of a batch as one
length-prefixed frame over a pluggable **data plane**::

    record   := SecureChannel.seal(frame)   # per-worker session channel
    frame    := opcode(1) | payload
    OP_REQ   payload = net.message.encode_request(...)   # single or batch op
    OK reply payload = net.message.encode_response(...)
    ERR reply payload = class_len(1) | class_name | utf-8 message

Two planes carry those records (``data_plane=`` selects one):

* ``"shm"`` (default) — per-worker sealed shared-memory ring buffers
  (:mod:`repro.core.shmring`): one request ring + one reply ring, with
  ``Connection``-based doorbells for readiness.  This is the paper's
  switchless/HotCalls idea applied to worker IPC: the hot path moves
  sealed bytes through shared memory with a single ``memoryview`` copy
  per side and, where the pool has a core to spare, no syscall at all.
* ``"pipe"`` — the original ``multiprocessing`` pipe (two kernel
  copies and a wakeup per direction); kept as the portable fallback
  and selected automatically where shared memory is unavailable.

Every record is sealed (encrypted + MACed with per-direction sequence
counters) under a per-*incarnation* session key both ends derive from
the master secret and a fresh public nonce drawn at every (re)spawn:
both planes cross host-visible memory, which is outside the simulated
enclave boundary, so plaintext never rides them, and a respawned worker
never resumes its predecessor's key/sequence space — same rules as the
TCP wire and its per-session handshake.  A respawn also gets *fresh
rings*, so a reply left over from a dead incarnation physically cannot
arrive — and if its bytes were replayed anyway, the stale-nonce channel
would refuse to authenticate them.

Key/value payloads reuse the :mod:`repro.net.message` codecs — the same
compact framing the wire protocol uses — rather than pickle, so a
hostile or corrupted worker can at worst produce a malformed frame (a
:class:`~repro.errors.ProtocolError`), never arbitrary object
construction in the parent.  Control-plane frames (stats, audit,
iteration) are parent-trusted and carry JSON or fixed-width integers.

Pipes pair requests with replies positionally, so the parent holds a
per-worker lock across each send/recv round-trip: concurrent parent
threads (the TCP server's executor threads, the snapshot daemon) stay
correctly paired instead of interleaving frames and reading each
other's replies.

Snapshots and crash recovery
----------------------------
``OP_SNAPSHOT`` has a worker seal + serialize its private store into a
snapshot *section* (paper §4.4: sealed metadata, already-encrypted
records verbatim) and ship the section — never plaintext — back over
the pipe.  A section only ever travels the other way as a *spawn
argument*: a worker is born from it (plus its log tail) and reports
the counter its recovery reached in its start-up handshake.  The pool
caches the sections it was built from, then those of the most recent
snapshot, and that cache is the recovery checkpoint:

A :class:`~repro.errors.ReproError` raised inside a worker (integrity
violation, crypto misuse...) is re-raised in the parent as the *same
exception class*, with the partition index prepended to the message.  A
worker that dies (crash, OOM-kill) or wedges past ``request_timeout``
is detected by liveness polling — never a blocking pipe read — and the
pool *recovers*: the dead process is respawned on the cached snapshot
section, exactly as at start-up.  The interrupted call still raises
:class:`~repro.errors.WorkerError` (its mutations may be lost), but the
pool keeps serving; ``state`` reports ``"recovered"`` and ``ops_lost``
counts an upper bound of mutations issued since the snapshot.  With no
snapshot to restore from the partition comes back *empty* and ``state``
reports ``"degraded"``.  Only a failed recovery marks the pool broken.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import struct
import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.core.config import StoreConfig
from repro.core.entry import TAMPER_PROBE_OFFSET
from repro.core.shmring import (
    DEFAULT_NUM_SLOTS,
    DEFAULT_SLOT_SIZE,
    Doorbell,
    ShmRing,
    shm_supported,
    spin_budget,
)
from repro.core.stats import StoreStats, TransportStats
from repro.crypto.keys import derive_key
from repro.crypto.suite import make_suite
from repro.errors import (
    KeyNotFoundError,
    ProtocolError,
    ReproError,
    StoreError,
    WorkerError,
)
from repro.net.message import (
    BATCH_OPS,
    MUTATING_OPS,
    STATUS_MISS,
    STATUS_OK,
    Request,
    Response,
    SecureChannel,
    StoreVerbs,
    batch_result,
    decode_multi_items,
    decode_request,
    decode_response,
    encode_multi_items,
    encode_multi_keys,
    encode_request,
    encode_response,
)
from repro.sim import faults
from repro.util import usable_cpus

# -- frame opcodes ------------------------------------------------------------
OP_REQ = 0x01       # execute one Request (single-key or mget/mset/mdelete)
OP_STATS = 0x02     # -> JSON snapshot of the worker's StoreStats
OP_ITER = 0x03      # -> encode_multi_items of all (key, value) pairs
OP_AUDIT = 0x04     # -> u64 entries checked (full integrity audit)
OP_LEN = 0x05       # -> u64 live entry count
OP_ELAPSED = 0x06   # -> f64 simulated microseconds on the worker's machine
OP_PING = 0x07      # -> u64 counter the worker's recovery reached (handshake)
OP_TAMPER = 0x08    # flip one bit of an entry's untrusted bytes (tests)
OP_SHUTDOWN = 0x09  # -> empty OK, then the worker exits cleanly
OP_SNAPSHOT = 0x0A  # u64 counter -> sealed snapshot section (§4.4)
OP_TIMING = 0x0C    # -> JSON worker compute / CPU seconds + ring wait counts

REPLY_OK = 0x80
REPLY_ERR = 0xFF

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

# Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.1
# Deadline for a (re)spawned worker's handshake: interpreter spawn,
# section load, log replay (not request_timeout, which may be sub-second).
_RECOVERY_TIMEOUT = 60.0


def process_mode_supported() -> bool:
    """Whether this platform can run the multiprocess engine.

    Needs a working ``spawn`` start method (the only one that is safe
    regardless of parent threads) and OS-level semaphore support, which
    some sandboxed platforms lack.
    """
    try:
        from multiprocessing import synchronize  # noqa: F401  (probe only)

        multiprocessing.get_context("spawn")
    except (ImportError, ValueError, OSError):
        return False
    return True


def _encode_error(exc: BaseException) -> bytes:
    name = type(exc).__name__.encode("ascii", "replace")[:255]
    return bytes([REPLY_ERR, len(name)]) + name + str(exc).encode("utf-8", "replace")


def _decode_error(frame: bytes, index: int) -> ReproError:
    """Rebuild a worker-side exception, annotated with its partition."""
    name_len = frame[1]
    name = frame[2 : 2 + name_len].decode("ascii", "replace")
    message = frame[2 + name_len :].decode("utf-8", "replace")
    klass = getattr(_errors, name, None)
    if not (isinstance(klass, type) and issubclass(klass, ReproError)):
        klass = StoreError
    return klass(f"partition {index}: {message}")


def _mutation_count(request: Request) -> int:
    """How many key mutations a request carries (0 for reads) — what a
    worker dying before the next snapshot loses without a WAL.  Batch
    ops count their per-key operations."""
    if request.op not in MUTATING_OPS:
        return 0
    if request.op in BATCH_OPS:
        if len(request.value) >= 4:
            return struct.unpack_from("<I", request.value, 0)[0]
        return 0
    return 1


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _tamper(store, key: bytes) -> None:
    """Flip one bit of ``key``'s entry record in untrusted memory.

    The in-process equivalent of :class:`~repro.sim.attacker.Attacker`
    pointed at a worker's private memory — tests use it to prove that
    integrity failures cross the process boundary as the original
    exception class.
    """
    bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
    addr = int.from_bytes(
        store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
        "little",
    )
    if not addr:
        raise StoreError(f"tamper target {key!r} has an empty bucket")
    offset = addr + TAMPER_PROBE_OFFSET  # inside the encrypted key/value bytes
    byte = store.machine.memory.raw_read(offset, 1)[0]
    store.machine.memory.raw_write(offset, bytes([byte ^ 0x01]))


def _fresh_nonce() -> bytes:
    """Public per-spawn freshness value for :func:`_pipe_channel` keys."""
    return os.urandom(16)


def _pipe_channel(
    master_secret: bytes, index: int, nonce: bytes, role: str, suite_name: str
) -> SecureChannel:
    """Session channel sealing one worker pipe end (paper §3.2 spirit).

    Pipe frames cross the host kernel, which sits outside the simulated
    enclave boundary — so the data plane is encrypted + MACed end to
    end, exactly like the TCP wire.  Both ends derive the same
    per-worker key from the master secret (parent takes the ``client``
    role, worker the ``server`` role, fixing disjoint IV domains).

    ``nonce`` is a public per-spawn freshness value the parent draws
    anew for every (re)spawn and ships in the worker args.  Mixing it
    into the derivation makes each worker incarnation its own session:
    the host can kill a worker to force a respawn (and the sequence
    counters restart at zero with it), but the respawned channel pair
    holds fresh keys, so records recorded from the previous incarnation
    never authenticate and (key, IV) pairs are never reused across
    incarnations — the pipe-session analogue of the per-session DH
    derivation the TCP wire gets from its §3.2 handshake.
    """
    secret = derive_key(
        master_secret, f"shieldstore/procpool/{index}/{nonce.hex()}", 32
    )
    return SecureChannel(
        make_suite(
            suite_name,
            derive_key(secret, "pipe/enc"),
            derive_key(secret, "pipe/mac"),
        ),
        role,
    )


# ---------------------------------------------------------------------------
# data planes
# ---------------------------------------------------------------------------
DATA_PLANE_SHM = "shm"
DATA_PLANE_PIPE = "pipe"
DATA_PLANES = (DATA_PLANE_SHM, DATA_PLANE_PIPE)


def default_data_plane() -> str:
    """``shm`` where shared memory exists, else the portable pipe."""
    return DATA_PLANE_SHM if shm_supported() else DATA_PLANE_PIPE


class _PipeWorkerEnd:
    """Worker-side endpoint of the pipe plane (picklable spawn arg)."""

    kind = DATA_PLANE_PIPE

    def __init__(self, conn):
        self.conn = conn

    def open(self) -> "_PipeWorkerEnd":
        return self

    def recv_bytes(self) -> bytes:
        return self.conn.recv_bytes()

    def send_bytes(self, raw: bytes) -> None:
        self.conn.send_bytes(raw)

    def wait_counts(self) -> dict:
        return {}

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class _ShmWorkerEnd:
    """Worker-side endpoint of the shm plane (picklable spawn arg).

    Carries the ring names and geometry, the pool's wait policy
    (``spin``) and the worker's doorbell ``Connection``; :meth:`open`
    attaches the rings with the roles mirrored (the worker consumes
    requests and produces replies).
    """

    kind = DATA_PLANE_SHM

    def __init__(self, req_name, rep_name, conn, num_slots, slot_size, spin):
        self.req_name = req_name
        self.rep_name = rep_name
        self.conn = conn
        self.num_slots = num_slots
        self.slot_size = slot_size
        self.spin = spin
        self.req = None
        self.rep = None

    def open(self) -> "_ShmWorkerEnd":
        self.req = ShmRing.attach(
            self.req_name, "consumer", self.num_slots, self.slot_size, self.spin
        )
        self.rep = ShmRing.attach(
            self.rep_name, "producer", self.num_slots, self.slot_size, self.spin
        )
        doorbell = Doorbell(self.conn)
        self.req.doorbell = doorbell
        self.rep.doorbell = doorbell
        return self

    def recv_bytes(self) -> bytes:
        # Blocks on the doorbell; the parent dying surfaces as the
        # doorbell's EOF (RingPeerGone is an OSError), which the serve
        # loop treats exactly like a closed pipe.
        return self.req.read()

    def send_bytes(self, raw: bytes) -> None:
        self.rep.write(raw)

    def wait_counts(self) -> dict:
        req, rep = self.req.snapshot(), self.rep.snapshot()
        return {n: req[n] + rep[n] for n in ("spin_yields", "doorbell_waits")}

    def close(self) -> None:
        if self.req is not None:
            self.req.close()
        if self.rep is not None:
            self.rep.close()
        try:
            self.conn.close()
        except OSError:
            pass


class _PipePlane:
    """Parent-side pipe data plane (the portable fallback)."""

    kind = DATA_PLANE_PIPE

    def __init__(self, ctx, index: int):
        self.index = index
        self.conn, self._child_conn = ctx.Pipe(duplex=True)

    def worker_end(self) -> _PipeWorkerEnd:
        return _PipeWorkerEnd(self._child_conn)

    def finish_spawn(self, process) -> None:
        self._child_conn.close()  # parent keeps only its own end
        self._child_conn = None

    def send(self, raw, on_crash, deadline=None, alive=None) -> None:
        raw = faults.cross("procpool.pipe.send", raw, on_crash)
        if raw is faults.DROPPED:
            # The frame is lost in the kernel; the reply wait
            # will time out and trigger worker recovery.
            return
        self.conn.send_bytes(raw)

    def send_raw(self, raw) -> None:
        """Fault-free send for the shutdown control path."""
        self.conn.send_bytes(raw)

    def poll(self, timeout: float) -> bool:
        return self.conn.poll(timeout)

    def recv(self, on_crash, deadline=None, alive=None) -> bytes:
        raw = self.conn.recv_bytes()
        raw = faults.cross("procpool.pipe.recv", raw, on_crash)
        if raw is faults.DROPPED:
            raise OSError("injected pipe frame drop")
        return raw

    def transport_stats(self) -> TransportStats:
        return TransportStats()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class _ShmPlane:
    """Parent-side shared-memory ring plane (the switchless hot path).

    Owns both rings (request: parent produces; reply: parent consumes)
    and the doorbell pipe.  Faults inject here — parent-side, where the
    §2.3 host adversary sits — under the ``shmring.*`` points.
    """

    kind = DATA_PLANE_SHM

    def __init__(self, ctx, index: int, num_slots: int, slot_size: int, spin: int):
        self.index = index
        self.num_slots = num_slots
        self.slot_size = slot_size
        self.req = ShmRing.create("producer", num_slots, slot_size, spin)
        self.rep = ShmRing.create("consumer", num_slots, slot_size, spin)
        self.conn, self._child_conn = ctx.Pipe(duplex=True)
        self._doorbell = Doorbell(self.conn, fault_point="shmring.doorbell")
        self.req.doorbell = self._doorbell
        self.rep.doorbell = self._doorbell

    def worker_end(self) -> _ShmWorkerEnd:
        return _ShmWorkerEnd(
            self.req.name,
            self.rep.name,
            self._child_conn,
            self.num_slots,
            self.slot_size,
            self.req.spin,
        )

    def finish_spawn(self, process) -> None:
        self._child_conn.close()  # parent keeps only its own end
        self._child_conn = None
        # An injected doorbell "crash" should kill the worker like any
        # other crossing crash.
        self._doorbell.on_crash = process.kill

    def send(self, raw, on_crash, deadline=None, alive=None) -> None:
        raw = faults.cross("shmring.write", raw, on_crash)
        if raw is faults.DROPPED:
            # The frame is never written; the reply wait will time
            # out and trigger worker recovery.
            return
        self.req.write(raw, deadline=deadline, alive=alive)

    def send_raw(self, raw) -> None:
        self.req.write(raw)

    def poll(self, timeout: float) -> bool:
        return self.rep.poll(timeout)

    def recv(self, on_crash, deadline=None, alive=None) -> bytes:
        raw = self.rep.read(deadline=deadline, alive=alive)
        raw = faults.cross("shmring.read", raw, on_crash)
        if raw is faults.DROPPED:
            raise OSError("injected ring frame drop")
        return raw

    def transport_stats(self) -> TransportStats:
        stats = TransportStats()
        stats.ring_frames = self.req.frames + self.rep.frames
        stats.ring_bytes = self.req.bytes_moved + self.rep.bytes_moved
        stats.ring_full_waits = self.req.full_waits + self.rep.full_waits
        stats.ring_spin_yields = self.req.spin_yields + self.rep.spin_yields
        stats.ring_doorbell_waits = (
            self.req.doorbell_waits + self.rep.doorbell_waits
        )
        stats.ring_doorbell_rings = self._doorbell.rings
        stats.ring_max_occupancy = max(
            self.req.max_occupancy, self.rep.max_occupancy
        )
        return stats

    def close(self) -> None:
        self.req.close()
        self.rep.close()
        self._doorbell.close()


def _worker_main(
    end,
    index: int,
    config: StoreConfig,
    master_secret: bytes,
    channel_nonce: bytes,
    platform_secret: Optional[bytes] = None,
    wal_dir: Optional[str] = None,
    wal_sync_ms: float = 2.0,
    checkpoint: Optional[Tuple[int, bytes]] = None,
) -> None:
    """Entry point of one partition worker process.

    ``end`` is the worker-side data-plane endpoint (pipe connection or
    shared-memory ring pair).  Hosts a private partition
    (:class:`~repro.core.host.PartitionHost`: machine + enclave + store
    + sealed log) born from ``checkpoint`` — at pool start-up and at a
    respawn alike — then serves frames until shutdown or EOF; one that
    cannot be built answers the handshake with the error and exits.  Clean
    :class:`ReproError` failures are reported and the loop continues —
    the store flushes its dirty sets before the exception escapes
    ``multi_set``/``multi_delete``, so the partition stays consistent
    and serviceable.

    ``platform_secret`` keys the host's sealing service
    (``OP_SNAPSHOT`` / ``checkpoint``); the parent derives it from the
    master secret by default, so every worker of one deployment (and a
    restarted deployment with the same secret) is the same "platform".
    """
    from repro.core.host import PartitionHost
    from repro.net.server import execute_request

    channel = _pipe_channel(
        master_secret, index, channel_nonce, "server", config.suite_name
    )
    plane = end.open()
    try:
        host = PartitionHost(
            config,
            index,
            master_secret,
            platform_secret=platform_secret,
            wal_dir=wal_dir,
            wal_sync_ms=wal_sync_ms,
            checkpoint=checkpoint,
        )
    except ReproError as exc:
        channel.open(plane.recv_bytes())  # the handshake PING
        plane.send_bytes(channel.seal(_encode_error(exc)))
        plane.close()
        return
    compute_s = cpu_s = 0.0  # OP_REQ wall clock (incl. time off the core) / CPU
    while True:
        try:
            frame = channel.open(plane.recv_bytes())
        except (EOFError, OSError, ProtocolError):
            # A frame that fails authentication means the parent-side
            # channel is gone or desynced; the stream is unusable.
            break
        opcode, payload = frame[0], frame[1:]
        store = host.store
        try:
            if opcode == OP_REQ:
                started, cpu_started = time.perf_counter(), time.process_time()
                reply = bytes([REPLY_OK]) + encode_response(
                    execute_request(store, decode_request(payload))
                )
                compute_s += time.perf_counter() - started
                cpu_s += time.process_time() - cpu_started
            elif opcode == OP_TIMING:
                reply = bytes([REPLY_OK]) + json.dumps(
                    {"compute_s": compute_s, "cpu_s": cpu_s, **plane.wait_counts()}
                ).encode("ascii")
            elif opcode == OP_STATS:
                reply = bytes([REPLY_OK]) + json.dumps(
                    store.stats.snapshot_dict()
                ).encode("ascii")
            elif opcode == OP_ITER:
                reply = bytes([REPLY_OK]) + encode_multi_items(
                    list(store.iter_items())
                )
            elif opcode == OP_AUDIT:
                reply = bytes([REPLY_OK]) + _U64.pack(store.audit())
            elif opcode == OP_LEN:
                reply = bytes([REPLY_OK]) + _U64.pack(len(store))
            elif opcode == OP_ELAPSED:
                reply = bytes([REPLY_OK]) + _F64.pack(store.machine.elapsed_us())
            elif opcode == OP_PING:
                reply = bytes([REPLY_OK]) + _U64.pack(host.reached)
            elif opcode == OP_TAMPER:
                _tamper(store, bytes(payload))
                reply = bytes([REPLY_OK])
            elif opcode == OP_SNAPSHOT:
                reply = bytes([REPLY_OK]) + host.snapshot(
                    _U64.unpack_from(payload, 0)[0]
                )
            elif opcode == OP_SHUTDOWN:
                plane.send_bytes(channel.seal(bytes([REPLY_OK])))
                break
            else:
                # shieldlint: ignore[trust-boundary] -- one protocol opcode byte from the authenticated frame header, not client key/value plaintext
                raise ProtocolError(f"unknown worker opcode {opcode:#x}")
        except ReproError as exc:
            reply = _encode_error(exc)
        except Exception as exc:  # keep the worker alive; report faithfully
            reply = _encode_error(StoreError(f"{type(exc).__name__}: {exc}"))
        try:
            plane.send_bytes(channel.seal(reply))
        except (BrokenPipeError, OSError):
            break
    host.close()
    plane.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side view of one worker: its process, data plane and lock.

    The plane pairs requests with replies purely by position, so the
    send/recv round-trip must be atomic per worker: ``lock`` serializes
    concurrent parent threads (e.g. the TCP server's executor threads)
    that would otherwise interleave frames and read each other's replies.

    ``ops_since_snapshot`` counts mutations issued to this worker since
    the pool last snapshotted it — the upper bound on what a crash of
    this worker can lose.  It is read, updated and reset under ``lock``.

    ``channel`` is the parent end of the plane's session channel; its
    sequence counters advance on every frame, so it is only touched
    under ``lock`` (which already serializes the round-trips) and is
    replaced together with ``plane`` when the worker is respawned.

    ``serialize_s``/``ipc_wait_s`` accumulate this worker's parent-side
    stage timings (sealing vs waiting on the plane); they are only
    touched under ``lock``.
    """

    __slots__ = (
        "index", "process", "plane", "channel", "lock",
        "ops_since_snapshot", "serialize_s", "ipc_wait_s",
    )

    def __init__(self, index, process, plane, channel):
        self.index = index
        self.process = process
        self.plane = plane
        self.channel = channel
        self.lock = threading.Lock()
        self.ops_since_snapshot = 0
        self.serialize_s = 0.0
        self.ipc_wait_s = 0.0

    @property
    def conn(self):
        """The plane's parent-side ``Connection`` (the data pipe for
        the pipe plane, the doorbell for the shm plane).  Settable so
        tests can interpose spies on the pipe plane."""
        return self.plane.conn

    @conn.setter
    def conn(self, value):
        self.plane.conn = value


class _PartitionProxy(StoreVerbs):
    """One worker-hosted partition's store API (the single-key verbs;
    batches scatter through :meth:`ProcessPartitionPool.fan_out`)."""

    def __init__(self, pool: "ProcessPartitionPool", index: int):
        self._pool = pool
        self._index = index

    def _call(self, op: str, key: bytes, value: bytes = b"") -> bytes:
        response = self._pool.execute(
            self._index, Request(op, bytes(key), bytes(value))
        )
        if response.status == STATUS_MISS:
            raise KeyNotFoundError(key)
        if response.status != STATUS_OK:
            raise StoreError(f"partition {self._index}: {op} failed")
        return response.value

    def contains(self, key: bytes) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFoundError:
            return False


# Batch store-API method -> (wire op, encoder of one partition's slice).
_BATCH_VERBS = {
    "multi_get": ("mget", encode_multi_keys),
    "multi_set": ("mset", encode_multi_items),
    "multi_delete": ("mdelete", encode_multi_keys),
}


class ProcessPartitionPool:
    """One worker process per partition, with batched frame IPC.

    Workers are spawned eagerly at construction (matching §5.3: the
    enclave thread pool is fixed at enclave creation) and verified with
    a PING handshake so misconfiguration fails fast, not on first use.

    ``request_timeout`` bounds how long the parent waits for any single
    reply; ``None`` waits forever (liveness is still polled, so a dead
    worker raises promptly either way).

    ``checkpoint`` (``(counter, sections)``) is what the partitions are
    born from — each worker gets its section as a spawn argument — and
    the first recovery checkpoint; ``reached_counter`` is the lowest
    counter any worker's start-up recovery reported.  A worker that
    dies mid-service is respawned on the most recent cached snapshot
    section (see :meth:`snapshot_all`); the pool stays usable and
    reports the incident through :attr:`state`,
    :attr:`recoveries` and :attr:`ops_lost`.
    """

    def __init__(
        self,
        config: StoreConfig,
        num_workers: int,
        master_secret: bytes,
        request_timeout: Optional[float] = None,
        platform_secret: Optional[bytes] = None,
        data_plane: Optional[str] = None,
        wal_dir: Optional[str] = None,
        wal_sync_ms: float = 2.0,
        checkpoint: Optional[Tuple[int, Sequence[bytes]]] = None,
    ):
        if num_workers <= 0:
            raise StoreError("process pool needs at least one worker")
        if not process_mode_supported():
            raise StoreError("platform cannot run the multiprocess engine")
        if data_plane is None:
            data_plane = default_data_plane()
        if data_plane not in DATA_PLANES:
            raise StoreError(
                f"unknown data plane {data_plane!r}; known: {DATA_PLANES}"
            )
        if data_plane == DATA_PLANE_SHM and not shm_supported():
            raise StoreError(
                "data_plane='shm' needs multiprocessing.shared_memory"
            )
        self.num_workers = num_workers
        self.request_timeout = request_timeout
        self.data_plane = data_plane
        # The shm plane's wait policy, decided once for every ring of
        # every incarnation: spin only with a core no pool process needs.
        self.usable_cpus = usable_cpus()
        self.ring_spin = spin_budget(self.usable_cpus, num_workers + 1)
        self._broken: Optional[str] = None
        self._closed = False
        self._config = config
        self._master_secret = master_secret
        self._wal_dir = wal_dir
        self._wal_sync_ms = wal_sync_ms
        self._platform_secret = platform_secret  # None: the hosts derive it
        # Recovery checkpoint: the sections of the latest snapshot (at
        # first, the ones the pool is being built from).
        self._snapshot_sections: Dict[int, bytes] = {}
        self._snapshot_counter: Optional[int] = None
        if checkpoint is not None:
            self._snapshot_counter, sections = checkpoint
            self._snapshot_sections = dict(enumerate(sections))
        self._degraded: set = set()   # respawned empty (no snapshot)
        self._recovered: set = set()  # respawned + restored
        self.recoveries = 0           # workers brought back after dying
        self.ops_lost = 0             # upper bound on mutations lost
        # Guards the pool-wide health/checkpoint state above: those
        # fields are reached from recovery paths that hold *different*
        # worker locks concurrently.  Ordered strictly after any worker
        # lock (see shieldlint's lock-order pass).
        self._health_lock = threading.Lock()
        self._mp_ctx = multiprocessing.get_context("spawn")
        self._proxies = [_PartitionProxy(self, i) for i in range(num_workers)]
        self.workers: List[_WorkerHandle] = []
        try:
            for index in range(num_workers):
                plane, process, channel, _ = self._spawn(index)
                self.workers.append(
                    _WorkerHandle(index, process, plane, channel)
                )
            # Every worker must come up, recover and say how far it got;
            # one that could not build its partition says why instead.
            self.reached_counter = min(
                self._handshake(handle) for handle in self.workers
            )
        except BaseException:
            self._terminate_all()
            raise

    def _handshake(self, handle: "_WorkerHandle") -> int:
        """PING a (re)spawned worker nobody else can reach yet: the
        counter its recovery reached, or the error that kept it from
        building its partition (raised)."""
        self._send(handle, OP_PING, b"", recover=False)
        reply = self._recv(handle, recover=False, timeout=_RECOVERY_TIMEOUT)
        return _U64.unpack(reply)[0]

    def _spawn(self, index: int):
        """Start one worker on the cached section of its partition;
        returns (plane, process, channel, that section's counter or None).

        Each (re)spawn draws a fresh public channel nonce — so a
        replacement worker's session never shares keys with its dead
        predecessor (see :func:`_pipe_channel`) — and, on the shm
        plane, fresh rings: a reply queued by the dead incarnation can
        never physically reach the new session.
        """
        hit = faults.check("procpool.spawn")
        if hit is not None and hit.kind == "drop":
            raise OSError(f"injected spawn failure for partition {index}")
        nonce = _fresh_nonce()
        with self._health_lock:  # one atom: never new sections with an old counter
            section = self._snapshot_sections.get(index)
            counter = None if section is None else self._snapshot_counter
        if self.data_plane == DATA_PLANE_SHM:
            plane = _ShmPlane(
                self._mp_ctx, index, DEFAULT_NUM_SLOTS, DEFAULT_SLOT_SIZE,
                self.ring_spin,
            )
        else:
            plane = _PipePlane(self._mp_ctx, index)
        try:
            process = self._mp_ctx.Process(
                target=_worker_main,
                args=(
                    plane.worker_end(),
                    index,
                    self._config,
                    self._master_secret,
                    nonce,
                    self._platform_secret,
                    self._wal_dir,
                    self._wal_sync_ms,
                    None if section is None else (counter, section),
                ),
                name=f"shieldstore-partition-{index}",
                daemon=True,
            )
            process.start()
        except BaseException:
            plane.close()
            raise
        plane.finish_spawn(process)
        channel = _pipe_channel(
            self._master_secret, index, nonce, "client", self._config.suite_name
        )
        return plane, process, channel, counter

    # -- health -------------------------------------------------------------
    @property
    def state(self) -> str:
        """``ok`` | ``recovered`` | ``degraded`` | ``broken`` | ``closed``.

        ``recovered``: every dead worker was restored from a snapshot
        (mutations since that snapshot are lost, nothing else).
        ``degraded``: at least one worker was respawned *empty* because
        no snapshot existed.  A later :meth:`snapshot_all` checkpoint
        returns the pool to ``ok``.
        """
        if self._closed:
            return "closed"
        if self._broken is not None:
            return "broken"
        if self._degraded:
            return "degraded"
        if self._recovered:
            return "recovered"
        return "ok"

    def _check_usable(self) -> None:
        if self._closed:
            raise WorkerError("process pool is closed")
        if self._broken is not None:
            raise WorkerError(
                f"process pool is unusable: {self._broken} "
                "(a partition is gone; rebuild the store)"
            )

    def _mark_broken(self, why: str) -> WorkerError:
        with self._health_lock:
            self._broken = why
        return WorkerError(why)

    def _worker_failed(
        self, handle: _WorkerHandle, why: str, recover: bool
    ) -> WorkerError:
        """Handle a dead/wedged worker; returns the error to raise.

        With ``recover`` (the normal data path — the caller holds
        ``handle.lock``) the worker is respawned on the cached
        snapshot section; the in-flight call still failed, so a
        :class:`WorkerError` describing the recovery is returned.  Only
        when recovery itself fails is the pool marked broken.
        """
        if not recover:
            return WorkerError(why)
        if self._closed or self._broken is not None:
            return WorkerError(why)
        try:
            return self._recover_worker(handle, why)
        except Exception as exc:
            return self._mark_broken(f"{why}; recovery failed: {exc}")

    def _recover_worker(self, handle: _WorkerHandle, why: str) -> WorkerError:
        """Respawn ``handle``'s process on its cached snapshot section.

        Caller holds ``handle.lock``, so mutating the handle in place is
        safe: every other thread queues on the same lock and sees the
        replacement worker.
        """
        try:
            handle.plane.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5)
        lost = handle.ops_since_snapshot
        # Born as at start-up: the cached section, then the log chain.
        handle.plane, handle.process, handle.channel, counter = self._spawn(handle.index)
        handle.ops_since_snapshot = 0
        # With a write-ahead log every acknowledged mutation is on disk
        # and replayed during recovery, so nothing counts as lost.
        walled = self._wal_dir is not None
        with self._health_lock:
            self.recoveries += 1
            if not walled:
                self.ops_lost += lost
        self._handshake(handle)
        source = (
            "no snapshot exists" if counter is None
            else f"restored from snapshot counter {counter}"
        )
        with self._health_lock:
            if walled or counter is not None:
                self._recovered.add(handle.index)
                self._degraded.discard(handle.index)
            else:
                self._degraded.add(handle.index)
        if walled:
            outcome = (
                f"replayed its write-ahead log, {lost} acknowledged "
                "mutation(s) recovered"
            )
        elif counter is not None:
            outcome = f"up to {lost} mutation(s) since that snapshot were lost"
        else:
            outcome = (
                f"partition {handle.index} restarted empty, losing "
                f"{lost} mutation(s) (pool degraded)"
            )
        return WorkerError(f"{why}; worker respawned ({source}) — {outcome}")

    # -- low-level I/O ------------------------------------------------------
    def _send(
        self,
        handle: _WorkerHandle,
        opcode: int,
        payload: bytes,
        recover: bool = True,
    ) -> None:
        try:
            started = time.perf_counter()
            sealed = handle.channel.seal(bytes([opcode]) + payload)
            handle.serialize_s += time.perf_counter() - started
            deadline = (
                None
                if self.request_timeout is None
                else time.monotonic() + self.request_timeout
            )
            handle.plane.send(
                sealed,
                on_crash=handle.process.kill,
                deadline=deadline,
                alive=handle.process.is_alive,
            )
        except (BrokenPipeError, OSError) as exc:
            raise self._worker_failed(
                handle,
                f"partition {handle.index}: worker data plane broke "
                f"on send ({exc})",
                recover,
            ) from exc

    def _recv(
        self,
        handle: _WorkerHandle,
        recover: bool = True,
        timeout: Optional[float] = -1.0,
    ) -> bytes:
        """Receive one reply, polling liveness instead of blocking.

        Each ``poll()`` is clamped to the remaining timeout budget and
        elapsed time is measured on a monotonic clock, so sub-interval
        ``request_timeout`` values are honored instead of being rounded
        up to the 0.1 s poll interval.  ``timeout`` of -1 means "use
        ``self.request_timeout``"; ``None`` waits forever.
        """
        if timeout == -1.0:
            timeout = self.request_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        wait_started = time.perf_counter()
        try:
            while True:
                interval = _POLL_INTERVAL
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise self._worker_failed(
                            handle,
                            f"partition {handle.index}: no reply within "
                            f"{timeout:.3g}s",
                            recover,
                        )
                    interval = min(interval, remaining)
                if handle.plane.poll(interval):
                    break
                if not handle.process.is_alive():
                    raise self._worker_failed(
                        handle,
                        f"partition {handle.index}: worker process died "
                        f"(exit code {handle.process.exitcode})",
                        recover,
                    )
        finally:
            handle.ipc_wait_s += time.perf_counter() - wait_started
        try:
            raw = handle.plane.recv(
                on_crash=handle.process.kill,
                deadline=deadline,
                alive=handle.process.is_alive,
            )
            frame = handle.channel.open(raw)
        except (EOFError, OSError) as exc:
            raise self._worker_failed(
                handle,
                f"partition {handle.index}: worker data plane broke "
                f"on receive ({exc})",
                recover,
            ) from exc
        except ProtocolError as exc:
            # Tampered or desynced data-plane record: the channel state
            # is unrecoverable, treat it like a dead worker.
            raise self._worker_failed(
                handle,
                f"partition {handle.index}: data-plane record failed "
                f"authentication ({exc})",
                recover,
            ) from exc
        if not frame:
            raise self._worker_failed(
                handle, f"partition {handle.index}: empty reply frame", recover
            )
        if frame[0] == REPLY_ERR:
            # shieldlint: ignore[trust-boundary] -- re-raises the worker's own error report parent-side; messages are redacted at their raise sites inside the trusted store
            raise _decode_error(frame, handle.index)
        if frame[0] != REPLY_OK:
            # shieldlint: ignore[trust-boundary] -- one reply opcode byte from the authenticated frame header, not client key/value plaintext
            raise self._worker_failed(
                handle,
                f"partition {handle.index}: bad reply opcode {frame[0]:#x}",
                recover,
            )
        return frame[1:]

    # -- request fan-out ----------------------------------------------------
    def request(
        self,
        index: int,
        opcode: int,
        payload: bytes = b"",
        mutations: int = 0,
    ) -> bytes:
        """Round-trip one frame to one worker (atomic per worker).

        ``mutations`` is added to the worker's ``ops_since_snapshot``
        while its lock is held, so the loss-bound accounting cannot race
        with a concurrent snapshot reset.
        """
        handle = self.workers[index]
        with handle.lock:
            self._check_usable()
            handle.ops_since_snapshot += mutations
            self._send(handle, opcode, payload)
            return self._recv(handle)

    def scatter(
        self,
        payloads: Dict[int, bytes],
        opcode: int = OP_REQ,
        mutations: Optional[Dict[int, int]] = None,
        reset_counters: bool = False,
        on_success: Optional[Callable[[Dict[int, bytes]], None]] = None,
    ) -> Dict[int, bytes]:
        """Submit to many workers at once, then gather every reply.

        All frames are written before any reply is read — that is the
        parallelism: each worker crunches its slice while the others do
        the same.  Replies are collected in ascending partition order so
        merge results are deterministic.

        Every target worker's lock is held for the whole scatter, in
        ascending index order (``request`` takes a single lock, so all
        acquisition orders agree and concurrent callers cannot
        deadlock).  This keeps each pipe's request/reply pairing intact
        under concurrent parent threads while still letting requests for
        disjoint worker sets proceed in parallel.

        Every successfully-sent frame's reply is drained even when one
        worker fails — leaving frames queued would desynchronize the
        next round-trip — and a worker that died mid-scatter is
        recovered in place, so the surviving replies stay paired.  The
        first :class:`WorkerError` (then the first other
        :class:`ReproError`) is raised after the drain.

        ``mutations`` (per-target ``ops_since_snapshot`` increments) and
        ``reset_counters`` (zero each target's counter after a fully
        successful round) run inside the locked region, so the loss
        bound stays consistent under concurrent snapshot/execute races.
        ``on_success`` also runs inside the locked region, after every
        reply succeeded and *before* the counters reset — checkpoint
        installation uses it so {sections, counter, per-worker
        counters} change as one atom: a worker failing right after the
        scatter can never pair the old checkpoint with already-zeroed
        counters (which would undercount ``ops_lost``).
        """
        targets = sorted(payloads)
        with ExitStack() as stack:
            for index in targets:
                stack.enter_context(self.workers[index].lock)
            self._check_usable()
            if mutations:
                for index in targets:
                    self.workers[index].ops_since_snapshot += mutations.get(
                        index, 0
                    )
            sent: List[int] = []
            worker_error: Optional[WorkerError] = None
            first_error: Optional[ReproError] = None
            for index in targets:
                try:
                    self._send(self.workers[index], opcode, payloads[index])
                    sent.append(index)
                except WorkerError as exc:
                    if worker_error is None:
                        worker_error = exc
            results: Dict[int, bytes] = {}
            for index in sent:
                try:
                    results[index] = self._recv(self.workers[index])
                except WorkerError as exc:
                    if worker_error is None:
                        worker_error = exc
                except ReproError as exc:
                    if first_error is None:
                        first_error = exc
            if worker_error is not None:
                raise worker_error
            if first_error is not None:
                raise first_error
            if on_success is not None:
                on_success(results)
            if reset_counters:
                for index in targets:
                    self.workers[index].ops_since_snapshot = 0
            return results

    def broadcast(self, opcode: int, payload: bytes = b"") -> List[bytes]:
        """Scatter the same frame to every worker; replies in index order."""
        replies = self.scatter(
            {w.index: payload for w in self.workers}, opcode
        )
        return [replies[w.index] for w in self.workers]

    # -- execute_request conveniences ---------------------------------------
    def execute(self, index: int, request: Request) -> Response:
        """Run one wire-protocol request on one partition worker."""
        return decode_response(
            self.request(
                index,
                OP_REQ,
                encode_request(request),
                mutations=_mutation_count(request),
            )
        )

    # -- the store-facing engine surface --------------------------------------
    def partition(self, index: int) -> _PartitionProxy:
        """The store API of one partition, served by its worker."""
        return self._proxies[index]

    def store_of(self, index: int):
        raise StoreError(
            "partition stores live in worker processes; "
            "use partition_index_of() for routing"
        )

    def stores(self) -> list:
        """No partition store is reachable in-process."""
        return []

    def fan_out(self, method: str, slices) -> list:
        """Run one batch verb on every ``(index, slice)`` at once.

        Each worker gets its slice as one wire request and crunches it
        while the others do the same (:meth:`scatter`); results come
        back in slice order, shaped like the store-level method's.
        """
        op, encode = _BATCH_VERBS[method]
        mutating = op in MUTATING_OPS
        replies = self.scatter(
            {
                index: encode_request(Request(op, b"", encode(items)))
                for index, items in slices
            },
            mutations={
                index: len(items) if mutating else 0 for index, items in slices
            },
        )
        return [
            batch_result(op, items, decode_response(replies[index]).value)
            for index, items in slices
        ]

    # -- snapshots -----------------------------------------------------------
    def _install_checkpoint(
        self, sections: Dict[int, bytes], counter: int
    ) -> None:
        """Publish a new recovery checkpoint (runs via scatter's
        ``on_success``, i.e. with every worker lock held, so no recovery
        can read a half-installed {sections, counter} pair)."""
        with self._health_lock:
            self._snapshot_sections = sections
            self._snapshot_counter = counter
            self._degraded.clear()
            self._recovered.clear()

    def snapshot_all(self, counter: int) -> Dict[int, bytes]:
        """Have every worker seal + serialize its store (paper §4.4).

        Returns the per-partition sections (index -> bytes) and caches
        them as the crash-recovery checkpoint; a previously degraded or
        recovered pool returns to ``ok`` because a fresh checkpoint now
        reflects whatever state the partitions actually hold.

        The checkpoint is installed from inside the scatter's locked
        region (just before the mutation counters reset), so recovery
        of a worker that dies right after the snapshot reads the *new*
        sections with the *new* (already-zeroed) counters — never the
        old checkpoint against zeroed counters, which would undercount
        the documented mutation-loss bound.
        """
        return self.scatter(
            {w.index: _U64.pack(counter) for w in self.workers},
            OP_SNAPSHOT,
            reset_counters=True,
            on_success=lambda sections: self._install_checkpoint(
                dict(sections), counter
            ),
        )

    # -- aggregates ---------------------------------------------------------
    def gather_stats(self) -> List[StoreStats]:
        """Per-worker operation counters, reconstituted parent-side."""
        return [
            StoreStats.from_dict(json.loads(raw.decode("ascii")))
            for raw in self.broadcast(OP_STATS)
        ]

    def _worker_timings(self) -> dict:
        """The workers' ``OP_TIMING`` replies, summed field by field."""
        totals: dict = {}
        for raw in self.broadcast(OP_TIMING):
            for name, value in json.loads(raw.decode("ascii")).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def transport_stats(self) -> TransportStats:
        """Merged data-plane counters across every worker's plane; on
        the shm plane also the worker ends' and the wait decision."""
        merged = TransportStats()
        for handle in self.workers:
            with handle.lock:
                merged = merged.merge(handle.plane.transport_stats())
        if self.data_plane == DATA_PLANE_SHM:
            worker = self._worker_timings()
            merged.worker_ring_spin_yields = worker["spin_yields"]
            merged.worker_ring_doorbell_waits = worker["doorbell_waits"]
            merged.usable_cpus = self.usable_cpus
            merged.ring_spin_budget = self.ring_spin
        return merged

    def stage_timings(self) -> Dict[str, float]:
        """Per-stage seconds: serialize / IPC wait / worker compute.

        ``serialize_s`` and ``ipc_wait_s`` are parent-side (sealing and
        blocked-on-plane time); ``worker_compute_s`` is fetched from
        the workers' own ``OP_REQ`` clocks, so the three stages
        attribute where a batch round-trip actually went.  That clock
        is wall time and includes whatever the worker spent off the
        core; ``worker_cpu_s`` is the CPU the same region got, so the
        two tell a slow worker from a descheduled one.
        """
        timings = {"serialize_s": 0.0, "ipc_wait_s": 0.0}
        for handle in self.workers:
            with handle.lock:
                timings["serialize_s"] += handle.serialize_s
                timings["ipc_wait_s"] += handle.ipc_wait_s
        worker = self._worker_timings()
        timings["worker_compute_s"] = worker["compute_s"]
        timings["worker_cpu_s"] = worker["cpu_s"]
        return timings

    def total_len(self) -> int:
        return sum(_U64.unpack(raw)[0] for raw in self.broadcast(OP_LEN))

    def audit_all(self) -> int:
        """Full-table audit on every worker; sum of entries checked."""
        return sum(_U64.unpack(raw)[0] for raw in self.broadcast(OP_AUDIT))

    def elapsed_us(self) -> float:
        """Simulated wall time: the slowest worker's private clock."""
        return max(_F64.unpack(raw)[0] for raw in self.broadcast(OP_ELAPSED))

    def iter_partition_items(self, index: int):
        """All (key, value) pairs of one partition, decrypted worker-side."""
        return decode_multi_items(self.request(index, OP_ITER))

    def tamper(self, index: int, key: bytes) -> None:
        """Flip a bit in a worker's untrusted memory (attack simulation)."""
        self.request(index, OP_TAMPER, bytes(key))

    # -- lifecycle ----------------------------------------------------------
    def _terminate_all(self) -> None:
        for handle in self.workers:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5)
            handle.plane.close()

    def close(self) -> None:
        """Shut every worker down (idempotent).

        Takes every worker lock (ascending index order, same as
        ``scatter``) before sending ``OP_SHUTDOWN``: a concurrent
        connection thread mid round-trip finishes its send/recv pairing
        first, so it can never read a shutdown acknowledgement as its
        own reply.
        """
        with ExitStack() as stack:
            for handle in self.workers:
                stack.enter_context(handle.lock)
            if self._closed:
                return
            self._closed = True
            if self._broken is None:
                for handle in self.workers:
                    try:
                        handle.plane.send_raw(
                            handle.channel.seal(bytes([OP_SHUTDOWN]))
                        )
                    except (BrokenPipeError, OSError):
                        pass
                for handle in self.workers:
                    handle.process.join(timeout=5)
        self._terminate_all()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
