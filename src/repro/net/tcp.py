"""Real TCP transport for the ShieldStore wire protocol.

This is the served system: a background event-loop thread serves
length-prefixed protocol records over a socket, with the full §3.2
session establishment — remote attestation of the server enclave, DH
key exchange, then authenticated encryption on every record.  ``repro
serve`` runs it, and all three served shieldbench workloads measure it
(host wall clock); the paper-figure experiments (simulated cycles)
use the cost-modeled :class:`~repro.net.server.NetworkedServer`.

Resilience (shieldfault)
------------------------
The §2.3 threat model hands the network to the host, so this transport
assumes frames get dropped, delayed and corrupted and keeps serving
anyway:

* :class:`TCPShieldClient` enforces connect and per-request deadlines,
  transparently re-attests and reconnects after a failure with capped
  exponential backoff plus seeded jitter, and stamps every mutating
  request with an idempotency token carried inside the sealed envelope;
* :class:`TCPShieldServer` deduplicates those tokens per client
  identity (bounded LRU, replies replayed from cache), so a retried
  write after a lost reply applies **exactly once**;
* every socket/frame crossing is a named :mod:`repro.sim.faults`
  injection point, so all of the above is reproducible on demand.

Event-loop front end
--------------------
The server is a single :mod:`selectors` event loop over non-blocking
sockets: per-connection input/output buffers, frame reassembly and
session crypto run on the loop thread, and so does every request:
whatever the engine — in-process or process workers — the loop runs
it to completion and seals its reply in the turn that opened it, with
no hand-off.  Replies leave in FIFO order under the channel's sequence
numbers, and clients may pipeline — many sealed requests on the wire
before the first reply lands.

Admission control is real load shedding, not a silent close:
connections beyond ``max_connections`` are answered with a **sealed
STATUS_BUSY** reply the resilient client treats as
retryable-with-backoff.  Shed connections are promoted in arrival order
as admitted ones leave.  The loop executes each request under
``store_lock``, the same lock the
:class:`~repro.core.checkpoint.SnapshotDaemon`'s cut takes, so during a
cut the loop thread waits with the requests.

Failure and admission counters (tampered sessions dropped, idempotent
replays, rejected connections, busy sheds...) are the server's own
:class:`~repro.core.stats.StoreStats` record.  The ``stats`` protocol
op (``repro stats --connect``) serves it merged with the store's
record — in ``processes`` mode that one already holds every worker's
ring traffic and stage seconds — as one flat JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional

from repro.core.stats import StoreStats
from repro.errors import (
    AttestationError,
    KeyNotFoundError,
    ProtocolError,
    ReproError,
    StoreError,
)
from repro.net.message import (
    MUTATING_OPS,
    STATUS_BUSY,
    STATUS_ERROR,
    STATUS_MISS,
    STATUS_OK,
    STATUS_REFUSED,
    TOKEN_SIZE,
    Request,
    Response,
    SecureChannel,
    StoreVerbs,
    decode_enveloped_request,
    decode_response,
    encode_envelope,
    encode_request,
    encode_response,
)
from repro.net.server import execute_request
from repro.reader import DH_PUBLIC, QUOTE_FRAME, SESSION_FRAME, U32, Reader, frame_length
from repro.sim import faults
from repro.sim.attestation import (
    AttestationService,
    DHKeyPair,
    Quote,
    derive_session_suite,
    handshake_accept,
    handshake_finish,
    handshake_offer,
)


_BUSY_REPLY = encode_response(Response(STATUS_BUSY))


class _TransientServerError(StoreError):
    """A STATUS_ERROR reply: the server is degraded, not gone.  Retried."""


class _ServerBusyError(StoreError):
    """A STATUS_BUSY reply: the server shed the request under load.

    Retryable with backoff on the *same* session (the server keeps shed
    connections open and promotes them as capacity frees up); counted
    separately from transport-fault retries.
    """


def _send_frame(
    sock: socket.socket,
    payload: bytes,
    point: Optional[str] = None,
    link=None,
) -> None:
    if point is not None:
        payload = faults.cross(point, payload, link=link)
        if payload is faults.DROPPED:
            return  # the frame vanishes on the wire
    sock.sendall(U32.pack(len(payload)) + payload)


def _recv_frame(
    sock: socket.socket,
    point: Optional[str] = None,
    link=None,
    buf: Optional[bytearray] = None,
    limit: int = SESSION_FRAME,
) -> Optional[bytes]:
    """Receive one length-prefixed frame of at most ``limit`` bytes.

    Returns ``None`` on a clean EOF *before any byte of the frame*; a
    peer dying mid-frame raises :class:`ProtocolError` — a truncated
    record is a failure, not a graceful close.  With ``buf`` (a
    session's receive buffer) each ``recv`` takes whatever has arrived
    and the surplus waits there for the next call; without one, nothing
    past the frame is read.
    """
    exact = buf is None
    if exact:
        buf = bytearray()
    if len(buf) < 4 and not _fill(sock, buf, 4, exact):
        return None
    end = 4 + frame_length(buf, limit, ProtocolError)
    if len(buf) < end:  # the whole frame usually came with its prefix
        _fill(sock, buf, end, exact)
    body = bytes(buf[4:end])
    del buf[:end]
    if point is not None:
        body = faults.cross(point, body, link=link)
        if body is faults.DROPPED:
            # The frame never arrived.  Receivers treat that as a
            # timeout (the sender will retry or give up), which is
            # what a genuinely lost frame looks like.
            raise socket.timeout(f"injected frame drop at {point}")
    return body


def _fill(sock: socket.socket, buf: bytearray, need: int, exact: bool) -> bool:
    """Receive until ``buf`` holds ``need`` bytes; False on EOF before any.

    EOF with bytes already buffered means the peer died mid-record: a
    :class:`ProtocolError`, never mistaken for a graceful close.
    ``exact`` forbids reading past ``need``.  Either way one ``recv``
    asks for at most 64 KiB, so a claimed length costs what arrived.
    """
    while len(buf) < need:
        chunk = sock.recv(min(need - len(buf), 65536) if exact else 65536)
        if not chunk:
            if buf:
                raise ProtocolError(
                    f"truncated frame: peer closed with {len(buf)} of "
                    f"{need} bytes received"
                )
            return False
        buf += chunk
    return True


class _IdempotencyCache:
    """Bounded LRU of applied write tokens, per client identity.

    Maps ``(client_id, token) -> encoded reply`` so a retried write
    whose first reply was lost is answered from cache instead of being
    applied twice.  Both dimensions are bounded: the oldest client is
    evicted past ``max_clients``, the oldest token per client past
    ``max_tokens`` — retries arrive promptly, so a small window is
    enough, and memory stays O(clients x tokens).
    """

    def __init__(self, max_clients: int = 128, max_tokens: int = 1024):
        self.max_clients = max_clients
        self.max_tokens = max_tokens
        self._clients: "OrderedDict[bytes, OrderedDict[bytes, bytes]]" = (
            OrderedDict()
        )
        self._mutex = threading.Lock()

    def lookup(self, client_id: bytes, token: bytes) -> Optional[bytes]:
        with self._mutex:
            tokens = self._clients.get(client_id)
            if tokens is None:
                return None
            self._clients.move_to_end(client_id)
            reply = tokens.get(token)
            if reply is not None:
                tokens.move_to_end(token)
            return reply

    def store(self, client_id: bytes, token: bytes, reply: bytes) -> None:
        with self._mutex:
            tokens = self._clients.get(client_id)
            if tokens is None:
                tokens = self._clients[client_id] = OrderedDict()
            self._clients.move_to_end(client_id)
            tokens[token] = reply
            tokens.move_to_end(token)
            while len(tokens) > self.max_tokens:
                tokens.popitem(last=False)
            while len(self._clients) > self.max_clients:
                self._clients.popitem(last=False)

    def __len__(self) -> int:
        with self._mutex:
            return sum(len(tokens) for tokens in self._clients.values())


class _Conn:
    """Per-connection state of the event loop."""

    __slots__ = (
        "sock", "order", "inbuf", "outbuf", "channel", "client_id",
        "dh", "shed", "last_progress", "mask",
    )

    def __init__(self, sock: socket.socket, order: int):
        self.sock = sock
        self.order = order          # accept order, for shed promotion
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.channel: Optional[SecureChannel] = None
        self.client_id: Optional[bytes] = None
        self.dh: Optional[DHKeyPair] = None  # until the handshake completes
        self.shed = False           # over the cap: answer sealed BUSY
        self.last_progress = time.monotonic()
        self.mask = 0               # events registered with the selector

    @property
    def busy(self) -> bool:
        """Whether the connection has work in motion (not idle).

        An unfinished handshake counts: a peer that takes the quote
        and never answers it would otherwise hold its slot forever.
        """
        return bool(self.channel is None or self.inbuf or self.outbuf)


class TCPShieldServer:
    """Event-loop TCP server fronting one ShieldStore.

    One :mod:`selectors` loop owns every socket: non-blocking accepts,
    per-connection buffers, frame reassembly and channel crypto — and
    request execution, for every engine: each request runs to completion
    under ``store_lock`` in the turn that opened it, so a process-engine
    request holds the loop for its whole worker round trip (a respawn
    included), as an in-process one holds it for the store's work.

    ``max_connections`` is backpressure, not a silent refusal: excess
    connections still get the attested handshake, but every request is
    answered with a **sealed STATUS_BUSY** until an admitted connection
    leaves and the oldest shed one is promoted.  ``request_deadline_s``
    bounds how long one request — or an unfinished handshake — may stall
    on the wire (waiting for the store never counts); the wait *between*
    requests is unbounded.  :meth:`close` stops accepting, lets the
    loop finish its turn within ``drain_timeout_s``, then severs every
    connection and joins the loop.
    """

    def __init__(
        self,
        store,
        attestation: AttestationService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        request_deadline_s: Optional[float] = 30.0,
        drain_timeout_s: float = 10.0,
    ):
        self.store = store
        self.attestation = attestation
        self.max_connections = max_connections
        self.request_deadline_s = request_deadline_s
        self.drain_timeout_s = drain_timeout_s
        # Requests and snapshot checkpoints (the SnapshotDaemon's
        # `with server.store_lock:`) exclude each other: a checkpoint is
        # a consistent cut, never a half-applied batch.
        self.store_lock = threading.Lock()
        # Transport-level failure and admission counters, merged with
        # the store's own counters by stats_snapshot(); guarded by
        # _stats_mutex because other threads read them.
        self.net_stats = StoreStats()
        self._stats_mutex = threading.Lock()
        self._idempotency = _IdempotencyCache()
        self._sock = socket.create_server((host, port))
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ, "accept")
        # Self-pipe: close() nudges the loop out of select().
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wakeup")
        self._conns: Dict[int, _Conn] = {}
        self._accepted = 0
        self._stop = threading.Event()
        # Set by the CLI when a SnapshotDaemon checkpoints this server;
        # lets stats_snapshot() surface its failure counter.
        self.snapshot_daemon = None
        self._loop_thread = threading.Thread(
            target=self._loop, name="shieldstore-eventloop", daemon=True
        )

    def start(self) -> None:
        """Start the event loop (returns immediately)."""
        self._loop_thread.start()

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_mutex:
            setattr(self.net_stats, name, getattr(self.net_stats, name) + amount)

    def stats_snapshot(self) -> StoreStats:
        """Store counters merged with the transport's failure and
        admission counters.

        Includes the shieldfault fire count of this process's active
        plan, so a chaos run can check observed faults against the
        scripted schedule.
        """
        stats = getattr(self.store, "stats", None)
        if callable(stats):
            stats = stats()  # PartitionedShieldStore aggregates on demand
        if not isinstance(stats, StoreStats):
            stats = StoreStats()
        with self._stats_mutex:
            merged = stats.merge(self.net_stats)
        merged.faults_injected += faults.fires()
        if self.snapshot_daemon is not None:
            merged.snapshot_failures += self.snapshot_daemon.snapshot_failures
        return merged

    transport_snapshot = stats_snapshot  # the benchmark's server child reads this name

    @property
    def live_connections(self) -> int:
        return len(self._conns)

    def close(self) -> None:
        """Stop accepting, let the loop finish its turn, join it."""
        self._stop.set()
        self._wakeup()
        if self._loop_thread.is_alive():
            self._loop_thread.join(timeout=self.drain_timeout_s)
        # The loop closed everything on its way out; sweep whatever is
        # left if it never started or got wedged.
        for conn in list(self._conns.values()):
            self._close_quietly(conn.sock)
        self._conns.clear()
        self._close_quietly(self._sock)
        self._close_quietly(self._wake_recv)
        self._close_quietly(self._wake_send)
        try:
            self._selector.close()
        except (OSError, RuntimeError):
            pass

    @staticmethod
    def _close_quietly(sock) -> None:
        try:
            sock.close()
        except OSError:
            pass

    def _wakeup(self) -> None:
        try:
            self._wake_send.send(b"\x01")
        except (BlockingIOError, OSError):
            pass  # wake buffer full means a wakeup is already queued

    # -- the event loop -----------------------------------------------------
    def _loop(self) -> None:
        sweep_at = 0.0
        try:
            while not self._stop.is_set():
                events = self._selector.select(
                    max(0.0, sweep_at - time.monotonic())
                )
                # Deadlines are judged as of this poll: bytes arriving
                # while the turn is busy in the store are the loop's
                # backlog, not the peer's stall.
                polled = time.monotonic()
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wakeup":
                        self._drain_wakeups()
                    else:
                        conn = key.data
                        try:
                            if mask & selectors.EVENT_READ:
                                self._readable(conn)
                            if (
                                mask & selectors.EVENT_WRITE
                                and conn.sock.fileno() != -1
                            ):
                                self._writable(conn)
                        except Exception:
                            self._contain(conn)
                if polled >= sweep_at:
                    sweep_at = self._sweep_deadlines(polled)
        finally:
            for conn in list(self._conns.values()):
                self._drop(conn)
            self._close_quietly(self._sock)

    def _contain(self, conn: _Conn) -> None:
        """A handler's unforeseen exception costs the connection that
        raised it, not every other client: report it the way an uncaught
        thread exception is, drop the connection, keep serving."""
        threading.excepthook(
            threading.ExceptHookArgs((*sys.exc_info(), self._loop_thread))
        )
        self._drop(conn)

    def _sweep_deadlines(self, now: float) -> float:
        """Drop expired connections; returns when to sweep next.

        O(connections): run at the nearest deadline, not once per event.
        """
        sweep_at = now + 0.25  # the longest the loop sleeps
        for conn in list(self._conns.values()):
            limit = self.request_deadline_s
            if limit is None or not conn.busy:
                continue  # the wait between requests is unbounded
            if now - conn.last_progress > limit:
                # Mid-frame stall past the deadline: drop the
                # connection; the client reconnects and retries.
                self._bump("deadline_drops")
                self._drop(conn)
            else:
                sweep_at = min(sweep_at, conn.last_progress + limit)
        return sweep_at

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    # -- accept + admission --------------------------------------------------
    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._sock.accept()
            except (BlockingIOError, OSError):
                return
            if self._stop.is_set():
                self._close_quietly(sock)
                return
            try:
                hit = faults.check("tcp.server.accept")
            except OSError:
                self._close_quietly(sock)
                continue
            if hit is not None and hit.kind in ("drop", "crash"):
                self._close_quietly(sock)
                continue
            sock.setblocking(False)
            self._accepted += 1
            conn = _Conn(sock, self._accepted)
            if self._admitted_count() >= self.max_connections:
                # Over the cap: keep the connection, shed its requests
                # with sealed BUSY replies until a slot frees up.
                conn.shed = True
                self._bump("rejected_connections")
            self._conns[id(conn)] = conn
            try:
                self._enqueue_frame(conn, self._handshake_frame(conn))
            except (OSError, StoreError):
                self._drop(conn)

    def _admitted_count(self) -> int:
        return sum(1 for c in self._conns.values() if not c.shed)

    def _promote_shed(self) -> None:
        """Admit the oldest shed connection once a slot frees up."""
        free = self.max_connections - self._admitted_count()
        if free <= 0:
            return
        shed = sorted(
            (c for c in self._conns.values() if c.shed),
            key=lambda c: c.order,
        )
        for conn in shed[:free]:
            conn.shed = False

    def _handshake_frame(self, conn: _Conn) -> bytes:
        """Server side of the §3.2 attested handshake: the quote frame.

        Sent eagerly on accept; the client answers with its DH public
        key, whose hash becomes the client identity keying the
        idempotency cache (stable across re-attested reconnects).
        """
        enclave = self.store.enclave
        conn.dh, quote = handshake_offer(
            self.attestation, enclave.context(), enclave
        )
        return (
            quote.measurement + quote.signature + quote.report_data
            + conn.dh.public_bytes
        )

    def _finish_handshake(self, conn: _Conn, client_pub_raw: bytes) -> None:
        if conn.dh is None:
            raise ProtocolError("handshake reply before quote was sent")
        if len(client_pub_raw) != DH_PUBLIC:
            raise ProtocolError("handshake reply is not a DH public value")
        suite = derive_session_suite(handshake_finish(conn.dh, client_pub_raw))
        conn.dh = None
        conn.client_id = hashlib.sha256(client_pub_raw).digest()
        conn.channel = SecureChannel(suite, "server")

    # -- socket readiness ----------------------------------------------------
    def _register_events(self, conn: _Conn) -> None:
        """Keep write interest in step with the output buffer."""
        mask = selectors.EVENT_READ
        if conn.outbuf:
            mask |= selectors.EVENT_WRITE
        if mask == conn.mask:
            return  # the common reply flushes at once: nothing changed
        try:
            if conn.mask:
                self._selector.modify(conn.sock, mask, conn)
            else:
                self._selector.register(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            return
        conn.mask = mask

    def _readable(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            # Reset or EOF; mid-record or not, nothing to salvage.
            self._drop(conn)
            return
        conn.inbuf += chunk
        conn.last_progress = time.monotonic()
        self._parse_frames(conn)

    def _writable(self, conn: _Conn) -> None:
        """Flush what the socket takes, then re-arm for the rest."""
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._drop(conn)
                return
            if sent:
                del conn.outbuf[:sent]
                conn.last_progress = time.monotonic()
        self._register_events(conn)

    def _parse_frames(self, conn: _Conn) -> None:
        inbuf = conn.inbuf
        while len(inbuf) >= 4:
            # Before the handshake the only legal frame is a DH value.
            limit = DH_PUBLIC if conn.channel is None else SESSION_FRAME
            try:
                end = 4 + frame_length(inbuf, limit, ProtocolError)
            except ProtocolError:
                self._bump("tamper_drops")
                self._drop(conn)
                return
            if len(inbuf) < end:
                return  # partial frame: wait for more bytes
            body = bytes(inbuf[4:end])
            del inbuf[:end]
            try:
                body = faults.cross("tcp.server.recv", body)
            except OSError:
                self._drop(conn)
                return
            if body is faults.DROPPED:
                # The frame never arrived: to the peer this is a
                # stalled request, so it costs the connection.
                self._bump("deadline_drops")
                self._drop(conn)
                return
            if not self._handle_frame(conn, body):
                return

    def _handle_frame(self, conn: _Conn, body: bytes) -> bool:
        """Answer one complete inbound frame; False if conn dropped.

        After the handshake a frame is one request, opened, decoded,
        executed, encoded, sealed and queued here in one pass.  A frame
        that fails to open or decode is tampering: counted, and the
        session dropped (a fresh handshake re-admits the client).
        Tokened (mutating) requests are deduplicated: a token already in
        the cache is answered with its cached reply and never
        re-executed, so a retry after a lost reply applies exactly once.
        A plain :class:`StoreError` from the store is a deterministic
        refusal, answered with a sealed ``STATUS_REFUSED`` that carries
        its (redacted) message; any other exception drops the
        connection.  Error and refusal replies are *not* cached — a
        retry of a transiently failed write must re-execute, not replay
        the failure.
        """
        channel = conn.channel
        if channel is None:
            try:
                self._finish_handshake(conn, body)
            except (ReproError, OSError, OverflowError, ValueError):
                # Not a usable DH public value (wrong length, or outside
                # (1, p-1): AttestationError).  Nothing is keyed yet, so
                # it costs this connection only.
                self._bump("tamper_drops")
                self._drop(conn)
                return False
            return True
        try:
            raw = channel.open(body)
        except ProtocolError:
            self._bump("tamper_drops")
            self._drop(conn)
            return False
        if conn.shed:
            # Over the cap: a sealed STATUS_BUSY instead of executing.
            self._bump("busy_sheds")
            self._enqueue_frame(conn, channel.seal(_BUSY_REPLY))
            return id(conn) in self._conns
        try:
            token, request = decode_enveloped_request(raw)
            out = None
            if request.op == "stats":
                out = self._stats_reply()
            elif token is not None:
                out = self._idempotency.lookup(conn.client_id, token)
                if out is not None:
                    self._bump("idempotent_replays")
            if out is None:
                try:
                    with self.store_lock:
                        response = execute_request(self.store, request)
                except StoreError as exc:
                    if type(exc) is not StoreError:
                        raise  # a dead worker or a bad snapshot is no answer
                    message = str(exc).encode("utf-8", "replace")
                    response = Response(STATUS_REFUSED, message)
                out = encode_response(response)
                if response.status == STATUS_ERROR:
                    self._bump("degraded_replies")
                elif token is not None and response.status != STATUS_REFUSED:
                    self._idempotency.store(conn.client_id, token, out)
        except Exception as exc:
            if isinstance(exc, ProtocolError):
                self._bump("tamper_drops")  # authenticated, yet malformed
            self._drop(conn)
            return False
        self._enqueue_frame(conn, channel.seal(out))
        return id(conn) in self._conns

    def _enqueue_frame(self, conn: _Conn, payload: bytes) -> None:
        """Queue one length-prefixed frame (the tcp.server.send point)."""
        try:
            payload = faults.cross("tcp.server.send", payload)
        except OSError:
            self._drop(conn)
            return
        if payload is faults.DROPPED:
            return  # the frame vanishes on the wire
        conn.outbuf += U32.pack(len(payload)) + payload
        # Opportunistic flush: most replies fit the socket buffer, so
        # skipping the selector round trip saves a syscall per request.
        self._writable(conn)

    def _drop(self, conn: _Conn) -> None:
        self._conns.pop(id(conn), None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._close_quietly(conn.sock)
        self._promote_shed()

    def _stats_reply(self) -> bytes:
        """The ``stats`` op: the merged record as one JSON reply."""
        counters = self.stats_snapshot().snapshot_dict()
        payload = json.dumps(counters, sort_keys=True).encode("ascii")
        return encode_response(Response(STATUS_OK, payload))


class TCPShieldClient(StoreVerbs):
    """Client that attests the server before trusting the session.

    Resilient by default: connect and per-request deadlines, automatic
    re-attest + reconnect with capped exponential backoff and seeded
    jitter, and idempotency tokens on every mutating request so retries
    after a lost reply are deduplicated server-side.  A request is
    retried on transport faults (timeout, reset, truncated or
    unauthenticated frames) and on transient server errors; attestation
    failures are never retried — a server that fails the measurement
    check, or whose quote does not cover the DH key it offers, is not a
    degraded peer, it is the adversary.

    ``stats`` (a :class:`~repro.core.stats.StoreStats`) counts retries,
    reconnects, timeouts and busy retries on the client side.
    """

    def __init__(
        self,
        address,
        attestation: AttestationService,
        expected_measurement: bytes,
        entropy: bytes,
        connect_timeout_s: float = 10.0,
        request_deadline_s: Optional[float] = 10.0,
        max_retries: int = 4,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        local_name: Optional[str] = None,
        peer_name: Optional[str] = None,
    ):
        # Named link endpoints let shieldfault ``partition`` rules cut
        # exactly this edge of the replication graph.  Every inter-node
        # link has a client end, so naming the client side is enough.
        self._link = (
            (local_name, peer_name)
            if local_name is not None and peer_name is not None
            else None
        )
        self.address = address
        self.attestation = attestation
        self.expected_measurement = expected_measurement
        self.entropy = entropy
        self.connect_timeout_s = connect_timeout_s
        self.request_deadline_s = request_deadline_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.stats = StoreStats()
        self._rng = random.Random(int.from_bytes(entropy[:8], "big"))
        self._sock: Optional[socket.socket] = None
        self._channel: Optional[SecureChannel] = None
        self._inbuf = bytearray()  # this session's received-not-yet-framed
        self._sessions = 0
        self._retry_loop("connect")

    # -- connection lifecycle -----------------------------------------------
    def _ensure_connected(self) -> None:
        if self._channel is not None:
            return
        hit = faults.check(
            "tcp.client.connect", on_crash=self._teardown, link=self._link
        )
        if hit is not None and hit.kind == "drop":
            raise socket.timeout("injected connect drop")
        self._sock = socket.create_connection(
            self.address, timeout=self.connect_timeout_s
        )
        try:
            self._channel = self._handshake()
        except BaseException:
            self._teardown()
            raise
        self._sock.settimeout(self.request_deadline_s)
        self._sessions += 1
        if self._sessions > 1:
            self.stats.net_reconnects += 1

    def _teardown(self) -> None:
        self._channel = None
        self._inbuf.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _handshake(self) -> SecureChannel:
        assert self._sock is not None
        # Before it is attested the peer may send one quote frame:
        # measurement | signature | report data | server DH public key.
        frame = self._recv(QUOTE_FRAME) or b""  # b"": closed before it
        reader = Reader(frame, ProtocolError, "handshake frame")
        measurement, signature = reader.take(32), reader.take(32)
        quote = Quote(measurement, reader.take(32), signature)
        server_public = reader.take(DH_PUBLIC)
        reader.end()
        client_public, shared = handshake_accept(
            self.attestation, quote, server_public,
            self.expected_measurement, self.entropy,
        )
        _send_frame(
            self._sock, client_public, point="tcp.client.send", link=self._link
        )
        return SecureChannel(derive_session_suite(shared), "client")

    def _recv(self, limit: int = SESSION_FRAME) -> Optional[bytes]:
        return _recv_frame(
            self._sock, "tcp.client.recv", self._link, self._inbuf, limit
        )

    # -- retry machinery -----------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        """Capped exponential backoff with seeded jitter."""
        base = min(
            self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        time.sleep(base * (0.5 + 0.5 * self._rng.random()))

    def _retry_loop(self, what: str, payload: Optional[bytes] = None):
        """Send one request payload (``None``: only connect) and return
        its reply's value, with reconnect-and-retry on transport faults."""
        attempt = 0
        while True:
            try:
                if self._channel is None:
                    self._ensure_connected()
                if payload is None:
                    return None
                return self._roundtrip(what, payload)
            except AttestationError:
                # Never retried: a failed measurement check means the
                # peer is not the enclave we were told to trust.
                self._teardown()
                raise
            except (StoreError, OSError, ProtocolError) as exc:
                # One retry arm; the exception picks the policy: tear
                # the session down or not (which also picks the
                # counter) and the tail of the give-up message.
                if isinstance(exc, _ServerBusyError):
                    # Load shed, not a fault: the session stays up (the
                    # server keeps shed connections and promotes them
                    # when capacity frees), so back off without tearing
                    # down, and count it apart from fault retries.
                    teardown, tail = False, "server kept shedding load"
                elif isinstance(exc, _TransientServerError):
                    teardown, tail = True, "server kept reporting an error"
                elif isinstance(exc, StoreError):
                    raise  # the server's answer (a miss or a refusal), not a fault
                else:  # transport fault: timeout, reset, bad frame
                    teardown, tail = True, str(exc)
                    if isinstance(exc, socket.timeout):
                        self.stats.net_timeouts += 1
                if teardown:
                    self._teardown()
                attempt += 1
                if attempt > self.max_retries:
                    raise StoreError(
                        f"{what} failed after {attempt} attempt(s): {tail}"
                    ) from exc
                if teardown:
                    self.stats.net_retries += 1
                else:
                    self.stats.busy_retries += 1
                self._backoff(attempt)

    def _call(self, op: str, key: bytes, value: bytes = b"") -> bytes:
        payload = encode_request(Request(op, bytes(key), bytes(value)))
        if op in MUTATING_OPS:  # reads go bare: they are idempotent already
            payload = encode_envelope(os.urandom(TOKEN_SIZE), payload)
        return self._retry_loop(op, payload)

    def _roundtrip(self, op: str, payload: bytes) -> bytes:
        sock, channel, link = self._sock, self._channel, self._link
        assert sock is not None and channel is not None
        _send_frame(sock, channel.seal(payload), "tcp.client.send", link)
        reply = _recv_frame(sock, "tcp.client.recv", link, self._inbuf)
        if reply is None:
            raise ProtocolError("server closed the connection")
        response = decode_response(channel.open(reply))
        status = response.status
        if status == STATUS_OK:
            return response.value
        if status == STATUS_MISS:
            raise KeyNotFoundError(f"no such key (op {op})")
        if status == STATUS_BUSY:
            raise _ServerBusyError(f"server shed {op} under load")
        if status == STATUS_REFUSED:
            # The store's deterministic answer: the same op would be
            # refused again, so it is raised after this one attempt.
            message = response.value.decode("utf-8", "replace")
            # shieldlint: ignore[trust-boundary] -- the server's own StoreError text, redacted at its raise site inside the trusted store, not key/value plaintext
            raise StoreError(f"server refused {op}: {message}")
        # Transient server-side degradation (e.g. a partition worker
        # mid-recovery).  Retried with backoff; error replies are not
        # cached server-side, so the retry re-executes.
        raise _TransientServerError(f"server error for {op}")

    # -- operations (get ... multi_delete come from StoreVerbs) ---------------
    def server_stats(self) -> dict:
        """The server's merged operation + resilience counters."""
        return json.loads(self._call("stats", b"").decode("ascii"))

    def close(self) -> None:
        self._teardown()
