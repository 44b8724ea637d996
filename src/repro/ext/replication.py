"""Replicated ShieldStore group: Lamport/LWW replication + anti-entropy.

One served node keeps a single copy of every key — losing the node
loses its keyspace.  This module makes "survives node loss" true: N
:class:`TCPShieldServer` nodes run as a **replication group** in which
every node holds a full copy and converges with its peers.

Design
------
* **Versioned entries.**  Every stored value is a sealed *versioned
  record* ``flags(1) | clock(8) | origin(8) | payload`` — the Lamport
  clock and the writer's origin id live inside the encrypted, MACed
  entry, so the version is protected by exactly the machinery that
  protects the value (§4.2/§4.3: the host can neither read nor forge
  it).  Deletes write a tombstone record instead of removing the entry,
  so a delete can win or lose against a concurrent write like any other
  mutation.
* **Last-write-wins.**  Conflicts resolve by the total order
  ``(clock, origin)``; an incoming record is applied iff it is strictly
  newer than the local one, which makes replication idempotent and
  commutative — the properties the retry machinery and anti-entropy
  lean on.
* **Write-through fan-out with hinted handoff.**  Local mutators bump
  the node clock, apply locally, and enqueue the record for immediate
  fan-out over attested peer links (``OP_REPLICATE`` frames inside the
  existing :class:`~repro.net.message.SecureChannel` sessions).  A dead
  peer's records are queued as *hints* and delivered when the peer
  answers again.
* **Merkle anti-entropy.**  The per-bucket-set MAC hashes (§4.3) are a
  ready-made Merkle level, but the *raw* set hashes are not comparable
  across replicas: each store allocates its own entry IVs, so equal
  plaintext yields different ciphertexts and different entry MACs.
  Replicas therefore exchange **logical set digests** — a keyed hash
  (its own registered key domain) over the sorted, MAC-*verified*
  ``(key, record)`` contents of each bucket set.  Group members share
  the group master secret, so the keyed bucket geometry (which keys
  land in which set) agrees; two replicas compare ``O(num_sets)``
  digests, descend only into divergent sets, and LWW-merge their
  contents (a push-pull exchange: one round converges one set on both
  sides).
* **One data path, two consistency levels.**  :class:`VersionedVerbs`
  writes the store verbs once, as read-modify-write over two hooks:
  ``_read`` (the key's winning record) and ``_commit`` (make a freshly
  minted record durable).  :class:`ReplicatedStore` implements them as
  a local read and a local write-then-enqueue under its mutex;
  :class:`ReplicaClient` as quorum collect → LWW → read-repair and
  replicate-to-all → count acks over one attested :class:`PeerLink`
  per replica, at ``consistency={"one", "quorum"}``: one ack or a
  majority per write, the first reachable reply or a majority per
  read.  W + R > N, so a QUORUM read always observes an acked QUORUM
  write across any single node failure.  :func:`newer` is the only LWW
  comparison and :func:`need` the only quorum arithmetic; per-replica
  calls reuse the TCP client's retry/deadline/backoff machinery
  unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import os
import queue
import struct
import threading
from collections import deque
from typing import Callable, ContextManager, Dict, Iterator, List
from typing import Optional, Sequence, Tuple

from repro.core.stats import StoreStats
from repro.crypto.keys import derive_key
from repro.errors import (
    AttestationError,
    KeyNotFoundError,
    ProtocolError,
    StoreError,
)

FLAG_TOMBSTONE = 0x01

# flags(1) | clock(8) | origin(8), little-endian, then the payload.
_RECORD = struct.Struct("<BQQ")
RECORD_OVERHEAD = _RECORD.size

CONSISTENCY_ONE = "one"
CONSISTENCY_QUORUM = "quorum"
CONSISTENCY_LEVELS = (CONSISTENCY_ONE, CONSISTENCY_QUORUM)
Level = Optional[str]  # a per-call consistency level; None = the default

# OP_SYNC sub-operations, carried in the request's key field.
SYNC_KIND_DIGESTS = b"digests"
SYNC_KIND_SET = b"set"

DIGEST_SIZE = 16


class PeerUnavailableError(StoreError):
    """A replication peer could not be reached (marked dead, hinted)."""


# -- versioned records --------------------------------------------------------
def pack_record(flags: int, clock: int, origin: int, payload: bytes) -> bytes:
    """Serialize one versioned record (stored as the entry value)."""
    return _RECORD.pack(flags, clock, origin) + payload


def unpack_record(raw: bytes) -> Tuple[int, int, int, bytes]:
    """Parse ``(flags, clock, origin, payload)``; raises on short input."""
    if len(raw) < RECORD_OVERHEAD:
        raise ProtocolError("versioned record too short")
    flags, clock, origin = _RECORD.unpack_from(raw, 0)
    return flags, clock, origin, raw[RECORD_OVERHEAD:]


def record_version(raw: bytes) -> Tuple[int, int]:
    """The record's LWW sort key ``(clock, origin)``."""
    flags, clock, origin, _payload = unpack_record(raw)
    return clock, origin


def is_tombstone(raw: bytes) -> bool:
    return bool(unpack_record(raw)[0] & FLAG_TOMBSTONE)


def live_payload(record: Optional[bytes]) -> Optional[bytes]:
    """What a reader sees: ``None`` for a never-seen or deleted key."""
    if record is None or is_tombstone(record):
        return None
    return record[RECORD_OVERHEAD:]


def newer(record: bytes, than: Optional[bytes]) -> bool:
    """The LWW rule, stated once: a record wins iff its ``(clock,
    origin)`` is strictly greater; any record beats no record."""
    return than is None or record_version(record) > record_version(than)


def need(level: str, width: int) -> int:
    """Replies (or acks) ``level`` demands of a ``width``-replica set."""
    if level not in CONSISTENCY_LEVELS:
        raise StoreError(f"unknown consistency level {level!r}")
    return 1 if level == CONSISTENCY_ONE else width // 2 + 1


def node_origin(name: str) -> int:
    """Stable 64-bit origin id for LWW tie-breaking (never builtin hash)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


class LamportClock:
    """Thread-safe per-node Lamport clock."""

    def __init__(self, start: int = 0):
        self._value = start
        self._mutex = threading.Lock()

    def tick(self) -> int:
        """Advance for a local event; returns the new clock."""
        with self._mutex:
            self._value += 1
            return self._value

    def witness(self, remote: int) -> int:
        """Merge a remote clock (receive rule); returns the new clock."""
        with self._mutex:
            if remote > self._value:
                self._value = remote
            return self._value

    def peek(self) -> int:
        with self._mutex:
            return self._value


class HintedHandoff:
    """Bounded per-peer queues of records owed to dead peers."""

    def __init__(self, max_hints_per_peer: int = 4096):
        self.max_hints_per_peer = max_hints_per_peer
        self._queues: Dict[str, deque] = {}
        self._mutex = threading.Lock()
        self.dropped = 0

    def push(self, peer_id: str, key: bytes, record: bytes) -> None:
        with self._mutex:
            q = self._queues.setdefault(peer_id, deque())
            if len(q) >= self.max_hints_per_peer:
                q.popleft()  # oldest hint lost; anti-entropy still repairs
                self.dropped += 1
            q.append((key, record))

    def pending(self, peer_id: str) -> int:
        with self._mutex:
            return len(self._queues.get(peer_id, ()))

    def pop(self, peer_id: str) -> Optional[Tuple[bytes, bytes]]:
        with self._mutex:
            q = self._queues.get(peer_id)
            if not q:
                return None
            return q.popleft()

    def unpop(self, peer_id: str, item: Tuple[bytes, bytes]) -> None:
        """Return a hint whose delivery failed to the queue head."""
        with self._mutex:
            self._queues.setdefault(peer_id, deque()).appendleft(item)


class PeerLink:
    """One attested, sealed client link to a replication peer.

    Wraps a lazily (re)built :class:`~repro.net.tcp.TCPShieldClient`
    carrying ``(local, peer)`` link names, so shieldfault partition
    rules can cut exactly this edge.  A transport failure marks the
    peer dead and tears the client down; the next call probes again.
    """

    def __init__(
        self,
        local_id: str,
        peer_id: str,
        address,
        attestation,
        expected_measurement: bytes,
        connect_timeout_s: float = 2.0,
        request_deadline_s: float = 5.0,
        max_retries: int = 1,
    ):
        self.local_id = local_id
        self.peer_id = peer_id
        self.address = address
        self.attestation = attestation
        self.expected_measurement = expected_measurement
        self.connect_timeout_s = connect_timeout_s
        self.request_deadline_s = request_deadline_s
        self.max_retries = max_retries
        self.alive = True  # optimistic until a call fails
        self._client = None
        self._mutex = threading.Lock()

    def set_address(self, address) -> None:
        """Point the link at a restarted peer (forces a reconnect)."""
        with self._mutex:
            self.address = address
            self._drop_client()

    def _drop_client(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def _ensure_client(self):
        if self._client is None:
            from repro.net.tcp import TCPShieldClient

            self._client = TCPShieldClient(
                self.address,
                self.attestation,
                self.expected_measurement,
                entropy=os.urandom(32),
                connect_timeout_s=self.connect_timeout_s,
                request_deadline_s=self.request_deadline_s,
                max_retries=self.max_retries,
                local_name=self.local_id,
                peer_name=self.peer_id,
            )
        return self._client

    def call(self, op: str, key: bytes, value: bytes = b"") -> bytes:
        """One sealed round trip; failures mark the peer dead."""
        with self._mutex:
            try:
                client = self._ensure_client()
                result = client._call(op, key, value)
            except KeyNotFoundError:
                self.alive = True
                raise
            except (AttestationError, StoreError, ProtocolError, OSError) as exc:
                self.alive = False
                self._drop_client()
                raise PeerUnavailableError(
                    f"peer {self.peer_id} unreachable: {type(exc).__name__}"
                ) from exc
            self.alive = True
            return result

    # -- replication verbs --------------------------------------------------
    def replicate(self, key: bytes, record: bytes) -> Tuple[bool, int]:
        """Push one versioned record; returns (applied, peer_clock)."""
        reply = self.call("replicate", key, record)
        try:
            applied_raw, clock_raw = reply.split(b":", 1)
            return applied_raw == b"1", int(clock_raw)
        except ValueError:
            raise ProtocolError("malformed replicate reply") from None

    def vget(self, key: bytes) -> bytes:
        """Versioned read; raises ``KeyNotFoundError`` for never-seen keys."""
        return self.call("vget", key)

    def sync_digests(self) -> bytes:
        """The peer's concatenated per-set logical digests."""
        return self.call("sync", SYNC_KIND_DIGESTS, b"")

    def sync_set(self, set_id: int, items) -> list:
        """Push-pull one divergent set; returns the peer's merged items."""
        from repro.net.message import decode_multi_items, encode_multi_items

        payload = struct.pack("<I", set_id) + encode_multi_items(items)
        return decode_multi_items(self.call("sync", SYNC_KIND_SET, payload))

    def close(self) -> None:
        with self._mutex:
            self._drop_client()


class VersionedVerbs:
    """The store verbs, written once over versioned records.

    Every verb is a read-modify-write over two hooks: :meth:`_read`
    returns the key's winning record (tombstones included; ``None`` for
    a never-seen key) and :meth:`_commit` makes a freshly minted record
    durable wherever the implementer keeps its copies.  ``consistency``
    rides through to the hooks untouched: a coordinator turns it into a
    reply/ack target, a node serving its own copy has no replica set to
    wait for and does not consult it.

    :meth:`_atomic` brackets each read-modify-write.  A node makes it
    its mutex, so served append/increment/compare_and_swap are atomic;
    a client-side coordinator has nothing to hold across replicas, so
    there the same verbs are read-*then*-write (a concurrent writer can
    slip in between, and LWW decides).
    """

    origin: int
    clock: LamportClock

    # -- the hooks -----------------------------------------------------------
    def _read(self, key: bytes, consistency: Level) -> Optional[bytes]:
        raise NotImplementedError

    def _commit(self, key: bytes, record: bytes, old: Optional[bytes],
                consistency: Level) -> None:
        """Persist ``record``; ``old`` is the record the verb read, or
        ``None`` when it found none or (a blind ``set``) did not look."""
        raise NotImplementedError

    def _atomic(self) -> ContextManager:
        return contextlib.nullcontext()

    # -- the one read-modify-write -------------------------------------------
    def _mint(self, flags: int, payload: bytes) -> bytes:
        return pack_record(flags, self.clock.tick(), self.origin, payload)

    def _update(self, key: bytes, consistency: Level,
                change: Callable[[Optional[bytes]], bytes],
                flags: int = 0) -> bytes:
        """Write ``change(current live value)``; returns what it wrote."""
        key = bytes(key)
        with self._atomic():
            old = self._read(key, consistency)
            payload = change(live_payload(old))
            self._commit(key, self._mint(flags, payload), old, consistency)
        return payload

    @staticmethod
    def _present(current: Optional[bytes]) -> bytes:
        if current is None:
            raise KeyNotFoundError("no such key (versioned store)")
        return current

    # -- single-key verbs ------------------------------------------------------
    def get(self, key: bytes, consistency: Level = None) -> bytes:
        return self._present(live_payload(self._read(bytes(key), consistency)))

    def contains(self, key: bytes, consistency: Level = None) -> bool:
        return live_payload(self._read(bytes(key), consistency)) is not None

    def set(self, key: bytes, value: bytes, consistency: Level = None) -> None:
        """Blind write: mints a version without reading the old one."""
        with self._atomic():
            record = self._mint(0, bytes(value))
            self._commit(bytes(key), record, None, consistency)

    def delete(self, key: bytes, consistency: Level = None) -> None:
        """Write a tombstone; delete-of-missing raises, so it reads first."""
        def bury(current: Optional[bytes]) -> bytes:
            self._present(current)
            return b""

        self._update(key, consistency, bury, FLAG_TOMBSTONE)

    def append(self, key: bytes, suffix: bytes,
               consistency: Level = None) -> bytes:
        suffix = bytes(suffix)
        return self._update(
            key, consistency, lambda current: (current or b"") + suffix
        )

    def increment(self, key: bytes, delta: int = 1,
                  consistency: Level = None) -> int:
        def add(current: Optional[bytes]) -> bytes:
            try:
                base = 0 if current is None else int(current.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise StoreError(
                    "increment target is not an ASCII integer"
                ) from None
            return str(base + delta).encode()

        return int(self._update(key, consistency, add))

    def compare_and_swap(self, key: bytes, expected: bytes, new_value: bytes,
                         consistency: Level = None) -> bool:
        key = bytes(key)
        with self._atomic():
            old = self._read(key, consistency)
            if self._present(live_payload(old)) != bytes(expected):
                return False
            record = self._mint(0, bytes(new_value))
            self._commit(key, record, old, consistency)
        return True

    # -- batched verbs ---------------------------------------------------------
    def multi_get(self, keys, consistency: Level = None) -> dict:
        return {
            bytes(key): live_payload(self._read(bytes(key), consistency))
            for key in keys
        }

    def multi_set(self, items, consistency: Level = None) -> None:
        if isinstance(items, dict):
            items = items.items()
        for key, value in items:
            self.set(key, value, consistency)

    def multi_delete(self, keys, consistency: Level = None) -> dict:
        out = {}
        for key in keys:
            try:
                self.delete(key, consistency)
                out[bytes(key)] = True
            except KeyNotFoundError:
                out[bytes(key)] = False
        return out


class ReplicatedStore(VersionedVerbs):
    """A ShieldStore that replicates its mutations to peer nodes.

    Wraps one :class:`~repro.core.store.ShieldStore` built with the
    *group* master secret (so bucket-set geometry agrees across the
    group) and stores every value as a versioned record.  The store
    API the request dispatcher expects is :class:`VersionedVerbs` over
    this node's own copy; on top come the replication verbs served over
    the wire: :meth:`apply_remote` (``OP_REPLICATE``) and
    :meth:`serve_sync` (``OP_SYNC``).

    Fan-out runs on a background replicator thread — never while the
    request executor holds the server's store gate — so two nodes
    mutating concurrently cannot deadlock waiting on each other's
    inbound ``OP_REPLICATE``.
    """

    def __init__(
        self,
        store,
        node_id: str,
        max_hints_per_peer: int = 4096,
    ):
        self.inner = store
        self.node_id = node_id
        self.origin = node_origin(node_id)
        self.clock = LamportClock()
        self.peers: Dict[str, PeerLink] = {}
        self.handoff = HintedHandoff(max_hints_per_peer)
        self.repl_stats = StoreStats()
        # One mutex guards the inner store, the clock and the digest
        # cache; network calls NEVER happen under it.
        self._mutex = threading.RLock()
        self._tombstones = 0
        # shieldstore/repl-digest: MAC-only key for the logical per-set
        # anti-entropy digests (registered in analysis.cryptomap).
        self._digest_key = derive_key(
            store.keyring.master, "shieldstore/repl-digest"
        )
        self._num_sets = store.config.num_mac_hashes
        self._digest_cache: Dict[int, bytes] = {}
        # Replicator thread state.
        self._queue: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- plumbing the dispatcher expects -------------------------------------
    @property
    def enclave(self):
        return self.inner.enclave

    @property
    def machine(self):
        return self.inner.machine

    @property
    def keyring(self):
        return self.inner.keyring

    @property
    def config(self):
        return self.inner.config

    def stats(self) -> StoreStats:
        """Inner store counters merged with the replication counters."""
        with self._mutex:
            merged = self.inner.stats.merge(self.repl_stats)
        merged.hints_dropped += self.handoff.dropped
        return merged

    def __len__(self) -> int:
        with self._mutex:
            return self.inner.count - self._tombstones

    # -- the VersionedVerbs hooks: this node's own copy ------------------------
    def _read(self, key: bytes, consistency: Level = None) -> Optional[bytes]:
        with self._mutex:
            try:
                return self.inner.get(key)
            except KeyNotFoundError:
                return None

    def _commit(self, key: bytes, record: bytes, old: Optional[bytes],
                consistency: Level = None) -> None:
        """Local write, then queue the record for fan-out."""
        if old is None:  # a blind set, or a verb that found nothing:
            old = self._read(key)  # the tombstone count needs the truth
        self._write_record(key, record, old)
        if self.peers:
            self._queue.put((key, record))

    @contextlib.contextmanager
    def _atomic(self) -> Iterator[None]:
        with self._mutex:
            yield
        if self._thread is None and self.peers:
            self._drain_queue()  # synchronous mode: fan out off the mutex

    def _write_record(self, key: bytes, record: bytes,
                      old: Optional[bytes]) -> None:
        """Store a versioned record, maintaining the tombstone count."""
        new_dead = is_tombstone(record)
        old_dead = old is not None and is_tombstone(old)
        self.inner.set(key, record)
        self._tombstones += int(new_dead) - int(old_dead)
        self._mark_dirty(key)

    def _mark_dirty(self, key: bytes) -> None:
        bucket = self.keyring.keyed_bucket_hash(key, self.config.num_buckets)
        self._digest_cache.pop(self.inner.mactree.set_of(bucket), None)

    def _bump(self, name: str, amount: int = 1) -> None:
        setattr(
            self.repl_stats, name, getattr(self.repl_stats, name) + amount
        )

    def get_versioned(self, key: bytes) -> bytes:
        """The raw versioned record — tombstones included (``vget``)."""
        record = self._read(bytes(key))
        if record is None:
            raise KeyNotFoundError("no such key (vget)")
        return record

    # -- replication receive path (OP_REPLICATE) ------------------------------
    def apply_remote(self, key: bytes, raw_record: bytes,
                     counter: str = "replicated_in") -> Tuple[bool, int]:
        """LWW-apply a record pushed by a peer, a client coordinator or
        (counted as ``sync_keys_repaired``) an anti-entropy exchange.

        Returns ``(applied, node_clock)``; strictly-older (or equal)
        records are no-ops, which makes retried replication idempotent.
        """
        key = bytes(key)
        version = record_version(raw_record)  # validates the record too
        with self._mutex:
            node_clock = self.clock.witness(version[0])
            old = self._read(key)
            applied = newer(raw_record, old)
            if applied:
                self._write_record(key, raw_record, old)
                self._bump(counter)
            elif old is not None and record_version(old) != version:
                self._bump("replication_conflicts")
        return applied, node_clock

    # -- anti-entropy (OP_SYNC) ------------------------------------------------
    def _set_digest_locked(self, set_id: int) -> bytes:
        """Keyed logical digest of one MAC set's verified contents."""
        cached = self._digest_cache.get(set_id)
        if cached is not None:
            return cached
        mac = hmac.new(self._digest_key, digestmod=hashlib.sha256)
        for key, record in sorted(self.inner.iter_set_items(set_id)):
            mac.update(struct.pack("<I", len(key)))
            mac.update(key)
            mac.update(hashlib.sha256(record).digest())
        digest = mac.digest()[:DIGEST_SIZE]
        self._digest_cache[set_id] = digest
        return digest

    def set_digest_blob(self) -> bytes:
        """All per-set digests, concatenated in set order."""
        with self._mutex:
            return b"".join(
                self._set_digest_locked(s) for s in range(self._num_sets)
            )

    def content_digest(self) -> bytes:
        """One digest over the whole verified logical state.

        Two replicas are byte-identical (same keys, same versioned
        records, MAC-verified) iff their content digests match.
        """
        return hashlib.sha256(self.set_digest_blob()).digest()

    def serve_sync(self, subop: bytes, value: bytes) -> bytes:
        """Server side of the anti-entropy exchange."""
        if subop == SYNC_KIND_DIGESTS:
            return self.set_digest_blob()
        if subop == SYNC_KIND_SET:
            if len(value) < 4:
                raise ProtocolError("sync set payload too short")
            from repro.net.message import decode_multi_items, encode_multi_items

            (set_id,) = struct.unpack_from("<I", value, 0)
            if set_id >= self._num_sets:
                raise ProtocolError(f"sync set id {set_id} out of range")
            for key, record in decode_multi_items(value[4:]):
                self.apply_remote(key, record, "sync_keys_repaired")
            with self._mutex:
                items = list(self.inner.iter_set_items(set_id))
            return encode_multi_items(items)
        raise ProtocolError("unknown sync sub-operation")

    def sync_with(self, link: PeerLink) -> int:
        """One push-pull anti-entropy round against one peer.

        Compares ``O(num_sets)`` digests, descends only into divergent
        sets, pushes our records and LWW-merges the peer's reply.
        Returns the number of divergent sets exchanged.
        """
        theirs = link.sync_digests()
        mine = self.set_digest_blob()
        if len(theirs) != len(mine):
            raise ProtocolError("peer digest vector length mismatch")
        diverged = [
            s
            for s in range(self._num_sets)
            if not hmac.compare_digest(
                mine[s * DIGEST_SIZE : (s + 1) * DIGEST_SIZE],
                theirs[s * DIGEST_SIZE : (s + 1) * DIGEST_SIZE],
            )
        ]
        self._bump("sync_rounds")
        self._bump("sync_sets_diverged", len(diverged))
        for set_id in diverged:
            with self._mutex:
                items = list(self.inner.iter_set_items(set_id))
            for key, record in link.sync_set(set_id, items):
                self.apply_remote(key, record, "sync_keys_repaired")
        return len(diverged)

    # -- peer membership -------------------------------------------------------
    def add_peer(
        self,
        peer_id: str,
        address,
        attestation,
        expected_measurement: bytes,
        **link_kwargs,
    ) -> PeerLink:
        if peer_id in self.peers:
            raise StoreError(f"duplicate peer {peer_id!r}")
        link = PeerLink(
            self.node_id, peer_id, address, attestation,
            expected_measurement, **link_kwargs,
        )
        self.peers[peer_id] = link
        return link

    # -- write-through fan-out -------------------------------------------------
    def _deliver(self, key: bytes, record: bytes) -> None:
        """Write-through one record to every peer; hint the dead ones."""
        for peer_id, link in self.peers.items():
            if not link.alive and self.handoff.pending(peer_id):
                # Already backed up: keep ordering, queue behind.
                self.handoff.push(peer_id, key, record)
                self._bump("hints_queued")
                continue
            try:
                link.replicate(key, record)
                self._bump("replicated_out")
            except PeerUnavailableError:
                self.handoff.push(peer_id, key, record)
                self._bump("hints_queued")

    def _deliver_next(self, timeout_s: float) -> bool:
        """Fan out the next queued record; False if none came in time."""
        try:
            key, record = self._queue.get(timeout=timeout_s)
        except queue.Empty:
            return False
        try:
            self._deliver(key, record)
        finally:
            self._queue.task_done()
        return True

    def _drain_queue(self) -> None:
        while self._deliver_next(0.0):
            pass

    def _retry_hints(self) -> None:
        """Deliver queued hints to peers that answer again."""
        for peer_id, link in self.peers.items():
            while self.handoff.pending(peer_id):
                item = self.handoff.pop(peer_id)
                if item is None:
                    break
                try:
                    link.replicate(*item)
                    self._bump("hints_delivered")
                except PeerUnavailableError:
                    self.handoff.unpop(peer_id, item)
                    break

    def flush(self) -> None:
        """Block until every queued fan-out has been attempted."""
        if self._thread is None:
            self._drain_queue()
        else:
            self._queue.join()

    def sync_now(self) -> int:
        """One hint-retry + anti-entropy round against every peer."""
        self._retry_hints()
        diverged = 0
        for link in self.peers.values():
            try:
                diverged += self.sync_with(link)
            except (PeerUnavailableError, ProtocolError):
                continue  # dead or misbehaving peer; next round retries
        return diverged

    # -- the replicator thread -------------------------------------------------
    def start(self, anti_entropy_interval_s: Optional[float] = None) -> None:
        """Start background fan-out (and periodic anti-entropy)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._replicator_loop,
            args=(anti_entropy_interval_s,),
            name=f"shieldstore-repl-{self.node_id}",
            daemon=True,
        )
        self._thread.start()

    def _replicator_loop(self, interval: Optional[float]) -> None:
        budget = interval if interval is not None else 0.0
        while not self._stop.is_set():
            self._deliver_next(0.05)
            if interval is not None:
                budget -= 0.05
                if budget <= 0.0:
                    budget = interval
                    try:
                        self.sync_now()
                    except Exception:
                        pass  # keep replicating; next round retries

    def close(self) -> None:
        """Stop the replicator thread and drop every peer link."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        for link in self.peers.values():
            link.close()


class ReplicaClient(VersionedVerbs):
    """Replica-aware client with ``consistency={"one", "quorum"}``.

    The hooks over one attested :class:`PeerLink` per replica; every
    node holds a full copy, so every key's replica set is every link.
    The client mints ``(clock, origin)`` versions of its own and records
    travel as ``OP_REPLICATE``/``OP_VGET`` frames through the TCP
    client's retry/deadline/backoff machinery.  A write goes to the
    **whole** set and the consistency level is the number of acks
    required (1, or a majority); a QUORUM read collects the set's
    versioned replies, returns the LWW winner and read-repairs stale
    replicas; a ONE read takes the first reachable reply.  A down
    replica surfaces as :class:`PeerUnavailableError` and is skipped.
    """

    def __init__(
        self,
        replicas: Sequence[Tuple[str, object]],
        attestation,
        expected_measurement: bytes,
        consistency: str = CONSISTENCY_QUORUM,
        name: str = "replica-client",
        connect_timeout_s: float = 2.0,
        request_deadline_s: float = 5.0,
        max_retries: int = 1,
    ):
        if not replicas:
            raise StoreError("a replica client needs at least one replica")
        need(consistency, 1)  # validates the default level
        self.consistency = consistency
        self.name = name
        self.origin = node_origin(name)
        self.clock = LamportClock()
        self.stats = StoreStats()
        self.links: List[PeerLink] = [
            PeerLink(
                name, node_id, address, attestation, expected_measurement,
                connect_timeout_s=connect_timeout_s,
                request_deadline_s=request_deadline_s,
                max_retries=max_retries,
            )
            for node_id, address in replicas
        ]

    def _plan(self, consistency: Level) -> Tuple[str, int]:
        """The level in force and the replies (or acks) it demands."""
        level = consistency if consistency is not None else self.consistency
        return level, need(level, len(self.links))

    def _missed(self, what: str, got: int, needed: int) -> StoreError:
        self.stats.quorum_failures += 1
        return StoreError(
            f"{what} reached {got} of {len(self.links)} replicas "
            f"(needed {needed})"
        )

    def _read(self, key: bytes, consistency: Level) -> Optional[bytes]:
        level, needed = self._plan(consistency)
        replies: List[Tuple[PeerLink, Optional[bytes]]] = []
        for link in self.links:
            try:
                replies.append((link, link.vget(key)))
            except KeyNotFoundError:
                replies.append((link, None))  # alive, never saw the key
            except PeerUnavailableError:
                continue
            if level == CONSISTENCY_ONE:
                break  # the first reachable replica answers
        if len(replies) < needed:
            raise self._missed("read", len(replies), needed)
        if level == CONSISTENCY_QUORUM:
            self.stats.quorum_reads += 1
        winner: Optional[bytes] = None
        for _link, record in replies:
            if record is not None and newer(record, winner):
                winner = record
        if winner is None:
            return None
        self.clock.witness(record_version(winner)[0])
        # Read-repair: push the winner to stale or empty replicas.
        for link, record in replies:
            if newer(winner, record):
                try:
                    link.replicate(key, winner)
                    self.stats.read_repairs += 1
                except PeerUnavailableError:
                    continue
        return winner

    def _commit(self, key: bytes, record: bytes, old: Optional[bytes],
                consistency: Level) -> None:
        """Push the record to every replica; count acks against the level."""
        _level, needed = self._plan(consistency)
        acks = 0
        for link in self.links:
            try:
                _applied, peer_clock = link.replicate(key, record)
            except PeerUnavailableError:
                continue
            self.clock.witness(peer_clock)
            acks += 1
        if acks < needed:
            raise self._missed("write", acks, needed)
        self.stats.quorum_writes += 1

    def close(self) -> None:
        for link in self.links:
            link.close()


class GroupNode:
    """One replication-group member: store, server, liveness flag."""

    def __init__(self, node_id: str, store: ReplicatedStore, server):
        self.node_id = node_id
        self.store = store
        self.server = server
        self.alive = True

    @property
    def address(self):
        return self.server.address


class ReplicationGroup:
    """N replicated ``TCPShieldServer`` nodes wired into a full mesh.

    The harness the chaos tests and :mod:`benchmarks.bench_replication`
    drive: builds N nodes sharing the **group** master secret (aligned
    keyed-bucket geometry, so logical set digests are comparable),
    starts their servers, wires every pairwise peer link, and hands out
    quorum clients.  :meth:`kill` is a SIGKILL stand-in (hard server
    stop, no drain); :meth:`restart` brings the node back *empty* on a
    fresh port — hinted handoff and anti-entropy must refill it.
    """

    def __init__(
        self,
        num_nodes: int = 3,
        config=None,
        master_secret: bytes = b"\x5cshield-replication-group-seed\x5c",
        attestation_secret: bytes = b"ias-secret-for-replication",
        anti_entropy_interval_s: Optional[float] = None,
        max_hints_per_peer: int = 4096,
        link_deadline_s: float = 2.0,
        server_kwargs: Optional[dict] = None,
    ):
        from repro.core import shield_opt
        from repro.sim.attestation import AttestationService

        if num_nodes < 2:
            raise StoreError("a replication group needs at least two nodes")
        self.config = config if config is not None else shield_opt(
            num_buckets=64, num_mac_hashes=16
        )
        self.master_secret = master_secret
        self.attestation = AttestationService(attestation_secret)
        self.anti_entropy_interval_s = anti_entropy_interval_s
        self.max_hints_per_peer = max_hints_per_peer
        self.link_deadline_s = link_deadline_s
        self.server_kwargs = dict(server_kwargs or {})
        self.nodes: Dict[str, GroupNode] = {}
        self.measurement: Optional[bytes] = None
        for i in range(num_nodes):
            self._build_node(f"node-{i}")
        self._wire_mesh()
        for node in self.nodes.values():
            node.store.start(anti_entropy_interval_s)

    # -- construction --------------------------------------------------------
    def _build_node(self, node_id: str) -> GroupNode:
        from repro.core.store import ShieldStore
        from repro.net.tcp import TCPShieldServer

        inner = ShieldStore(self.config, master_secret=self.master_secret)
        store = ReplicatedStore(
            inner, node_id, max_hints_per_peer=self.max_hints_per_peer
        )
        server = TCPShieldServer(store, self.attestation, **self.server_kwargs)
        server.start()
        node = GroupNode(node_id, store, server)
        self.nodes[node_id] = node
        if self.measurement is None:
            self.measurement = inner.enclave.measurement
        return node

    def _link_node(self, node: GroupNode, peer: GroupNode) -> None:
        node.store.add_peer(
            peer.node_id,
            peer.address,
            self.attestation,
            self.measurement,
            request_deadline_s=self.link_deadline_s,
            connect_timeout_s=self.link_deadline_s,
        )

    def _wire_mesh(self) -> None:
        for node in self.nodes.values():
            for peer in self.nodes.values():
                if peer is not node:
                    self._link_node(node, peer)

    # -- clients -------------------------------------------------------------
    def client(
        self,
        name: str = "replica-client",
        consistency: str = CONSISTENCY_QUORUM,
        **kwargs,
    ) -> ReplicaClient:
        """A replica-aware client over every node (dead ones included —
        the client's quorum logic is what tolerates them)."""
        assert self.measurement is not None
        kwargs.setdefault("request_deadline_s", self.link_deadline_s)
        kwargs.setdefault("connect_timeout_s", self.link_deadline_s)
        return ReplicaClient(
            [(n.node_id, n.address) for n in self.nodes.values()],
            self.attestation,
            self.measurement,
            consistency=consistency,
            name=name,
            **kwargs,
        )

    # -- chaos levers ----------------------------------------------------------
    def kill(self, node_id: str) -> GroupNode:
        """SIGKILL stand-in: hard-stop the node's server, no drain."""
        node = self.nodes[node_id]
        node.store.close()
        node.server.close(drain=False)
        node.alive = False
        return node

    def restart(self, node_id: str) -> GroupNode:
        """Bring a killed node back **empty** on a fresh port.

        The revived replica holds nothing; peers' hinted handoff and
        the anti-entropy exchange are what refill it.
        """
        if self.nodes[node_id].alive:
            raise StoreError(f"node {node_id!r} is still alive")
        node = self._build_node(node_id)
        for peer in self.nodes.values():
            if peer is node:
                continue
            self._link_node(node, peer)
            peer.store.peers[node_id].set_address(node.address)
            peer.store.peers[node_id].alive = True
        node.store.start(self.anti_entropy_interval_s)
        return node

    # -- convergence -----------------------------------------------------------
    def live_nodes(self) -> List[GroupNode]:
        return [n for n in self.nodes.values() if n.alive]

    def flush_all(self) -> None:
        for node in self.live_nodes():
            node.store.flush()

    def sync_all(self, rounds: int = 2) -> int:
        """Drive hint delivery + anti-entropy until (usually) converged.

        Multiple rounds because one push-pull round propagates a record
        one hop; with a full mesh two rounds reach everyone.
        """
        diverged = 0
        self.flush_all()
        for _ in range(rounds):
            for node in self.live_nodes():
                diverged += node.store.sync_now()
        return diverged

    def converged(self) -> bool:
        """True iff every live replica's verified state is byte-identical."""
        digests = {n.store.content_digest() for n in self.live_nodes()}
        return len(digests) == 1

    def close(self) -> None:
        for node in self.live_nodes():
            self.kill(node.node_id)
