"""Regression tests for the real violations shieldlint surfaced.

Three classes of fix are locked in here:

* **error redaction** — exception messages built inside the enclave
  carry :meth:`KeyRing.redact` tags, never raw client keys (messages
  cross the worker pipe and may reach host logs);
* **verified iteration** — ``iter_items`` MAC-verifies every bucket
  chain against the authenticated set hashes before yielding plaintext
  (it used to decrypt unverified);
* **sealed worker pipes** — parent↔worker IPC frames are sealed with a
  per-worker channel, so client keys and values never cross the host
  kernel in the clear, and per-worker mutation counters are maintained
  under the worker lock;
* **per-incarnation pipe keys** — every (re)spawn derives the pipe
  session keys from a fresh public nonce, so a host that kills a worker
  to force a respawn cannot replay records recorded from the previous
  incarnation into the new session (which restarts its sequence
  counters, i.e. would otherwise reuse (key, IV) pairs);
* **sealed shutdown** — ``close()`` sends ``OP_SHUTDOWN`` through the
  session channel like every other frame, so workers exit via the
  graceful acknowledged branch, not the tampered-frame break;
* **checkpoint/counter atomicity** — ``snapshot_all``/``restore_all``
  install the recovery checkpoint *inside* the scatter's locked region,
  before the per-worker mutation counters reset, so a crash right after
  a snapshot can never pair the old checkpoint with zeroed counters and
  undercount ``ops_lost``.
"""

import pytest

import repro.core.procpool as procpool
from repro.core import ShieldStore, process_mode_supported, shield_opt
from repro.core.procpool import (
    OP_SHUTDOWN,
    REPLY_OK,
    ProcessPartitionPool,
    _pipe_channel,
)
from repro.crypto.keys import KeyRing
from repro.errors import (
    IntegrityError,
    ProtocolError,
    ReplayError,
    StoreError,
    WorkerError,
)
from repro.net.message import STATUS_OK, Request
from repro.sim import Attacker

SECRET = bytes(range(32))

needs_processes = pytest.mark.skipif(
    not process_mode_supported(),
    reason="platform cannot run the multiprocess engine",
)


def _entry_addr(store: ShieldStore, key: bytes) -> int:
    bucket = store.keyring.keyed_bucket_hash(key, store.config.num_buckets)
    return int.from_bytes(
        store.machine.memory.raw_read(store.buckets.slot_addr(bucket), 8),
        "little",
    )


class TestKeyRedaction:
    def test_redact_is_deterministic(self):
        ring = KeyRing(SECRET)
        assert ring.redact(b"user:alice") == ring.redact(b"user:alice")

    def test_redact_never_contains_key_bytes(self):
        ring = KeyRing(SECRET)
        key = b"super-secret-client-key"
        tag = ring.redact(key)
        assert key.decode() not in tag
        assert key.hex() not in tag
        assert tag.startswith("<key:") and tag.endswith(">")

    def test_redact_distinguishes_keys(self):
        ring = KeyRing(SECRET)
        assert ring.redact(b"key-a") != ring.redact(b"key-b")

    def test_redact_is_deployment_specific(self):
        """Tags are keyed (hint key), so logs from different deployments
        cannot be joined on redacted key identity."""
        a = KeyRing(SECRET)
        b = KeyRing(bytes(range(1, 33)))
        assert a.redact(b"key") != b.redact(b"key")


class TestErrorMessageRedaction:
    def test_increment_error_redacts_the_key(self):
        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        store.set(b"visit-counter", b"not-a-number")
        with pytest.raises(StoreError) as exc_info:
            store.increment(b"visit-counter")
        message = str(exc_info.value)
        assert "visit-counter" not in message
        assert store.keyring.redact(b"visit-counter") in message

    def test_integrity_error_redacts_the_key(self):
        import re

        store = ShieldStore(shield_opt(num_buckets=16, num_mac_hashes=8))
        for i in range(40):
            store.set(f"key-{i:02d}".encode(), f"value-{i}".encode())
        # Flip a ciphertext bit just past the 25-byte entry header.
        Attacker(store.machine.memory).flip_bit(
            _entry_addr(store, b"key-33") + 26, 1
        )
        with pytest.raises((IntegrityError, ReplayError)) as exc_info:
            for i in range(40):
                store.get(f"key-{i:02d}".encode())
        assert not re.search(r"key-\d", str(exc_info.value))


@pytest.fixture(params=["macbucket", "chained"])
def iter_store(request):
    config = shield_opt(num_buckets=16, num_mac_hashes=8)
    if request.param == "chained":
        config = config.with_(mac_bucketing=False)
    store = ShieldStore(config)
    for i in range(80):
        store.set(f"key-{i:02d}".encode(), f"value-{i}".encode())
    return store


class TestIterItemsVerification:
    def test_clean_store_yields_everything(self, iter_store):
        items = dict(iter_store.iter_items())
        assert len(items) == 80
        assert items[b"key-07"] == b"value-7"

    def test_tampered_entry_stops_iteration(self, iter_store):
        Attacker(iter_store.machine.memory).flip_bit(
            _entry_addr(iter_store, b"key-33") + 40, 3
        )
        with pytest.raises((IntegrityError, ReplayError)):
            list(iter_store.iter_items())

    def test_truncated_chain_detected(self, iter_store):
        import struct

        attacker = Attacker(iter_store.machine.memory)
        for bucket in range(iter_store.config.num_buckets):
            head = int.from_bytes(
                iter_store.machine.memory.raw_read(
                    iter_store.buckets.slot_addr(bucket), 8
                ),
                "little",
            )
            if head:
                attacker.write(head, struct.pack("<Q", 0))
                break
        with pytest.raises((IntegrityError, ReplayError)):
            list(iter_store.iter_items())


class _SpyConn:
    """Wraps one parent-side pipe end, recording every raw frame."""

    def __init__(self, inner, frames):
        self._inner = inner
        self._frames = frames

    def send_bytes(self, data):
        self._frames.append(bytes(data))
        return self._inner.send_bytes(data)

    def recv_bytes(self):
        data = self._inner.recv_bytes()
        self._frames.append(bytes(data))
        return data

    def __getattr__(self, name):
        return getattr(self._inner, name)


@needs_processes
class TestSealedWorkerPipes:
    MARKER_KEY = b"spy-target-key"
    MARKER_VALUE = b"PLAINTEXT-MARKER-7f3a9c"

    def test_no_plaintext_crosses_the_pipe(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 2, SECRET,
            data_plane="pipe",
        )
        frames = []
        try:
            for handle in pool.workers:
                handle.conn = _SpyConn(handle.conn, frames)
            assert (
                pool.execute(
                    0, Request("set", self.MARKER_KEY, self.MARKER_VALUE)
                ).status
                == STATUS_OK
            )
            response = pool.execute(0, Request("get", self.MARKER_KEY))
            assert response.status == STATUS_OK
            assert response.value == self.MARKER_VALUE
        finally:
            pool.close()
        assert frames, "spy saw no traffic"
        blob = b"".join(frames)
        assert self.MARKER_VALUE not in blob
        assert self.MARKER_KEY not in blob

    def test_mutation_counters_track_and_reset(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 2, SECRET
        )
        try:
            pool.execute(0, Request("set", b"a", b"1"))
            pool.execute(0, Request("set", b"b", b"2"))
            pool.execute(1, Request("get", b"a"))
            assert pool.workers[0].ops_since_snapshot == 2
            assert pool.workers[1].ops_since_snapshot == 0
            pool.snapshot_all(counter=1)
            assert all(
                handle.ops_since_snapshot == 0 for handle in pool.workers
            )
        finally:
            pool.close()


class TestPerIncarnationPipeKeys:
    """A respawned worker's pipe session must not share keys with its
    dead predecessor: the host can kill a worker to force a respawn
    (which restarts the sequence counters at zero), so static keys
    would let it replay the previous incarnation's recorded records —
    and reuse (key, IV) pairs across different plaintexts."""

    def test_channels_from_different_nonces_reject_each_other(self):
        suite = shield_opt(num_buckets=32, num_mac_hashes=8).suite_name
        nonce_a, nonce_b = b"A" * 16, b"B" * 16
        sealed = _pipe_channel(SECRET, 0, nonce_a, "client", suite).seal(
            b"recorded-from-incarnation-a"
        )
        with pytest.raises(ProtocolError):
            _pipe_channel(SECRET, 0, nonce_b, "server", suite).open(sealed)
        # Sanity: the same nonce still yields a working channel pair.
        assert _pipe_channel(SECRET, 0, nonce_a, "server", suite).open(
            sealed
        ) == b"recorded-from-incarnation-a"

    @needs_processes
    def test_respawned_worker_rejects_old_incarnation_records(
        self, monkeypatch
    ):
        config = shield_opt(num_buckets=32, num_mac_hashes=8)
        nonces = []
        real_nonce = procpool._fresh_nonce

        def recording_nonce():
            nonces.append(real_nonce())
            return nonces[-1]

        monkeypatch.setattr(procpool, "_fresh_nonce", recording_nonce)
        pool = ProcessPartitionPool(config, 1, SECRET, data_plane="pipe")
        try:
            # The attacker's tape: every record incarnation A's parent
            # could have produced, regenerated from a replica channel
            # (same master secret, same spawn nonce → same key stream).
            replica = _pipe_channel(
                SECRET, 0, nonces[0], "client", config.suite_name
            )
            tape = [
                replica.seal(bytes([procpool.OP_PING])) for _ in range(4)
            ]
            # Host kills the worker; the pool respawns it in place.
            pool.workers[0].process.terminate()
            with pytest.raises(WorkerError):
                pool.execute(0, Request("get", b"x"))
            assert len(nonces) == 2 and nonces[0] != nonces[1]
            # Replay A's seq-1 record — the sequence number the new
            # session expects next (its own seq 0 was the recovery
            # PING).  With static per-index keys this would
            # authenticate; with per-incarnation keys the worker must
            # drop the stream without replying.
            handle = pool.workers[0]
            with handle.lock:
                handle.conn.send_bytes(tape[1])
                handle.process.wait(timeout=10)
                assert handle.process.poll() is not None
                with pytest.raises(EOFError):
                    handle.conn.recv_bytes()
        finally:
            pool.close()


@needs_processes
class TestSealedShutdown:
    def test_worker_acks_sealed_shutdown_and_exits_cleanly(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 1, SECRET,
            data_plane="pipe",
        )
        try:
            handle = pool.workers[0]
            with handle.lock:
                handle.conn.send_bytes(
                    handle.channel.seal(bytes([OP_SHUTDOWN]))
                )
                ack = handle.channel.open(handle.conn.recv_bytes())
            assert ack == bytes([REPLY_OK])
            handle.process.wait(timeout=10)
            assert handle.process.returncode == 0
        finally:
            pool.close()

    def test_close_sends_sealed_shutdown_frames(self):
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 2, SECRET,
            data_plane="pipe",
        )
        frames = []
        processes = [handle.process for handle in pool.workers]
        for handle in pool.workers:
            handle.conn = _SpyConn(handle.conn, frames)
        pool.close()
        assert [p.returncode for p in processes] == [0, 0]
        shutdown_frames = frames[-2:]
        assert len(shutdown_frames) == 2
        for frame in shutdown_frames:
            # Sealed records, never the raw opcode byte the worker
            # would reject as a tampered frame.
            assert frame != bytes([OP_SHUTDOWN])
            assert len(frame) > 1


@needs_processes
class TestCheckpointCounterAtomicity:
    def test_checkpoint_installed_before_counters_reset(self):
        """The recovery checkpoint and the mutation counters must change
        as one atom: installing the new sections after the counters were
        already zeroed (or vice versa) lets a crash in the window pair
        the old checkpoint with zeroed counters, undercounting the
        documented ``ops_lost`` bound."""
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 2, SECRET
        )
        try:
            pool.execute(0, Request("set", b"a", b"1"))
            pool.execute(1, Request("set", b"b", b"2"))
            observed = {}
            real_install = pool._install_checkpoint

            def spying_install(sections, counter):
                observed["counters_at_install"] = [
                    handle.ops_since_snapshot for handle in pool.workers
                ]
                observed["counter"] = counter
                real_install(sections, counter)

            pool._install_checkpoint = spying_install
            pool.snapshot_all(counter=7)
            # Install ran with the pre-reset counters still in place
            # (i.e. before the loss-bound was zeroed)...
            assert observed["counter"] == 7
            assert observed["counters_at_install"] == [1, 1]
            # ...and by the time snapshot_all returned, checkpoint and
            # counters had moved together.
            assert pool._snapshot_counter == 7
            assert set(pool._snapshot_sections) == {0, 1}
            assert all(
                handle.ops_since_snapshot == 0 for handle in pool.workers
            )
        finally:
            pool.close()

    def test_failed_snapshot_keeps_old_checkpoint_and_counters(self):
        """A scatter that fails must leave both halves untouched: the
        previous checkpoint stays installed and the loss-bound counters
        keep counting from it."""
        pool = ProcessPartitionPool(
            shield_opt(num_buckets=32, num_mac_hashes=8), 2, SECRET
        )
        try:
            pool.execute(0, Request("set", b"a", b"1"))
            pool.snapshot_all(counter=1)
            pool.execute(0, Request("set", b"c", b"3"))
            pool.workers[1].process.terminate()
            with pytest.raises(WorkerError):
                pool.snapshot_all(counter=2)
            assert pool._snapshot_counter == 1
            assert pool.workers[0].ops_since_snapshot == 1
        finally:
            pool.close()
