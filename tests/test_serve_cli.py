"""``repro serve`` end to end: start, serve, stop on a signal, restart.

The served process is a real subprocess, its port and measurement read
off stdout.  Three promises are pinned here and nowhere else: a clean
stop (Ctrl-C or SIGTERM) loses no acknowledged write — the front end
drains *before* the final checkpoint is cut — every shape the command
builds (one partition, worker processes, a replicated node) comes back
from ``--snapshot-dir`` + ``--wal-dir`` with what it held, and a
start-up either recovers everything acknowledged or says ``restore
rejected`` and serves nothing.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import (
    PartitionedShieldStore,
    PartitionSnapshotter,
    process_mode_supported,
    shield_opt,
)
from repro.errors import StoreError
from repro.net import TCPShieldClient
from repro.sim import AttestationService, MonotonicCounterService

_REPO = Path(__file__).resolve().parents[1]
_SERVICE = AttestationService(b"dev-attestation-secret")  # the CLI default
_SEEDED = {b"seed-%03d" % i: b"value-%03d" % i for i in range(40)}


class Served:
    """One ``repro serve --port 0`` child process (``program`` replaces
    ``-m repro``, e.g. ``-c`` and a script that wraps the CLI)."""

    def __init__(self, *argv, program=("-m", "repro")):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *program, "serve", "--port", "0",
             *map(str, argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(_REPO / "src")),
        )
        watchdog = threading.Timer(60.0, self.proc.kill)  # never hang the suite
        watchdog.start()
        self.banner = ""
        try:
            for line in self.proc.stdout:
                self.banner += line
                if line.startswith("press Ctrl-C"):
                    break
            else:
                raise AssertionError(
                    f"serve exited {self.proc.wait()}: {self.proc.stderr.read()}"
                )
        finally:
            watchdog.cancel()
        self.port = int(re.search(r"serving on [\d.]+:(\d+)", self.banner).group(1))
        self.measurement = bytes.fromhex(
            re.search(r"measurement: ([0-9a-f]+)", self.banner).group(1)
        )

    def client(self, **kwargs):
        return TCPShieldClient(
            ("127.0.0.1", self.port), _SERVICE, self.measurement,
            os.urandom(32), **kwargs,
        )

    def stop(self, sig):
        """Signal the server; ``(exit status, everything it printed)``."""
        self.proc.send_signal(sig)
        out, err = self.proc.communicate(timeout=60)
        assert err == "", err
        return self.proc.returncode, self.banner + out

    def stop_under_writes(self, sig):
        """Signal the server while one client writes until its
        connection closes; returns what was acknowledged and
        :meth:`stop`'s pair."""
        client = self.client(max_retries=0)
        acked = {}

        def write_until_closed():
            try:
                for i in range(1_000_000):
                    key = b"live-%06d" % i
                    client.set(key, key[::-1])
                    acked[key] = key[::-1]
            except StoreError:
                pass  # the server went away: stop, as a real client would

        writer = threading.Thread(target=write_until_closed)
        writer.start()
        deadline = time.monotonic() + 30.0
        while len(acked) < 50 and time.monotonic() < deadline:
            time.sleep(0.005)
        stopped = self.stop(sig)
        writer.join(timeout=30.0)
        assert not writer.is_alive()
        client.close()
        assert len(acked) >= 50
        return acked, stopped


def _holds(served, expected):
    client = served.client()
    try:
        keys = sorted(expected)
        held = {}
        for start in range(0, len(keys), 256):
            held.update(client.multi_get(keys[start : start + 256]))
    finally:
        client.close()
    lost = [key for key in keys if held[key] != expected[key]]
    assert not lost, f"{len(lost)} of {len(keys)} acknowledged writes gone"


class TestCleanStopLosesNothing:
    """The final checkpoint of a clean stop holds every acknowledged
    write.  ``snapshot.write`` is delayed so a stop that checkpoints
    while the loop still serves loses hundreds of them, not a lucky zero."""

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
    def test_checkpoint_only(self, tmp_path, sig):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"point": "snapshot.write", "kind": "delay", "delay_s": 0.3},
        ]}))
        args = ("--snapshot-dir", tmp_path / "snaps", "--fault-plan", plan)
        acked, (status, out) = Served(*args).stop_under_writes(sig)
        assert status == 0
        assert "final checkpoint: " in out and out.endswith("stopped\n")
        restarted = Served(*args)
        try:
            assert f"restored {len(acked)} keys" in restarted.banner or (
                f"restored {len(acked) + 1} keys" in restarted.banner
            )  # the request in flight at the drain may have been applied
            _holds(restarted, acked)
        finally:
            restarted.proc.kill()
            restarted.proc.communicate()


def _worker_pids(pid):
    """Partition workers of a served process: its children running the
    pool's worker entry point."""
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        children = fh.read().split()
    return [
        int(child) for child in children
        if b"_worker_boot" in Path(f"/proc/{child}/cmdline").read_bytes()
    ]


def _running(pid):
    """Whether ``pid`` is a live process (a zombie waiting for whoever
    adopted it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not process_mode_supported(), reason="no worker processes")
def test_killed_server_leaves_no_worker_and_no_shm_entry():
    """A SIGKILLed server runs no exit handler: its workers see EOF on
    their inherited descriptors and exit by themselves, and the rings,
    having no name, leave nothing behind in /dev/shm."""
    shm_before = set(os.listdir("/dev/shm"))
    served = Served("--workers", "2")
    workers = _worker_pids(served.proc.pid)
    assert len(workers) == 2
    client = served.client()
    client.multi_set(_SEEDED)
    client.close()
    served.proc.kill()
    served.proc.communicate()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and (
        any(map(_running, workers)) or set(os.listdir("/dev/shm")) - shm_before
    ):
        time.sleep(0.05)
    assert not any(map(_running, workers)), "a worker outlived its server"
    assert set(os.listdir("/dev/shm")) <= shm_before


class TestEveryShapeRestarts:
    """``--wal-dir`` alone, then with ``--snapshot-dir``, then again: the
    log replays, the final checkpoint restores, nothing goes missing."""

    @pytest.mark.parametrize(
        "shape, sig",
        [
            (("--workers", "1"), signal.SIGINT),
            pytest.param(
                ("--workers", "2"), signal.SIGTERM,
                marks=pytest.mark.skipif(
                    not process_mode_supported(), reason="no worker processes"
                ),
            ),
            (("--node-id", "n0", "--replication-secret", "s"), signal.SIGINT),
        ],
        ids=["one-partition", "two-workers", "replicated"],
    )
    def test_log_then_checkpoint(self, tmp_path, shape, sig):
        shm_before = set(os.listdir("/dev/shm"))
        logged = (*shape, "--wal-dir", tmp_path / "wal")
        first = Served(*logged)
        client = first.client()
        client.multi_set(_SEEDED)
        client.close()
        assert first.stop(sig) == (0, first.banner + "stopped\n")

        both = (*logged, "--snapshot-dir", tmp_path / "snaps")
        second = Served(*both)
        assert re.search(r"replayed [1-9]\d* operation\(s\)", second.banner)
        assert "restored" not in second.banner
        _holds(second, _SEEDED)
        workers = _worker_pids(second.proc.pid)
        assert len(workers) == (2 if shape == ("--workers", "2") else 0)
        acked, (status, out) = second.stop_under_writes(sig)
        assert status == 0 and "final checkpoint: " in out
        for pid in workers:  # none outlives a clean stop
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert set(os.listdir("/dev/shm")) <= shm_before

        third = Served(*both)
        try:
            assert re.search(r"restored \d+ keys", third.banner)
            assert "replayed" not in third.banner  # the checkpoint held it all
            _holds(third, {**_SEEDED, **acked})
        finally:
            third.stop(sig)


# ``repro serve`` with every section write wrapped: before the section is
# written, a merge of a newer record (what anti-entropy applies) starts
# on another thread, and the wrapper prints whether it landed meanwhile.
_MERGE_DURING_CUT = """
import sys, threading
import repro.core.host as host
import repro.ext.replication as replication
from repro.cli import main

nodes = []
built = replication.ReplicatedStore.__init__
def init(self, *args, **kwargs):
    built(self, *args, **kwargs)
    nodes.append(self)
replication.ReplicatedStore.__init__ = init

write_section = host.write_section
def cut_open(*args, **kwargs):
    merged = threading.Event()
    record = replication.pack_record(0, 1 << 40, 7, b"merged")
    def merge():
        nodes[0].apply_remote(b"merged-key", record, "sync_keys_repaired")
        merged.set()
    threading.Thread(target=merge, daemon=True).start()
    print(f"merged during the cut: {merged.wait(1.0)}", flush=True)
    return write_section(*args, **kwargs)
host.write_section = cut_open
sys.exit(main(sys.argv[1:]))
"""


def test_replicated_checkpoint_excludes_anti_entropy_merges(tmp_path):
    """The replicator merges into the store under the replicated store's
    mutex, not under ``store_lock``: a checkpoint of a replicated node
    must hold that mutex too, or a merge tears the section it cuts."""
    served = Served(
        "--node-id", "n0", "--snapshot-dir", tmp_path / "snaps",
        program=("-c", _MERGE_DURING_CUT),
    )
    client = served.client()
    client.multi_set(_SEEDED)
    client.close()
    status, out = served.stop(signal.SIGINT)
    assert status == 0 and "final checkpoint: " in out
    assert "merged during the cut: False" in out, out


class TestCrashInsideACheckpoint:
    """``snapshot_bytes`` bumps the platform counter and rotates the logs
    before the file exists.  A process that dies in between restarts
    from the older checkpoint (or none) plus the authenticated chain
    across the truncation record — every acknowledged write, not
    ``RollbackError`` on every start from then on."""

    @pytest.mark.parametrize("durable_before", [0, 1], ids=["first", "later"])
    def test_killed_between_counter_bump_and_rename(self, tmp_path, durable_before):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"point": "snapshot.write", "kind": "crash", "hits": [durable_before]},
        ]}))
        snaps = tmp_path / "snaps"
        args = ("--snapshot-dir", snaps, "--wal-dir", tmp_path / "wal")
        served = Served(*args, "--snapshot-interval", "0.5", "--fault-plan", plan)
        client = served.client()
        acked = {}
        # The half-written temp file is the crash site's last act: the
        # counter is bumped and every log rotated once it exists.
        torn = snaps / f"snapshot-{durable_before + 1:012d}.bin.tmp"
        deadline = time.monotonic() + 30.0
        while not torn.exists() or len(acked) % 8:
            assert time.monotonic() < deadline
            key = b"k%04d" % len(acked)
            client.set(key, key[::-1])
            acked[key] = key[::-1]
        client.close()
        served.proc.kill()
        served.proc.communicate()
        assert json.loads((snaps / "counters.json").read_text()) == {
            "shieldstore-partitions": durable_before + 1
        }

        restarted = Served(*args)
        try:
            assert ("restored" in restarted.banner) == bool(durable_before)
            assert re.search(r"replayed [1-9]\d* operation\(s\)", restarted.banner)
            _holds(restarted, acked)
        finally:
            restarted.stop(signal.SIGTERM)


class TestStartUpErrorsSayWhatTheyAre:
    @pytest.fixture(autouse=True)
    def no_listening_socket(self, monkeypatch):
        """Run ``main`` in-process; a start-up that goes on to serve
        fails here instead of blocking the suite."""
        def opened(*_args, **_kwargs):
            raise AssertionError("start-up went on to open the listening socket")

        monkeypatch.setattr("repro.net.TCPShieldServer", opened)

    def test_rejected_blob_is_a_message_not_a_traceback(self, tmp_path, capsys):
        """A ``snapshot-*.bin`` that is not one (the bare-store format
        ``--workers 1`` wrote up to ``e0dfd44``, say) is refused by name."""
        (tmp_path / "snapshot-000000000001.bin").write_bytes(
            b"SSSNAP1\0" + bytes(64)
        )
        assert main(["serve", "--snapshot-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("restore rejected: ") and "wrong magic" in err

    def test_unsealable_header_is_refused_the_same_way(self, tmp_path, capsys):
        """One flipped byte of the sealed header: ``SealingError``, which
        start-up reports like any other refusal.  A flipped byte of an
        entry's ciphertext is refused when the entry is read:
        ``test_durable_sweep.py::test_every_byte_and_every_length[checkpoint]``
        flips every byte of a blob."""
        store = PartitionedShieldStore(  # the CLI's geometry and seeded secret
            shield_opt(num_buckets=8192, num_mac_hashes=4096), num_partitions=1
        )
        store.multi_set(_SEEDED)
        honest = PartitionSnapshotter(
            MonotonicCounterService(str(tmp_path / "counters.json"))
        ).snapshot_bytes(store)
        checkpoint = tmp_path / "snapshot-000000000001.bin"
        checkpoint.write_bytes(honest)
        # The honest blob gets past start-up to the listening socket...
        with pytest.raises(AssertionError, match="listening socket"):
            main(["serve", "--snapshot-dir", str(tmp_path)])
        # ...and the same blob with one header byte flipped does not.
        checkpoint.write_bytes(honest[:40] + bytes([honest[40] ^ 0x01]) + honest[41:])
        capsys.readouterr()
        assert main(["serve", "--snapshot-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("restore rejected: ")

    @pytest.mark.parametrize("log_kept", [True, False], ids=["log-kept", "log-gone"])
    def test_rollback_to_empty_is_refused(self, tmp_path, capsys, log_kept):
        """Twenty acknowledged sets, a clean stop, then the host deletes
        the one checkpoint (and the log): the platform counter still
        reads 1, so coming up empty is a rollback — exit 1, nothing
        served, no ``snapshot-2`` laundering the empty store."""
        snaps, wal = tmp_path / "snaps", tmp_path / "wal"
        args = ("--snapshot-dir", snaps, "--wal-dir", wal)
        first = Served(*args)
        client = first.client()
        client.multi_set({b"k%d" % i: b"v%d" % i for i in range(20)})
        client.close()
        status, out = first.stop(signal.SIGTERM)
        checkpoint = re.search(r"final checkpoint: (\S+)", out).group(1)
        assert status == 0 and checkpoint.endswith("snapshot-000000000001.bin")
        os.remove(checkpoint)
        if not log_kept:
            for segment in wal.iterdir():
                segment.unlink()
        assert main(["serve", *map(str, args)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("restore rejected: no checkpoint: ")
        assert ("orphaned" if log_kept else "rollback") in err
        assert sorted(os.listdir(snaps)) == ["counters.json"]
        assert json.loads((snaps / "counters.json").read_text()) == {
            "shieldstore-partitions": 1
        }

    def test_rolled_back_checkpoint_is_refused_the_same_way(self, tmp_path, capsys):
        store = PartitionedShieldStore(  # the CLI's geometry and seeded secret
            shield_opt(num_buckets=8192, num_mac_hashes=4096), num_partitions=1
        )
        snapshotter = PartitionSnapshotter(
            MonotonicCounterService(str(tmp_path / "counters.json"))
        )
        stale = snapshotter.snapshot_bytes(store)
        snapshotter.snapshot_bytes(store)  # the platform counter moves on
        (tmp_path / "snapshot-000000000001.bin").write_bytes(stale)
        assert main(["serve", "--snapshot-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("restore rejected: ") and "rollback" in err

    @pytest.mark.parametrize(
        "flag, value", [("--workers", "0"), ("--workers", "-3"), ("--snapshot-keep", "0")]
    )
    def test_bad_counts_exit_2_before_anything_is_built(
        self, flag, value, tmp_path, capsys
    ):
        snaps = tmp_path / "snaps"
        assert main(["serve", flag, value, "--snapshot-dir", str(snaps)]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(f"{flag} {value}: ")
        assert not snaps.exists()
