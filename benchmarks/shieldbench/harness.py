"""The load generator: server child handle, checked request loops, and
the end-to-end run (tracing off; ``traced.py`` has the traced one).

One generator process, one thread per connection (at most ``nproc``),
fixed operation counts per segment, the reference loop timed between
segments so that times can be reported at reference speed.  Every reply is compared with the
generator's model; a request that fails, is refused, times out or
answers wrongly counts as failed and contributes no latency.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ReproError
from repro.net.sessions import AttestationService
from repro.net.tcp import TCPShieldClient

import gen
import layers
import procstat
import scenarios
from gen import GET, MGET, SET
from layers import now

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 3
MIN_SEGMENTS = 3
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run (not: the program answered wrongly)."""


# -- the server child ----------------------------------------------------------

class ServerChild:
    """A ``serve_child.py`` process in its own process group."""

    def __init__(self, sc, seed: int, smoke: bool,
                 wal_dir: Optional[str] = None, load: bool = True):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        try:
            self._send({"workload": sc.name, "seed": seed, "smoke": smoke,
                        "wal_dir": wal_dir, "load": load})
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.address = ("127.0.0.1", self.ready["port"])
        self.measurement = bytes.fromhex(self.ready["measurement"])

    def _send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("server child did not answer on its control channel")
        return json.loads(line)

    def command(self, cmd: str, **args) -> dict:
        self._send({"cmd": cmd, **args})
        return self._read()

    def stop(self) -> None:
        """Clean shutdown; escalates to the whole group if it stalls."""
        try:
            self.command("stop")
            self.proc.wait(timeout=20)
        except (BenchError, OSError, ValueError, subprocess.TimeoutExpired):
            pass
        self._reap(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL the whole group: the crash of the durability check."""
        self._reap(signal.SIGKILL)

    def _reap(self, first: int) -> None:
        for sig in (first, signal.SIGKILL):
            if not procstat.group_members(self.pgid):
                break
            try:
                os.killpg(self.pgid, sig)
            except ProcessLookupError:
                break
            if procstat.wait_group_gone(self.pgid, 5.0):
                break
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# -- checked request loops -------------------------------------------------------

@dataclass
class Tally:
    """What one connection saw in one segment."""

    start: float = 0.0
    end: float = 0.0
    attempted: int = 0
    failed: int = 0
    late_max_s: float = 0.0
    reads: List[float] = field(default_factory=list)    # seconds per read request
    writes: List[float] = field(default_factory=list)   # seconds per write request


def drive(target, ops, model: gen.Model, tally: Tally, period: float = 0.0,
          start_at: float = 0.0, tracer: Optional[layers.Tracer] = None,
          request_base: int = 0) -> None:
    """Issue ``ops`` on one connection and check every reply.

    ``period`` 0 is the closed loop: the next request leaves when the
    reply arrives, latency runs from the send.  Otherwise requests are
    due every ``period`` seconds from ``start_at`` whatever the replies
    do, and latency runs from the *due* time, so a stall is charged to
    every request it delays.
    """
    sent, acked, read_ok = model.sent, model.acked, model.read_ok
    reads, writes = tally.reads, tally.writes
    tally.start = now()
    for number, (kind, where, versions, keys, payload) in enumerate(ops):
        if period:
            due = start_at + number * period
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
        t0 = now()
        if period:
            tally.late_max_s = max(tally.late_max_s, t0 - due)
        tally.attempted += 1
        try:
            if kind == GET:
                floor = acked[where]
                value = target.get(keys)
                t1 = now()
                ok = read_ok(where, value, floor)
            elif kind == SET:
                sent[where] = versions
                target.set(keys, payload)
                t1 = now()
                acked[where] = versions
                ok = True
            elif kind == MGET:
                floors = [acked[i] for i in where]
                found = target.multi_get(keys)
                t1 = now()
                ok = all(
                    read_ok(i, found.get(k), f)
                    for i, k, f in zip(where, keys, floors)
                )
            else:
                for i, v in zip(where, versions):
                    sent[i] = v
                target.multi_set(payload)
                t1 = now()
                for i, v in zip(where, versions):
                    acked[i] = v
                ok = True
        except (ReproError, OSError):
            ok = False
            t1 = now()
        if not ok:
            tally.failed += 1
            continue
        (reads if kind in (GET, MGET) else writes).append(
            t1 - (due if period else t0)
        )
        if tracer is not None:
            tracer.add("request." + kind, t0, t1, -1, request_base + number)
    tally.end = now()


@dataclass
class Segment:
    wall_s: float
    keys: int
    attempted: int
    failed: int
    reads: List[float]
    writes: List[float]
    late_max_s: float
    server_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    slowdown: float = 1.0    # reference loop around this segment / REFERENCE_S

    @property
    def ops_per_s(self) -> float:
        return self.keys / self.wall_s


# -- one loaded system and its connections ---------------------------------------

class Rig:
    """A built, loaded and warmed system with its connections.

    Building one *is* the set-up that ``setup_s`` times: spawn (served)
    or construct (embedded), bulk load through ``multi_set``, attest the
    connections, and a short discarded warm-up.
    """

    def __init__(self, sc, seed: int, smoke: bool, tag: str):
        self.sc, self.seed, self.smoke = sc, seed, smoke
        self.dataset = gen.Dataset(seed, sc.pairs)
        self.model = gen.Model(self.dataset)
        self.sources = [
            gen.OpSource(self.model, sc.mix, seed, c, sc.connections)
            for c in range(sc.connections)
        ]
        self.child: Optional[ServerChild] = None
        self.store = None
        self.targets: list = []
        self.wal_dir = None
        self.attempted = 0
        self.failed = 0
        self.gen_us_per_op: List[float] = []
        if sc.store == "wal":
            self.wal_dir = os.path.join(OUT_DIR, f"wal-{os.getpid()}-{tag}")
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        try:
            if sc.served:
                self.child = ServerChild(sc, seed, smoke, self.wal_dir)
                self.connect()
            else:
                self.store = scenarios.build_store(sc)
                scenarios.load(self.store, self.dataset)
                self.targets = [self.store]
            self.segment(self.generate(sc.warmup_ops))
        except BaseException:
            self.close()
            raise

    def connect(self) -> None:
        service = AttestationService(scenarios.ATTESTATION_SECRET)
        self.targets = [
            TCPShieldClient(
                self.child.address, service, self.child.measurement,
                bytes([0x40 + c]) * 32,
            )
            for c in range(self.sc.connections)
        ]

    def disconnect(self) -> None:
        for target in self.targets:
            if target is not self.store:
                target.close()
        self.targets = []

    def close(self) -> None:
        self.disconnect()
        if self.child is not None:
            self.child.stop()
            self.child = None
        self.store = None
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)

    # -- requests -------------------------------------------------------------
    def generate(self, requests: int) -> List[list]:
        """The next ``requests`` requests, split over the connections."""
        share = max(1, requests // self.sc.connections)
        start = now()
        if self.sc.batch > 1:
            lists = [s.batches(share, self.sc.batch) for s in self.sources]
        else:
            lists = [s.singles(share) for s in self.sources]
        keys = share * self.sc.connections * self.sc.batch
        self.gen_us_per_op.append((now() - start) / keys * 1e6)
        return lists

    def reference_s(self) -> float:
        return layers.reference_s(self.sc.settle_s)

    def counters(self) -> dict:
        """Cumulative counters of the system under test: StoreStats,
        TransportStats, pool stage timings, and the CPU seconds and peak
        resident memory of the process tree that holds the store (the
        server child's, or this process when embedded)."""
        if self.child is not None:
            return self.child.command("stats")
        return {
            "store": self.store.stats.snapshot_dict(),
            "transport": {},
            "stages": None,
            "cpu_s": time.process_time(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def segment(self, lists: List[list], rate: float = 0.0,
                tracer: Optional[layers.Tracer] = None) -> Segment:
        """Run one op list per connection, concurrently, and total up."""
        tallies = [Tally() for _ in lists]
        period = len(lists) / rate if rate else 0.0
        server_cpu = self.counters()["cpu_s"]
        loadgen_cpu = time.process_time()
        start_at = now() + 0.02
        bases = [sum(len(l) for l in lists[:c]) for c in range(len(lists))]
        if len(lists) == 1:
            drive(self.targets[0], lists[0], self.model, tallies[0],
                  period, start_at, tracer, bases[0])
        else:
            threads = [
                threading.Thread(
                    target=drive,
                    args=(target, ops, self.model, tally, period, start_at,
                          tracer, base),
                )
                for target, ops, tally, base
                in zip(self.targets, lists, tallies, bases)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        loadgen_cpu = time.process_time() - loadgen_cpu
        server_cpu = self.counters()["cpu_s"] - server_cpu
        seg = Segment(
            wall_s=max(t.end for t in tallies) - min(t.start for t in tallies),
            keys=sum(len(l) for l in lists) * self.sc.batch,
            attempted=sum(t.attempted for t in tallies),
            failed=sum(t.failed for t in tallies),
            reads=[s for t in tallies for s in t.reads],
            writes=[s for t in tallies for s in t.writes],
            late_max_s=max(t.late_max_s for t in tallies),
            server_cpu_s=server_cpu,
            loadgen_cpu_s=loadgen_cpu,
        )
        self.attempted += seg.attempted
        self.failed += seg.failed
        return seg

    # -- final checks ------------------------------------------------------------
    def audit(self) -> None:
        """Embedded: the store's own full-table integrity audit, untimed."""
        self.attempted += 1
        try:
            if self.store.audit() != self.sc.pairs:
                self.failed += 1
        except ReproError:
            self.failed += 1

    def crash_and_recover(self) -> dict:
        """SIGKILL the server, restart it on the same log directory, time
        the restart to the first verified read, then read every key back
        and count acknowledged writes that are gone."""
        self.disconnect()
        self.child.kill()
        started = now()
        self.child = ServerChild(self.sc, self.seed, self.smoke,
                                 self.wal_dir, load=False)
        self.connect()
        client = self.targets[0]
        value = client.get(self.dataset.key(0))
        recovery_s = now() - started
        first_ok = self.model.read_ok(0, value, self.model.acked[0])
        lost = 0
        acked = self.model.acked
        for start in range(0, self.sc.pairs, 64):
            indices = range(start, min(start + 64, self.sc.pairs))
            keys = [self.dataset.key(i) for i in indices]
            self.attempted += 1
            try:
                found = client.multi_get(keys)
            except (ReproError, OSError):
                self.failed += 1
                continue
            wrong = 0
            for i, key in zip(indices, keys):
                if self.model.read_ok(i, found.get(key), acked[i]):
                    continue
                wrong += 1
                decoded = gen.decode_value(found.get(key))
                if decoded is not None and decoded[0] == i and decoded[1] < acked[i]:
                    lost += 1
            self.failed += bool(wrong)
        if not first_ok:
            self.failed += 1
        replayed = self.counters()["store"]["wal_replayed"]
        return {
            "recovery_s": recovery_s,
            "acked_writes_lost": lost,
            "replayed": replayed,
            "replay_s": self.child.ready["build_s"],
        }


# -- the end-to-end run ------------------------------------------------------------

def _p(values: List[float], q: float) -> float:
    return layers.percentile(sorted(values), q) * 1e6


def _median_of(segments: List[Segment], fn) -> float:
    values = [fn(s) for s in segments]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than its quiet speed the host ran whatever lies
    between two timings of the reference loop."""
    return (before_s + after_s) / 2 / layers.REFERENCE_S


def measure_segments(rig: Rig, seconds: float, minimum: int = MIN_SEGMENTS) -> List[Segment]:
    """Closed-loop segments of the scenario's fixed size until
    ``seconds`` have been measured (at least ``minimum`` of them), the
    reference loop timed between them."""
    segments: List[Segment] = []
    deadline = now() + seconds
    before = rig.reference_s()
    while len(segments) < minimum or now() + segments[-1].wall_s / 2 < deadline:
        segment = rig.segment(rig.generate(rig.sc.segment_ops))
        after = rig.reference_s()
        segment.slowdown = slowdown(before, after)
        before = after
        segments.append(segment)
    return segments


def _pooled_p50_us(segments: List[Segment], which: str) -> float:
    """Median request latency of the whole run at reference speed: each
    sample divided by its own segment's slowdown."""
    pooled = [x / s.slowdown for s in segments for x in getattr(s, which)]
    return _p(pooled, 0.50) if pooled else 0.0


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Tracing off: three timed set-ups, then the measured segments."""
    sc = scenarios.scenario(name, smoke)
    setups: List[float] = []
    setup_slowdowns: List[float] = []
    rig = None
    steal = procstat.StealMeter()
    calib = layers.calib_ms()
    for rep in range(SETUP_REPS):
        if rig is not None:
            rig.close()
        before = layers.reference_s(sc.settle_s)
        started = now()
        rig = Rig(sc, seed, smoke, tag=str(rep))
        setups.append(now() - started)
        setup_slowdowns.append(slowdown(before, rig.reference_s()))
    try:
        segments = measure_segments(rig, seconds)
        rss = rig.counters()["peak_rss_mib"]
        recovery = None
        if sc.store == "wal":
            recovery = rig.crash_and_recover()
        elif not sc.served:
            rig.audit()
    finally:
        rig.close()

    # Times are at reference speed: divided by the slowdown the reference
    # loop showed around them (README "Reference speed").
    metrics = {
        "setup_s": statistics.median(
            t / slow for t, slow in zip(setups, setup_slowdowns)),
        "ops_per_s": _median_of(segments, lambda s: s.ops_per_s * s.slowdown),
        "get_p50_us": _pooled_p50_us(segments, "reads"),
        "set_p50_us": _pooled_p50_us(segments, "writes"),
        "server_cpu_us_per_op": _median_of(
            segments, lambda s: s.server_cpu_s / s.keys / s.slowdown * 1e6),
        "peak_rss_mb": rss,
    }
    lost = recovery["acked_writes_lost"] if recovery else 0
    detail = {
        "segments": len(segments),
        "n_per_segment": {
            "requests": segments[0].attempted,
            "reads": len(segments[0].reads),
            "writes": len(segments[0].writes),
        },
        "n": {
            "setup_s": len(setups),
            "ops_per_s": len(segments),
            "get_p50_us": sum(len(s.reads) for s in segments),
            "set_p50_us": sum(len(s.writes) for s in segments),
            "server_cpu_us_per_op": len(segments),
            "peak_rss_mb": 1,
        },
        "setup_s_each": setups,
        "setup_slowdown_each": setup_slowdowns,
        "ops_per_s_each": [s.ops_per_s for s in segments],
        "slowdown_each": [s.slowdown for s in segments],
        "raw_ops_per_s": _median_of(segments, lambda s: s.ops_per_s),
        "slowdown": _median_of(segments, lambda s: s.slowdown),
        "calib_ms": [calib, layers.calib_ms()],
        "steal_ratio": steal.ratio(),
        "recovery": recovery,
    }
    return {
        "correct": rig.failed == 0 and lost == 0,
        "attempted": rig.attempted,
        "failed": rig.failed,
        "metrics": metrics,
        "detail": detail,
    }
