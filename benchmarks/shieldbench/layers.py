"""Per-layer measurement from outside the program: spans, the layered
replay, and timed calls into public functions.

Nothing under ``src/`` records spans yet, so the server-side split of a
round trip comes from a *layered replay*: the same requests are driven
in-process through ``encode_request -> encode_envelope -> seal -> open
-> decode -> execute_request -> encode_response -> seal -> open ->
decode_response``, one span per call, with the store's own
``stage_*_s`` (or the pool's ``stage_timings()``) deltas synthesised as
child spans of ``execute_request``.  What a real round trip costs beyond
that chain is ``net.tcp.self_us_per_op``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import statistics
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import PartitionedShieldStore, ShieldStore, WriteAheadLog, shield_opt
from repro.crypto.suite import make_suite
from repro.net.message import (
    Request,
    decode_envelope,
    decode_request,
    decode_response,
    encode_envelope,
    encode_multi_items,
    encode_multi_keys,
    encode_request,
    encode_response,
)
from repro.net.server import execute_request, make_secure_channels
from repro.sim import Machine

from gen import GET, MGET, MSET, SET

now = time.perf_counter


class Tracer:
    """Spans kept in memory and written out when the benchmark ends.

    A span is ``[name, start_s, end_s, parent, request]``; ``parent`` is
    the index of the causing span (-1 for a root) and spans of one
    request share ``request``.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []

    def add(self, name: str, start: float, end: float, parent: int, request: int) -> int:
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def extend(self, spans: Sequence[Sequence], request_base: int) -> None:
        """Adopt spans recorded elsewhere (the server child's replay)."""
        base = len(self.spans)
        for name, start, end, parent, request in spans:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1,
                 request + request_base]
            )

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {**header,
                 "fields": ["name", "start_s", "end_s", "parent", "request"],
                 "spans": self.spans},
                fh,
            )


def self_seconds(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time by span name: a span's duration minus its children's."""
    own = [end - start for _name, start, end, _parent, _request in spans]
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        totals[span[0]] = totals.get(span[0], 0.0) + seconds
    return totals


# -- stage readers -----------------------------------------------------------

# (span name, nested inside the previous stage's span)
_STORE_STAGES = (
    ("core.store.walk", False),
    ("core.store.crypto", False),
    ("core.store.verify", False),
)
_POOL_STAGES = (
    ("core.procpool.serialize", False),
    ("core.procpool.ipc_wait", False),
    ("core.procpool.worker_compute", True),
)


def stage_reader(store) -> Tuple[tuple, Callable[[], tuple]]:
    """(stage spec, function returning the cumulative seconds per stage)."""
    if isinstance(store, ShieldStore):
        parts = [store]
    elif store.data_plane is None:
        parts = store.partitions
    else:
        def pool_stages():
            t = store.stage_timings()
            return t["serialize_s"], t["ipc_wait_s"], t["worker_compute_s"]
        return _POOL_STAGES, pool_stages

    def store_stages():
        return (
            sum(p.stats.stage_walk_s for p in parts),
            sum(p.stats.stage_crypto_s for p in parts),
            sum(p.stats.stage_verify_s for p in parts),
        )
    return _STORE_STAGES, store_stages


def _add_stage_spans(tracer, spec, before, after, parent, start, request) -> None:
    cursor = start
    previous = parent
    previous_start = start
    for (name, nested), b, a in zip(spec, before, after):
        if nested:
            tracer.add(name, previous_start, previous_start + (a - b), previous, request)
            continue
        previous_start = cursor
        previous = tracer.add(name, cursor, cursor + (a - b), parent, request)
        cursor += a - b


# -- traced calls ------------------------------------------------------------

def traced_direct(store, ops, tracer: Tracer, request_base: int = 0) -> Dict[str, list]:
    """Embedded path: one span per store call, stage deltas as children."""
    spec, read_stages = stage_reader(store)
    seconds: Dict[str, list] = {GET: [], SET: []}
    for number, (kind, _index, _version, key, value) in enumerate(ops):
        request = request_base + number
        before = read_stages()
        start = now()
        if kind == GET:
            store.get(key)
        else:
            store.set(key, value)
        end = now()
        root = tracer.add("core.store." + kind, start, end, -1, request)
        _add_stage_spans(tracer, spec, before, read_stages(), root, start, request)
        seconds[kind].append(end - start)
    return seconds


def _wire_request(op) -> Request:
    kind, _indices, _versions, keys, items = op
    if kind == GET:
        return Request("get", keys)
    if kind == SET:
        return Request("set", keys, items)
    if kind == MGET:
        return Request("mget", b"", encode_multi_keys(keys))
    return Request("mset", b"", encode_multi_items(items))


def layered_replay(store, ops, tracer: Tracer, request_base: int = 0) -> Dict[str, list]:
    """Drive ``ops`` through the whole codec / channel / dispatch chain
    in this process; returns the chain's seconds per request, by kind."""
    spec, read_stages = stage_reader(store)
    suite = make_suite("fast-hashlib", b"\x11" * 16, b"\x22" * 16)
    client, server = make_secure_channels(suite, suite)
    token = b"\x33" * 16
    seconds: Dict[str, list] = {GET: [], SET: [], MGET: [], MSET: []}
    add = tracer.add
    for number, op in enumerate(ops):
        request = request_base + number
        kind = op[0]
        mutating = kind in (SET, MSET)
        wire = _wire_request(op)
        root = add("replay.request", 0.0, 0.0, -1, request)
        t0 = now()
        payload = encode_envelope(token if mutating else None, encode_request(wire))
        t1 = now()
        sealed = client.seal(payload)
        t2 = now()
        opened = server.open(sealed)
        t3 = now()
        decoded = decode_request(decode_envelope(opened)[1])
        t4 = now()
        before = read_stages()
        t5 = now()
        response = execute_request(store, decoded)
        t6 = now()
        after = read_stages()
        t7 = now()
        out = encode_response(response)
        t8 = now()
        sealed = server.seal(out)
        t9 = now()
        opened = client.open(sealed)
        t10 = now()
        decode_response(opened)
        t11 = now()
        add("net.message.codec", t0, t1, root, request)
        add("net.message.channel", t1, t2, root, request)
        add("net.message.channel", t2, t3, root, request)
        add("net.message.codec", t3, t4, root, request)
        execute = add("net.server.execute", t5, t6, root, request)
        _add_stage_spans(tracer, spec, before, after, execute, t5, request)
        add("net.message.codec", t7, t8, root, request)
        add("net.message.channel", t8, t9, root, request)
        add("net.message.channel", t9, t10, root, request)
        add("net.message.codec", t10, t11, root, request)
        # The root covers the chain only, not the stage reads around
        # execute_request (a worker broadcast in pool mode).
        chain = (t4 - t0) + (t6 - t5) + (t11 - t7)
        tracer.spans[root][1:3] = [t0, t0 + chain]
        seconds[kind].append(chain)
    return seconds


# -- timed calls into public functions -----------------------------------------

def time_call(fn: Callable[[], object], reps: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the mean microseconds of ``reps`` calls."""
    means = []
    for _ in range(rounds):
        start = now()
        for _ in range(reps):
            fn()
        means.append((now() - start) / reps * 1e6)
    return statistics.median(means)


# -- the reference loop ---------------------------------------------------------

REFERENCE_S = 0.005   # one reference loop on this host in a quiet spell


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: bytes) -> None:
        self.key, self.value = key, value


_CELLS = {b"key%013d" % i: _Cell(b"key%013d" % i, bytes(128)) for i in range(4096)}
_CELL_KEYS = list(_CELLS)


def reference_s(settle_s: float = 0.002) -> float:
    """Seconds one fixed loop of the benchmark's own takes right now.

    The loop does what the program does per request — dict and attribute
    lookups, bytearray slicing, ``struct``, a short SHA-256 and a
    constant-time compare — but calls nothing under ``src/``, so only
    the host can change its speed.  Timed between segments, it tells how
    much slower than ``REFERENCE_S`` the host ran the segment.

    One pass, on caches the segment left cold: that is what follows the
    program's own slow-down most closely (a second, warm pass, a tight
    hashlib spin or an arithmetic loop feel the host's contention far
    less than the program does).  The sleep first lets a server finish
    what it was doing and go to sleep, so the pass times the host and
    not the server: the two pool workers of ``tcp-batch-a`` stay busy for
    some 8 ms after the last reply, hence that scenario's longer one.
    """
    time.sleep(settle_s)
    cells, keys = _CELLS, _CELL_KEYS
    prefix = b"k" * 32
    matched = 0
    start = now()
    for j in range(3000):
        cell = cells[keys[(j * 2654435761) % 4096]]
        buffer = bytearray(cell.value)
        buffer[0:8] = struct.pack("<Q", j)
        digest = hashlib.sha256(prefix + bytes(buffer[:64])).digest()
        if hmac.compare_digest(digest[:16], cell.key):
            matched += 1
        matched += len(cell.key) + digest[0]
    return now() - start


def calib_ms() -> float:
    """A fixed spin, half interpreter loop and half hashlib, run before
    and after a workload: tells machine drift from program change."""
    block = bytes(1 << 20)
    start = now()
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) & 0xFFFF
    for _ in range(12):
        hashlib.sha256(block).digest()
    return (now() - start) * 1e3


def crypto_entry_us() -> Tuple[float, float]:
    """(seal, open) microseconds of one 16 B key + 128 B value entry."""
    suite = make_suite("fast-hashlib", b"\x44" * 16, b"\x55" * 16)
    iv = bytes(16)
    plain = bytes(16 + 128)
    trailer = bytes(25)   # sizes, hint and IV the entry MAC also covers
    sealed = suite.encrypt(iv, plain)
    tag = suite.mac(sealed + trailer)

    def seal():
        suite.mac(suite.encrypt(iv, plain) + trailer)

    def open_():
        suite.verify(sealed + trailer, tag)
        suite.decrypt(iv, sealed)

    return time_call(seal, 2000), time_call(open_, 2000)


def sim_access_us() -> float:
    """Host microseconds one charged 64-byte read costs in the simulator."""
    machine = Machine()
    ctx = machine.context()
    addr = machine.memory.alloc(4096)
    memory = machine.memory
    return time_call(lambda: memory.read(ctx, addr, 64), 5000)


def route_us(master_secret: bytes) -> float:
    store = PartitionedShieldStore(
        shield_opt(64, 32), master_secret=master_secret,
        mode="sequential", num_partitions=2,
    )
    key = b"k" + b"0" * 15
    return time_call(lambda: store.partition_index_of(key), 5000)


def wal_append_us(directory: str, master_secret: bytes, sync_ms: float) -> float:
    """Microseconds per ``WriteAheadLog.append`` under the same
    group-commit policy as the served log (its fsyncs included)."""
    wal = WriteAheadLog(directory, 0, master_secret, "fast-hashlib", 0, sync_ms=sync_ms)
    request = Request("set", b"k" + b"0" * 15, bytes(128))
    try:
        return time_call(lambda: wal.append(request), 400)
    finally:
        wal.close()


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q``, or None with fewer than ten samples beyond it."""
    if len(values) * (1 - q) < 10:
        return None
    return percentile(sorted(values), q)
