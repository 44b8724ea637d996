"""The separate traced run: every per-layer metric of one workload.

End-to-end metrics are measured with tracing off (``harness.py``).  This
run sets up once and then, in order: reads the program's own counters
around untraced segments; records spans around every request of one
traced segment; drives those same requests through the layered replay;
runs the open-loop phase (served workloads); and times calls into public
functions of the layers the workload crosses.  A layer the workload does
not cross reports 0.
"""

from __future__ import annotations

import os
import shutil
import statistics
from typing import Dict, List

from repro.net.sessions import AttestationService
from repro.net.tcp import TCPShieldClient

import gen
import harness
import layers
import procstat
import scenarios
from gen import GET, MGET, MSET, SET
from layers import now


TRACED_SEGMENT_FACTOR = 5   # the traced segment is this many measured ones


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after
            if isinstance(after[k], (int, float)) and k in before}


def _dir_bytes(directory) -> int:
    if directory is None or not os.path.isdir(directory):
        return 0
    return sum(os.path.getsize(os.path.join(directory, f))
               for f in os.listdir(directory))


def _sim_ledger(machine) -> dict:
    return {"cycles": machine.clock.elapsed_cycles(), **machine.counters.snapshot()}


def first_segment(rig: harness.Rig, m: Dict[str, float]) -> harness.Segment:
    """The first measured segment, with the figures that repeat exactly
    for a seed read around it: the simulated ledger (embedded only),
    chain steps, and log bytes per user byte."""
    lists = rig.generate(rig.sc.segment_ops)
    machine = rig.store.machine if rig.store is not None else None
    if machine is not None:
        m["sim.stored_bytes_per_user_byte"] = (
            sum(machine.memory.bytes_allocated.values()) / rig.dataset.user_bytes())
        ledger = _sim_ledger(machine)
    steps = rig.counters()["store"]["chain_steps"]
    log_bytes = _dir_bytes(rig.wal_dir)
    segment = rig.segment(lists)
    keys = segment.keys
    m["core.store.chain_steps_per_op"] = (
        rig.counters()["store"]["chain_steps"] - steps) / keys
    if rig.wal_dir is not None:
        user_bytes = sum(len(op[3]) + len(op[4])
                         for ops in lists for op in ops if op[0] == SET)
        m["core.wal.bytes_per_user_byte"] = (
            _dir_bytes(rig.wal_dir) - log_bytes) / user_bytes
    if machine is not None:
        sim = _delta(_sim_ledger(machine), ledger)
        m["sim.cycles_per_op"] = sim["cycles"] / keys
        m["sim.ops_per_s"] = keys / (machine.cost.cycles_to_us(sim["cycles"]) / 1e6)
        m["sim.mem_accesses_per_op"] = (sim["mem_reads"] + sim["mem_writes"]) / keys
        m["sim.epc_faults_per_op"] = sim["epc_faults"] / keys
        m["sim.crypto_cycles_per_op"] = sim["crypto_cycles"] / keys
        m["sim.crossing_cycles_per_op"] = sim["crossing_cycles"] / keys
    return segment


def counter_metrics(m: Dict[str, float], before: dict, after: dict,
                    segments: List[harness.Segment]) -> None:
    """Per-layer figures from the program's own counters over the
    untraced segments (StoreStats, TransportStats, pool stage timings)."""
    store = _delta(after["store"], before["store"])
    transport = _delta(after["transport"], before["transport"])
    keys = sum(s.keys for s in segments)
    requests = sum(s.attempted for s in segments)
    for stage in ("walk", "crypto", "verify"):
        m[f"core.store.{stage}_us_per_op"] = store[f"stage_{stage}_s"] / keys * 1e6
    m["core.store.search_decryptions_per_op"] = store["search_decryptions"] / keys
    m["core.store.integrity_checks_per_op"] = store["integrity_checks"] / keys
    m["core.store.batch_verifications_saved_per_key"] = (
        store["batch_verifications_saved"] / keys)
    lookups = store["mac_cache_hits"] + store["mac_cache_misses"]
    if lookups:
        m["core.maccache.hit_ratio"] = store["mac_cache_hits"] / lookups
        m["core.maccache.evictions_per_kop"] = store["mac_cache_evictions"] / keys * 1e3
    if after["stages"]:
        stages = _delta(after["stages"], before["stages"])
        for stage in ("serialize", "ipc_wait", "worker_compute"):
            m[f"core.procpool.{stage}_us_per_batch"] = (
                stages[f"{stage}_s"] / requests * 1e6)
        m["core.procpool.ring_bytes_per_key"] = transport["ring_bytes"] / keys
        m["core.procpool.doorbell_waits_per_batch"] = (
            transport["ring_doorbell_waits"] / requests)
        m["core.procpool.ring_full_waits"] = transport["ring_full_waits"]
    if store["wal_appends"]:
        m["core.wal.fsyncs_per_op"] = store["wal_fsyncs"] / store["wal_appends"]
    m["net.tcp.busy_sheds"] = transport.get("busy_sheds", 0)
    m["loadgen.cpu_us_per_op"] = sum(s.loadgen_cpu_s for s in segments) / keys * 1e6
    m["loadgen.drift_ratio"] = segments[-1].ops_per_s / segments[0].ops_per_s
    reads = [x for s in segments for x in s.reads]
    writes = [x for s in segments for x in s.writes]
    for name, sample, q in (("tail.get_p90_us", reads, 0.90),
                            ("tail.get_p99_us", reads, 0.99),
                            ("tail.get_p999_us", reads, 0.999),
                            ("tail.set_p99_us", writes, 0.99)):
        value = layers.tail_percentile(sample, q)
        if value is not None:
            m[name] = value * 1e6


def replay_metrics(rig: harness.Rig, m: Dict[str, float], tracer: layers.Tracer,
                   requests: list, round_trip_p50_s: float) -> None:
    """Drive the traced segment's requests through the layered replay
    (in the server child, against the store that just served them) and
    split the chain by span name."""
    sc = rig.sc
    if rig.child is None:
        chain = layers.traced_direct(rig.store, requests, tracer, len(requests))
        m["core.store.get_us"] = statistics.median(chain[GET]) * 1e6
        m["core.store.set_us"] = statistics.median(chain[SET]) * 1e6
        return
    reply = rig.child.command("replay", ops=gen.encode_ops(requests))
    spans = reply["spans"]
    tracer.extend(spans, len(requests))
    own = layers.self_seconds(spans)
    keys = len(requests) * sc.batch
    m["net.message.codec_us_per_op"] = own["net.message.codec"] / keys * 1e6
    m["net.message.channel_us_per_op"] = own["net.message.channel"] / keys * 1e6
    read_kind, write_kind = (MGET, MSET) if sc.batch > 1 else (GET, SET)
    execute = {read_kind: [], write_kind: []}
    for name, start, end, _parent, request in spans:
        if name == "net.server.execute":
            execute[requests[request][0]].append(end - start)
    m["net.server.execute_us_per_op"] = (
        sum(sum(v) for v in execute.values()) / keys * 1e6)
    m["core.store.get_us"] = statistics.median(execute[read_kind]) * 1e6
    m["core.store.set_us"] = statistics.median(execute[write_kind]) * 1e6
    chain_p50_s = statistics.median(reply["seconds"][read_kind])
    m["net.tcp.self_us_per_op"] = (round_trip_p50_s - chain_p50_s) / sc.batch * 1e6


def paced_metrics(rig: harness.Rig, m: Dict[str, float], seconds: float) -> None:
    """Open loop at the scenario's fixed rate: latency from the due time."""
    sc = rig.sc
    requests = 64 if rig.smoke else max(int(sc.paced_rate * seconds), 64)
    paced = rig.segment(rig.generate(requests), rate=sc.paced_rate)
    latencies = paced.reads + paced.writes
    m["loadgen.late_max_ms"] = paced.late_max_s * 1e3
    if latencies:
        m["tail.paced_p50_us"] = layers.percentile(sorted(latencies), 0.5) * 1e6
    p99 = layers.tail_percentile(latencies, 0.99)
    if p99 is not None:
        m["tail.paced_p99_us"] = p99 * 1e6
    m["tail.paced_over_2ms_ratio"] = (
        sum(1 for x in latencies if x > 2e-3) + paced.failed) / paced.attempted


def connection_metrics(rig: harness.Rig, m: Dict[str, float]) -> None:
    service = AttestationService(scenarios.ATTESTATION_SECRET)
    handshakes = []
    for n in range(3):
        started = now()
        extra = TCPShieldClient(rig.child.address, service,
                                rig.child.measurement, bytes([0x60 + n]) * 32)
        handshakes.append((now() - started) * 1e3)
        extra.close()
    m["net.tcp.handshake_ms"] = statistics.median(handshakes)
    m["net.tcp.retries"] = sum(t.stats.net_retries for t in rig.targets)
    m["net.tcp.timeouts"] = sum(t.stats.net_timeouts for t in rig.targets)


def timed_call_metrics(rig: harness.Rig, m: Dict[str, float]) -> None:
    """Timed calls into public functions of the layers the workload crosses."""
    m["workloads.gen_us_per_op"] = statistics.median(rig.gen_us_per_op)
    m["crypto.seal_entry_us"], m["crypto.open_entry_us"] = layers.crypto_entry_us()
    m["sim.host_us_per_access"] = layers.sim_access_us()
    if rig.sc.store != "single":
        m["core.partition.route_us_per_key"] = layers.route_us(scenarios.MASTER_SECRET)
    if rig.wal_dir is not None:
        scratch = rig.wal_dir + "-scratch"
        try:
            m["core.wal.append_us"] = layers.wal_append_us(
                scratch, scenarios.MASTER_SECRET, scenarios.WAL_SYNC_MS)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def run_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    sc = scenarios.scenario(name, smoke)
    steal = procstat.StealMeter()
    m: Dict[str, float] = {"loadgen.calib_ms": layers.calib_ms()}
    tracer = layers.Tracer()
    rig = harness.Rig(sc, seed, smoke, tag="trace")
    try:
        before = rig.counters()
        before_s = rig.reference_s()
        first = first_segment(rig, m)
        first.slowdown = harness.slowdown(before_s, rig.reference_s())
        untraced = [first] + harness.measure_segments(rig, seconds * 0.3, minimum=1)
        counter_metrics(m, before, rig.counters(), untraced)

        m["loadgen.slowdown"] = statistics.median(s.slowdown for s in untraced)
        m["loadgen.raw_ops_per_s"] = statistics.median(s.ops_per_s for s in untraced)
        lists = rig.generate(sc.segment_ops * TRACED_SEGMENT_FACTOR)
        before_s = rig.reference_s()
        traced = rig.segment(lists, tracer=tracer)
        traced.slowdown = harness.slowdown(before_s, rig.reference_s())
        m["loadgen.trace_overhead_ratio"] = (
            traced.ops_per_s * traced.slowdown
            / statistics.median(s.ops_per_s * s.slowdown for s in untraced))
        replay_metrics(rig, m, tracer, [op for ops in lists for op in ops],
                       statistics.median(traced.reads))
        if sc.served:
            paced_metrics(rig, m, seconds * 0.3)
            connection_metrics(rig, m)
        timed_call_metrics(rig, m)
        lost = 0
        if sc.store == "wal":
            recovery = rig.crash_and_recover()
            lost = recovery["acked_writes_lost"]
            m["core.wal.recovery_s"] = recovery["recovery_s"]
            m["core.wal.acked_writes_lost"] = lost
            m["core.wal.replay_ops_per_s"] = recovery["replayed"] / recovery["replay_s"]
        elif not sc.served:
            rig.audit()
    finally:
        rig.close()
    m["loadgen.steal_ratio"] = steal.ratio()
    trace_path = os.path.join(harness.OUT_DIR, f"trace-{name}.json")
    tracer.dump(trace_path, {"workload": name, "seed": seed})
    return {
        "correct": rig.failed == 0 and lost == 0,
        "attempted": rig.attempted,
        "failed": rig.failed,
        "metrics": m,
        "detail": {
            "spans": len(tracer.spans),
            "trace_file": os.path.relpath(trace_path),
            "untraced_segments": len(untraced),
            "calib_ms": [m["loadgen.calib_ms"], layers.calib_ms()],
        },
    }
