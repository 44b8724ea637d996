"""Names, units, directions and bounds of every shieldbench metric.

``manifest()`` is the content of the repository's ``BENCHMARK.json``;
``selftest.py`` fails when the file and these tables disagree.

End-to-end metrics are host wall-clock (the served system's ledger) at
reference speed (README "Reference speed") and every workload reports
every one of them.  Per-layer metrics are named
``<module>.<what>``; one reads 0 on a workload that does not cross that
layer, or whose sample is too small for it.  All ``*_per_op`` figures
are per key (a 64-key batch is 64 ops); ``*_per_batch`` and the latency
percentiles are per request.
"""

from __future__ import annotations

from scenarios import SCENARIOS

RUN_SECONDS = 15

LOWER, HIGHER = "lower", "higher"

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", LOWER, 0.25),
    ("ops_per_s", "1/s", HIGHER, 0.25),
    ("get_p50_us", "us", LOWER, 0.25),
    ("set_p50_us", "us", LOWER, 0.25),
    ("server_cpu_us_per_op", "us", LOWER, 0.25),
    ("peak_rss_mb", "MiB", LOWER, 0.05),
)

PER_LAYER = (
    ("workloads.gen_us_per_op", "us", LOWER),
    ("crypto.seal_entry_us", "us", LOWER),
    ("crypto.open_entry_us", "us", LOWER),
    # Simulated ledger: exact for a seed, reported on embedded-b only.
    ("sim.ops_per_s", "1/s", HIGHER),
    ("sim.stored_bytes_per_user_byte", "ratio", LOWER),
    ("sim.cycles_per_op", "cycles", LOWER),
    ("sim.mem_accesses_per_op", "count", LOWER),
    ("sim.epc_faults_per_op", "count", LOWER),
    ("sim.crypto_cycles_per_op", "cycles", LOWER),
    ("sim.crossing_cycles_per_op", "cycles", LOWER),
    ("sim.host_us_per_access", "us", LOWER),
    ("core.store.get_us", "us", LOWER),
    ("core.store.set_us", "us", LOWER),
    ("core.store.walk_us_per_op", "us", LOWER),
    ("core.store.crypto_us_per_op", "us", LOWER),
    ("core.store.verify_us_per_op", "us", LOWER),
    ("core.store.chain_steps_per_op", "count", LOWER),
    ("core.store.search_decryptions_per_op", "count", LOWER),
    ("core.store.integrity_checks_per_op", "count", LOWER),
    ("core.store.batch_verifications_saved_per_key", "count", HIGHER),
    ("core.maccache.hit_ratio", "ratio", HIGHER),
    ("core.maccache.evictions_per_kop", "count", LOWER),
    ("core.partition.route_us_per_key", "us", LOWER),
    ("core.procpool.serialize_us_per_batch", "us", LOWER),
    ("core.procpool.ipc_wait_us_per_batch", "us", LOWER),
    ("core.procpool.worker_compute_us_per_batch", "us", LOWER),
    ("core.procpool.ring_bytes_per_key", "B", LOWER),
    ("core.procpool.doorbell_waits_per_batch", "count", LOWER),
    ("core.procpool.ring_full_waits", "count", LOWER),
    ("core.wal.append_us", "us", LOWER),
    ("core.wal.fsyncs_per_op", "count", LOWER),
    ("core.wal.bytes_per_user_byte", "ratio", LOWER),
    ("core.wal.replay_ops_per_s", "1/s", HIGHER),
    ("core.wal.recovery_s", "s", LOWER),
    ("core.wal.acked_writes_lost", "count", LOWER),
    ("net.message.codec_us_per_op", "us", LOWER),
    ("net.message.channel_us_per_op", "us", LOWER),
    ("net.server.execute_us_per_op", "us", LOWER),
    ("net.tcp.self_us_per_op", "us", LOWER),
    ("net.tcp.handshake_ms", "ms", LOWER),
    ("net.tcp.busy_sheds", "count", LOWER),
    ("net.tcp.retries", "count", LOWER),
    ("net.tcp.timeouts", "count", LOWER),
    # The benchmark itself: these qualify the others.
    ("loadgen.cpu_us_per_op", "us", LOWER),
    ("loadgen.late_max_ms", "ms", LOWER),
    ("loadgen.calib_ms", "ms", LOWER),
    ("loadgen.slowdown", "ratio", LOWER),
    ("loadgen.raw_ops_per_s", "1/s", HIGHER),
    ("loadgen.drift_ratio", "ratio", HIGHER),
    ("loadgen.trace_overhead_ratio", "ratio", HIGHER),
    ("loadgen.steal_ratio", "ratio", LOWER),
    # Recorded, never gated: tails differ 2-10x between identical runs
    # here, and the open-loop phase exists only on the served workloads.
    ("tail.get_p90_us", "us", LOWER),
    ("tail.get_p99_us", "us", LOWER),
    ("tail.get_p999_us", "us", LOWER),
    ("tail.set_p99_us", "us", LOWER),
    ("tail.paced_p50_us", "us", LOWER),
    ("tail.paced_p99_us", "us", LOWER),
    ("tail.paced_over_2ms_ratio", "ratio", LOWER),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/shieldbench/run.py"],
        "paths": ["benchmarks/shieldbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": sc.name, "why": sc.why} for sc in SCENARIOS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
