"""The four workloads of shieldbench and how each one's store is built.

Sizes are fixed operation counts per segment, never durations, so two
commits do identical work in every segment; ``--seconds`` only decides
how many segments a run measures.  A segment lasts a quarter of a second
or so: the reference loop timed on either side of it has to be close to
the work it scales.  Table geometry follows the paper's
ratios (0.8 buckets and 0.4 MAC hashes per pair).  README.md gives the
reasoning behind each workload and each constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core import PartitionedShieldStore, ShieldStore, shield_opt
from repro.workloads import RD50_Z, RD95_Z, WorkloadSpec

MASTER_SECRET = bytes(range(64, 96))
ATTESTATION_SECRET = b"shieldbench-attestation-secret"
WAL_SYNC_MS = 2.0          # `repro serve` default group-commit window
KIB = 1024

# durable-set: nine writes to one read, uniform — every key is rewritten
# about as often, so the log tail recovery replays is all live data; the
# reads check acknowledged writes while the server is still up.
WR90_U = WorkloadSpec(
    "WR90_U", "Write mostly (10:90)", 0.1, 0.9, distribution="uniform"
)


@dataclass(frozen=True)
class Scenario:
    name: str
    why: str
    store: str               # "single" | "processes" | "wal"
    served: bool             # behind TCPShieldServer in a child process
    pairs: int
    mix: WorkloadSpec
    connections: int
    segment_ops: int         # requests per measured segment, all connections
    warmup_ops: int          # discarded requests that end set-up
    batch: int               # keys per request (1 = single-key get/set)
    mac_cache_bytes: int
    paced_rate: int          # requests/s of the traced run's open-loop phase
    settle_s: float = 0.002  # idle before each timing of the reference loop


SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            name="embedded-b",
            why="in-process ShieldStore, YCSB-B, caches off: core.store, crypto "
                "and sim do all the work, net/procpool/wal none; the only "
                "simulated-ledger workload",
            store="single", served=False, pairs=16_000, mix=RD95_Z,
            connections=1, segment_ops=3_000, warmup_ops=4_000, batch=1,
            mac_cache_bytes=0, paced_rate=0,
        ),
        Scenario(
            name="tcp-point-b",
            why="served single-key YCSB-B on 2 connections, MAC cache fits: "
                "net.tcp and net.message are most of the cost, so a store-only "
                "gain should barely move it",
            store="single", served=True, pairs=16_000, mix=RD95_Z,
            connections=2, segment_ops=1_000, warmup_ops=1_000, batch=1,
            mac_cache_bytes=2 * KIB * KIB, paced_rate=1_000,
        ),
        Scenario(
            name="tcp-batch-a",
            why="served 64-key multi_get/multi_set YCSB-A over 2 shm workers, "
                "MAC cache too small: partition, procpool/shmring, batch path "
                "and cache eviction carry the time",
            store="processes", served=True, pairs=16_000, mix=RD50_Z,
            connections=1, segment_ops=24, warmup_ops=60, batch=64,
            mac_cache_bytes=64 * KIB, paced_rate=50, settle_s=0.010,
        ),
        Scenario(
            name="durable-set",
            why="served 90% set / 10% get, uniform, sealed WAL with 2 ms group "
                "commit, then SIGKILL and recovery: core.wal does most of the "
                "work here and none elsewhere",
            store="wal", served=True, pairs=4_000, mix=WR90_U,
            connections=2, segment_ops=600, warmup_ops=500, batch=1,
            mac_cache_bytes=0, paced_rate=400,
        ),
    )
}


def scenario(name: str, smoke: bool = False) -> Scenario:
    chosen = SCENARIOS[name]
    if smoke:
        # Self-test sizes: same shape, an eighth of the work.
        chosen = replace(
            chosen,
            pairs=chosen.pairs // 8,
            segment_ops=max(chosen.segment_ops // 8, 16),
            warmup_ops=max(chosen.warmup_ops // 8, 8),
            mac_cache_bytes=chosen.mac_cache_bytes // 8,
        )
    return chosen


def build_store(sc: Scenario, wal_dir: Optional[str] = None):
    """The store of a scenario, through the public constructors."""
    config = shield_opt(
        num_buckets=sc.pairs * 8 // 10,
        num_mac_hashes=sc.pairs * 4 // 10,
        suite_name="fast-hashlib",
        mac_cache_bytes=sc.mac_cache_bytes,
    )
    if sc.store == "single":
        return ShieldStore(config, master_secret=MASTER_SECRET)
    if sc.store == "processes":
        return PartitionedShieldStore(
            config, master_secret=MASTER_SECRET, mode="processes",
            num_partitions=2, data_plane="shm",
        )
    if sc.store == "wal":
        if wal_dir is None:
            raise ValueError("the wal scenario needs a wal_dir")
        return PartitionedShieldStore(
            config, master_secret=MASTER_SECRET, mode="sequential",
            num_partitions=1, wal_dir=wal_dir, wal_sync_ms=WAL_SYNC_MS,
        )
    raise ValueError(f"unknown store kind {sc.store!r}")


def load(store, dataset) -> None:
    for batch in dataset.load_batches():
        store.multi_set(batch)
