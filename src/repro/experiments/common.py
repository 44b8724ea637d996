"""Shared experiment harness: system registry, runner, table formatting.

Every table/figure module builds on three pieces:

* :func:`build_system` — construct any of the evaluated systems
  (Baseline, Memcached+Graphene, ShieldBase, ShieldOpt, Eleos, ...) on a
  scaled machine;
* :func:`preload` / :func:`run_workload` — replay a deterministic
  :class:`~repro.workloads.ycsb.OperationStream` against a system and
  measure *simulated* throughput (Kop/s of simulated wall time);
* :class:`TableResult` — the rows a bench prints, mirroring the paper's
  table/figure layout, with a ``paper`` column of expected values where
  the paper states them.

Scaling: ``scale`` shrinks pair counts and EPC capacity together
(DESIGN.md §2), so miss ratios and crossovers match the paper while runs
stay laptop-sized.  Benchmarks read ``REPRO_BENCH_SCALE`` /
``REPRO_BENCH_OPS`` to trade fidelity for speed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.baselines import (
    EleosStore,
    GrapheneMemcachedStore,
    InsecureStore,
    NaiveSgxStore,
)
from repro.core import (
    PartitionedShieldStore,
    ShieldStore,
    shield_base,
    shield_opt,
)
from repro.core.config import StoreConfig
from repro.sim.cycles import DEFAULT_COST_MODEL, MB
from repro.sim.enclave import Machine
from repro.workloads import (
    OP_APPEND,
    OP_GET,
    OP_RMW,
    OP_SET,
    OperationStream,
)

# Paper-scale structure sizes (§6.1/§6.2 defaults).
PAPER_BUCKETS = 8_000_000
PAPER_MAC_HASHES = 4_000_000
PAPER_PAIRS = 10_000_000

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.005"))
DEFAULT_OPS = int(os.environ.get("REPRO_BENCH_OPS", "3000"))
SEED = 2019


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale a paper-sized count, keeping at least ``minimum``."""
    return max(minimum, int(value * scale))


def make_machine(
    threads: int, scale: float, seed: int = SEED, llc_exponent: float = 0.5
) -> Machine:
    """A machine whose EPC/LLC are scaled to match scaled working sets.

    ``llc_exponent`` follows :meth:`CostModel.scaled`: 0.5 preserves
    zipfian LLC coverage for the workload suites; memory microbenchmarks
    that need working sets >> all caches pass 1.0.
    """
    return Machine(
        DEFAULT_COST_MODEL.scaled(scale, llc_exponent),
        num_threads=threads,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# system registry
# ---------------------------------------------------------------------------
SYSTEM_INSECURE = "insecure"
SYSTEM_BASELINE = "baseline"
SYSTEM_GRAPHENE = "memcached+graphene"
SYSTEM_SHIELDBASE = "shieldbase"
SYSTEM_SHIELDOPT = "shieldopt"
SYSTEM_SHIELDOPT_CACHE = "shieldopt+cache"
SYSTEM_ELEOS = "eleos"

ALL_KV_SYSTEMS = (
    SYSTEM_GRAPHENE,
    SYSTEM_BASELINE,
    SYSTEM_SHIELDBASE,
    SYSTEM_SHIELDOPT,
)


def shield_config(
    scale: float,
    optimized: bool = True,
    buckets: int = PAPER_BUCKETS,
    mac_hashes: int = PAPER_MAC_HASHES,
    **overrides,
) -> StoreConfig:
    """A paper-shaped ShieldStore config at the given scale."""
    nb = scaled(buckets, scale)
    nh = min(scaled(mac_hashes, scale), nb)
    factory = shield_opt if optimized else shield_base
    return factory(num_buckets=nb, num_mac_hashes=nh, scale=scale, **overrides)


def build_system(
    name: str,
    machine: Machine,
    scale: float,
    config: Optional[StoreConfig] = None,
    standalone: bool = True,
    **kwargs,
):
    """Instantiate a named system on ``machine`` at ``scale``.

    ``standalone=True`` wraps enclave-hosted systems with the
    per-request :class:`EcallFrontend` (the networked experiments use
    :mod:`repro.net` front-ends instead and pass ``standalone=False``).
    """
    threads = machine.clock.num_threads
    plain_buckets = scaled(PAPER_BUCKETS, scale)
    if name == SYSTEM_INSECURE:
        return InsecureStore(machine, num_buckets=plain_buckets, **kwargs)
    if name == SYSTEM_BASELINE:
        system = NaiveSgxStore(machine, num_buckets=plain_buckets, **kwargs)
    elif name == SYSTEM_GRAPHENE:
        system = GrapheneMemcachedStore(machine, num_buckets=plain_buckets, **kwargs)
    elif name == SYSTEM_ELEOS:
        kwargs.setdefault("pool_limit_bytes", int(2 * 1024 * MB * scale))
        system = EleosStore(machine, **kwargs)
    elif name in (SYSTEM_SHIELDBASE, SYSTEM_SHIELDOPT, SYSTEM_SHIELDOPT_CACHE):
        if config is None:
            config = shield_config(scale, optimized=name != SYSTEM_SHIELDBASE)
        if name == SYSTEM_SHIELDOPT_CACHE and config.cache_bytes == 0:
            cache = max(64 * 1024, int(machine.cost.epc_effective_bytes * 0.5))
            config = config.with_(cache_bytes=cache)
        if threads > 1:
            system = PartitionedShieldStore(config, machine=machine)
        else:
            system = ShieldStore(config, machine=machine)
    else:
        raise ValueError(f"unknown system {name!r}")
    return EcallFrontend(system) if standalone else system


# ---------------------------------------------------------------------------
# running workloads
# ---------------------------------------------------------------------------
class EcallFrontend:
    """Per-request enclave entry for standalone runs.

    The paper's standalone harness generates requests in the untrusted
    server loop; each request enters the enclave through an ECALL
    (~8,000 cycles, §2.2).  Enclave-hosted systems (Baseline, Graphene,
    ShieldStore) are wrapped with this; the insecure store is not.
    """

    def __init__(self, system):
        self.system = system
        self.machine = system.machine

    def _cross(self, key: bytes) -> None:
        thread = serving_thread(self.system, key)
        self.machine.clock.threads[thread].charge(self.machine.cost.ecall_cycles)
        self.machine.counters.ecalls += 1
        self.machine.counters.crossing_cycles += self.machine.cost.ecall_cycles

    def get(self, key: bytes) -> bytes:
        self._cross(key)
        return self.system.get(key)

    def set(self, key: bytes, value: bytes) -> None:
        self._cross(key)
        self.system.set(key, value)

    def append(self, key: bytes, suffix: bytes) -> bytes:
        self._cross(key)
        return self.system.append(key, suffix)

    def delete(self, key: bytes) -> None:
        self._cross(key)
        self.system.delete(key)

    def increment(self, key: bytes, delta: int = 1) -> int:
        self._cross(key)
        return self.system.increment(key, delta)

    def contains(self, key: bytes) -> bool:
        self._cross(key)
        return self.system.contains(key)

    def __len__(self) -> int:
        return len(self.system)


def serving_thread(system, key: bytes) -> int:
    """Which simulated thread serves ``key`` on ``system``."""
    from repro.util import fnv1a

    if isinstance(system, EcallFrontend):
        return serving_thread(system.system, key)
    if isinstance(system, PartitionedShieldStore):
        # Works in every mode, including processes (where the partition
        # store itself lives in a worker and cannot be handed out).
        return system.partition_index_of(bytes(key))
    if isinstance(system, ShieldStore):
        return system.thread_id
    return fnv1a(bytes(key)) % system.machine.clock.num_threads


@dataclass
class RunResult:
    """Throughput measurement of one (system, workload, data) cell."""

    system: str
    workload: str
    data: str
    threads: int
    ops: int
    elapsed_us: float
    counters: dict = field(default_factory=dict)

    @property
    def kops(self) -> float:
        """Simulated throughput in Kop/s."""
        if self.elapsed_us <= 0:
            return float("inf")
        return self.ops / self.elapsed_us * 1000.0


def preload(system, stream: OperationStream) -> None:
    """Insert the data set (not part of the measurement)."""
    for op in stream.load_operations():
        system.set(op.key, op.value)


def _dispatch(system, op) -> None:
    if op.op == OP_GET:
        system.get(op.key)
    elif op.op == OP_SET:
        system.set(op.key, op.value)
    elif op.op == OP_APPEND:
        system.append(op.key, op.value)
    elif op.op == OP_RMW:
        system.get(op.key)
        system.set(op.key, op.value)
    else:
        raise ValueError(f"unknown operation {op.op!r}")


def run_workload(
    system,
    system_name: str,
    stream: OperationStream,
    num_ops: int,
    data_name: str = "",
    scheduler=None,
    warmup: Optional[int] = None,
) -> RunResult:
    """Replay ``num_ops`` requests and measure simulated throughput.

    ``warmup`` requests (default: equal to ``num_ops``) run first,
    unmeasured, so the EPC residency reaches the workload's steady state
    — the preload phase leaves it full of recently-inserted pages, not
    the workload-hot ones.  ``scheduler`` is an optional
    :class:`~repro.core.persistence.SnapshotScheduler` ticked per op.
    """
    machine: Machine = system.machine
    if warmup is None:
        warmup = num_ops
    for op in stream.operations(warmup):
        _dispatch(system, op)
    machine.reset_measurement()
    executed = 0
    for op in stream.operations(num_ops):
        _dispatch(system, op)
        executed += 1
        if scheduler is not None:
            scheduler.tick(is_write=op.op != OP_GET)
    return RunResult(
        system=system_name,
        workload=stream.spec.name,
        data=data_name,
        threads=machine.clock.num_threads,
        ops=executed,
        elapsed_us=machine.clock.elapsed_cycles() / (machine.cost.freq_ghz * 1000.0),
        counters=machine.counters.snapshot(),
    )


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------
@dataclass
class TableResult:
    """A printable reproduction of one paper table/figure."""

    experiment: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        """Render an aligned ASCII table."""
        str_rows = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> List:
        """Extract one column by header name (for assertions)."""
        idx = list(self.headers).index(header)
        return [row[idx] for row in self.rows]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    if cell is None:
        return "-"
    return str(cell)
