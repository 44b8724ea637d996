"""Suite runner: preload once per (system, data, threads), sweep workloads.

Figures 10, 11, 13 and 18 all measure the same grid — systems x data
sizes x thread counts x Table 2 workloads — so this module builds
each store once and replays every workload against it, resetting the
measurement clocks in between (the paper preloads 10M pairs once per
configuration too).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import UnsupportedConfigError
from repro.experiments.common import (
    DEFAULT_OPS,
    DEFAULT_SCALE,
    PAPER_PAIRS,
    SEED,
    RunResult,
    build_system,
    make_machine,
    preload,
    run_workload,
    scaled,
)
from repro.workloads import DataSpec, OperationStream, WorkloadSpec

Key = Tuple[str, str, int, str]  # (system, data, threads, workload)


def run_suite(
    systems: Sequence[str],
    data_specs: Sequence[DataSpec],
    thread_counts: Sequence[int],
    workloads: Sequence[WorkloadSpec],
    scale: float = DEFAULT_SCALE,
    ops: int = DEFAULT_OPS,
    pairs: Optional[int] = None,
    seed: int = SEED,
    system_kwargs: Optional[dict] = None,
) -> Dict[Key, RunResult]:
    """Measure every grid cell; returns results keyed by cell."""
    num_pairs = pairs if pairs is not None else scaled(PAPER_PAIRS, scale)
    results: Dict[Key, RunResult] = {}
    for system_name in systems:
        for data in data_specs:
            for threads in thread_counts:
                machine = make_machine(threads, scale, seed=seed)
                kwargs = (system_kwargs or {}).get(system_name, {})
                try:
                    system = build_system(system_name, machine, scale, **kwargs)
                    load_stream = OperationStream(
                        workloads[0], data, num_pairs, seed=seed
                    )
                    preload(system, load_stream)
                except UnsupportedConfigError:
                    for spec in workloads:
                        results[(system_name, data.name, threads, spec.name)] = None
                    continue
                for spec in workloads:
                    stream = OperationStream(spec, data, num_pairs, seed=seed + 13)
                    results[
                        (system_name, data.name, threads, spec.name)
                    ] = run_workload(
                        system, system_name, stream, ops, data_name=data.name
                    )
    return results


def average_kops(
    results: Dict[Key, RunResult],
    system: str,
    data: str,
    threads: int,
    workloads: Iterable[WorkloadSpec],
) -> float:
    """Arithmetic-mean Kop/s across workloads (how Fig. 10 aggregates)."""
    values = []
    for spec in workloads:
        result = results.get((system, data, threads, spec.name))
        if result is not None:
            values.append(result.kops)
    return sum(values) / len(values) if values else 0.0
