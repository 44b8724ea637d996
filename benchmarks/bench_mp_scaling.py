"""Wall-clock scaling curve for the process-parallel partition engine.

Drives the same seeded YCSB-B mix as ``bench_batch_pipeline.py``
(95% read / 5% update, zipfian 0.99 — the paper's RD95_Z) through:

* ``single-process batched`` — the in-process batched pipeline on a
  4-partition store (the ``batched`` row of BENCH_batch_pipeline.json);
* ``N process workers`` for N in 1/2/4/8 — the shared-nothing
  :class:`~repro.core.procpool.ProcessPartitionPool` engine, one
  long-lived worker process per partition — measured on **both data
  planes**: ``pipe`` (portable length-prefixed pipe frames) and ``shm``
  (sealed shared-memory rings, the HotCalls-style switchless crossing).

Every process point also records the **per-stage breakdown** of where
the round trip went: ``serialize_s`` (parent-side sealing + codec),
``ipc_wait_s`` (parent blocked on the plane) and ``worker_compute_s``
(the workers' own request clocks), plus the ring counters for the shm
plane (frames, bytes, doorbell activity, peak occupancy).

Each point is measured twice — with the enclave-resident verified-MAC
cache off and on (sized to the working set; per-worker caches need no
cross-process coherence because partitions are disjoint) — and carries
the store-side ``op_stages`` wall split (chain walk / per-entry MAC
crypto / set gather+verify) so the JSON shows the verification time the
cache removes at every worker count.

Total store geometry (buckets, MAC hashes) is held constant across the
worker counts — partitions divide the structure, they don't grow it —
so the curve isolates parallel speedup from capacity effects.

Scaling is bounded by physical cores: worker counts above ``cpus``
measure IPC overhead, not parallel speedup, and the run says so loudly
(stderr warning + a structured ``cpu_warning`` object in the JSON).

Results land in ``BENCH_mp_scaling.json`` (override with ``--out``).
Run ``python benchmarks/bench_mp_scaling.py`` for the full measurement
or ``--quick`` for the CI-sized variant.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    MODE_PROCESSES,
    PartitionedShieldStore,
    StoreStats,
    process_mode_supported,
    shield_opt,
)
from repro.core.procpool import DATA_PLANES, default_data_plane
from repro.core.shmring import shm_supported
from repro.sim import Machine
from repro.util import usable_cpus
from repro.workloads import SMALL, OperationStream, workload

_BASE_PARTITIONS = 4


def _geometry(pairs: int):
    # Same shape as bench_batch_pipeline: few MAC hashes -> wide MAC
    # sets, the regime where batched once-per-set verification pays off.
    return max(_BASE_PARTITIONS * 64, pairs // 2), _BASE_PARTITIONS * 4


def _mac_cache_budget(pairs: int) -> int:
    # Working-set-sized budget, as in bench_batch_pipeline: one 16 B MAC
    # per resident pair plus bookkeeping, rounded up generously.
    return max(256 * 1024, pairs * 64)


def _build_single(pairs: int, mac_cache_bytes: int = 0) -> PartitionedShieldStore:
    buckets, hashes = _geometry(pairs)
    machine = Machine(num_threads=_BASE_PARTITIONS)
    return PartitionedShieldStore(
        shield_opt(
            num_buckets=buckets,
            num_mac_hashes=hashes,
            mac_cache_bytes=mac_cache_bytes,
        ),
        machine=machine,
    )


def _build_procs(
    workers: int, pairs: int, plane: str, mac_cache_bytes: int = 0
) -> PartitionedShieldStore:
    buckets, hashes = _geometry(pairs)
    return PartitionedShieldStore(
        shield_opt(
            num_buckets=buckets,
            num_mac_hashes=hashes,
            mac_cache_bytes=mac_cache_bytes,
        ),
        num_partitions=workers,
        mode=MODE_PROCESSES,
        data_plane=plane,
    )


def _ops_list(pairs: int, ops: int, seed: int):
    stream = OperationStream(workload("RD95_Z"), SMALL, pairs, seed=seed)
    return stream, list(stream.operations(ops))


def _run_batched(store, ops, batch_size: int) -> float:
    start = time.perf_counter()
    for base in range(0, len(ops), batch_size):
        batch = ops[base : base + batch_size]
        writes = [(op.key, op.value) for op in batch if op.op != "get"]
        reads = [op.key for op in batch if op.op == "get"]
        if writes:
            store.multi_set(writes)
        if reads:
            store.multi_get(reads)
    return time.perf_counter() - start


def _measure(store, label: str, pairs: int, ops: int, batch: int, seed: int) -> dict:
    stream, op_list = _ops_list(pairs, ops, seed)
    store.multi_set([(op.key, op.value) for op in stream.load_operations()])
    wall = _run_batched(store, op_list, batch)
    stats = store.stats()
    result = {
        "label": label,
        "wall_s": round(wall, 4),
        "kops": round(len(op_list) / wall / 1000.0, 1),
        "batches": stats.batches,
        "batch_ops": stats.batch_ops,
        "set_verifications_saved": stats.batch_verifications_saved,
        "mac_cache_hits": stats.mac_cache_hits,
        "mac_cache_misses": stats.mac_cache_misses,
        "mac_cache_evictions": stats.mac_cache_evictions,
        # Store-side wall split (summed across workers); distinct from
        # the transport "stages" below, which time the IPC round trip.
        "op_stages": {
            "walk_s": round(stats.stage_walk_s, 4),
            "crypto_s": round(stats.stage_crypto_s, 4),
            "verify_s": round(stats.stage_verify_s, 4),
        },
    }
    stages = store.stage_timings()
    if stages is not None:
        # Where the round trip went: parent-side sealing/codec, parent
        # blocked on the crossing, and the workers' own request clocks.
        result["stages"] = {k: round(v, 4) for k, v in sorted(stages.items())}
    if stats.ring_frames:
        result["transport"] = {
            name: getattr(stats, name) for name in sorted(StoreStats.varying("plane"))
        }
    store.close()
    return result


def run(pairs: int, ops: int, batch_size: int, seed: int, worker_counts,
        planes) -> dict:
    cpus = usable_cpus()
    budget = _mac_cache_budget(pairs)
    baselines = {}
    for cache_on in (False, True):
        suffix = "+maccache" if cache_on else ""
        baselines[cache_on] = _measure(
            _build_single(pairs, budget if cache_on else 0),
            f"single-process batched{suffix}",
            pairs, ops, batch_size, seed,
        )
        print(f"{baselines[cache_on]['label']:34s} "
              f"{baselines[cache_on]['wall_s']:8.3f} s  "
              f"{baselines[cache_on]['kops']:8.1f} Kop/s")
    baseline = baselines[False]
    points = []
    for workers in worker_counts:
        for plane in planes:
            pair_points = {}
            for cache_on in (False, True):
                suffix = ", maccache" if cache_on else ""
                point = _measure(
                    _build_procs(
                        workers, pairs, plane, budget if cache_on else 0
                    ),
                    f"{workers} process workers [{plane}{suffix}]",
                    pairs, ops, batch_size, seed,
                )
                point["workers"] = workers
                point["data_plane"] = plane
                point["mac_cache"] = cache_on
                point["speedup_vs_single"] = round(
                    baseline["wall_s"] / point["wall_s"], 2
                )
                pair_points[cache_on] = point
                points.append(point)
            # Cache-on vs cache-off at the same worker count and plane.
            pair_points[True]["speedup_maccache"] = round(
                pair_points[False]["wall_s"] / pair_points[True]["wall_s"], 2
            )
            for point in pair_points.values():
                stages = point.get("stages", {})
                breakdown = (
                    f"  [ser {stages.get('serialize_s', 0):.2f}"
                    f" ipc {stages.get('ipc_wait_s', 0):.2f}"
                    f" cpu {stages.get('worker_compute_s', 0):.2f}]"
                    if stages else ""
                )
                print(f"{point['label']:34s} {point['wall_s']:8.3f} s  "
                      f"{point['kops']:8.1f} Kop/s  "
                      f"({point['speedup_vs_single']:.2f}x vs single)"
                      + breakdown)
    notes = []
    cpu_warning = None
    oversubscribed = [w for w in worker_counts if w > cpus]
    if oversubscribed:
        cpu_warning = {
            "cpus": cpus,
            "oversubscribed_worker_counts": oversubscribed,
            "message": (
                f"this process may run on {cpus} cpu(s); worker counts {oversubscribed} "
                "measure IPC overhead, not parallel speedup"
            ),
        }
        notes.append(cpu_warning["message"])
        print(f"warning: {cpu_warning['message']}", file=sys.stderr)
    return {
        "benchmark": "mp_scaling",
        "workload": "RD95_Z (YCSB-B: 95% read / 5% update, zipfian 0.99)",
        "config": {
            "pairs": pairs,
            "ops": ops,
            "batch_size": batch_size,
            "seed": seed,
            "worker_counts": list(worker_counts),
            "data_planes": list(planes),
            "default_data_plane": default_data_plane(),
            "mac_cache_bytes": budget,
        },
        "cpus": cpus,
        "cpu_warning": cpu_warning,
        "baseline": baseline,
        "baseline_maccache": baselines[True],
        "workers": points,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=20000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--data-planes", nargs="+", choices=list(DATA_PLANES),
                        default=None,
                        help="planes to measure (default: pipe and, where "
                             "supported, shm)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer pairs/ops, workers 1+2)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs, args.ops, args.workers = 1000, 4000, [1, 2]
    if args.data_planes is None:
        args.data_planes = ["pipe"] + (["shm"] if shm_supported() else [])

    if not process_mode_supported():
        print("process mode unsupported on this platform; nothing to measure")
        return 0

    report = run(args.pairs, args.ops, args.batch_size, args.seed,
                 args.workers, args.data_planes)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_mp_scaling.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
