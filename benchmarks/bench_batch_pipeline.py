"""Wall-clock benchmark for the batched write pipeline + partition router.

Unlike the ``bench_fig*`` suites (which report *simulated* cycles), this
script measures real interpreter wall-clock for the three ways of
driving a 4-partition store through a YCSB-B style mix (95% read / 5%
update, zipfian 0.99 — the paper's RD95_Z):

* ``sequential``        — one ``get``/``set`` call per operation;
* ``batched``           — operations grouped into ``multi_get`` /
  ``multi_set`` batches so every touched MAC set is verified once and
  its hash recomputed once per batch;
* ``batched+maccache``  — the same batches with the enclave-resident
  verified-MAC cache sized to hold the working set, so point reads
  verify in O(1) against the in-enclave copy instead of regathering
  and rehashing the covering set (``speedup_maccache`` compares this
  against ``batched``, the cache-off baseline).

Each mode also reports the wall-clock stage split (chain walk /
per-entry MAC crypto / set gather+verify) so the JSON shows *where*
the MAC cache removes time, plus its hit/miss/eviction counters.

The workload is seeded, so the operation sequence and all amortization
counters in the emitted JSON are deterministic; only the ``wall_s`` /
``kops`` timing fields vary run to run.  Results land in
``BENCH_batch_pipeline.json`` (override with ``--out``).

Run ``python benchmarks/bench_batch_pipeline.py`` for the full
measurement or ``--quick`` for the CI-sized variant.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import PartitionedShieldStore, shield_opt
from repro.sim import Machine
from repro.workloads import SMALL, OperationStream, workload

_THREADS = 4


def _build_store(pairs: int, mac_cache_bytes: int = 0) -> PartitionedShieldStore:
    # A small mac-hash count keeps in-enclave state tiny but makes each
    # MAC set span many buckets (the Fig. 15 trade-off), so a single op
    # pays a wide set verification — the regime where once-per-batch
    # verification, deferred set updates and the verified-MAC cache
    # pay off.
    machine = Machine(num_threads=_THREADS)
    return PartitionedShieldStore(
        shield_opt(
            num_buckets=max(_THREADS * 64, pairs // 2),
            num_mac_hashes=_THREADS * 4,
            mac_cache_bytes=mac_cache_bytes,
        ),
        machine=machine,
    )


def _load(store: PartitionedShieldStore, stream: OperationStream) -> None:
    items = [(op.key, op.value) for op in stream.load_operations()]
    store.multi_set(items)


def _ops_list(pairs: int, ops: int, seed: int):
    stream = OperationStream(workload("RD95_Z"), SMALL, pairs, seed=seed)
    return stream, list(stream.operations(ops))


def _run_sequential(store, ops) -> float:
    start = time.perf_counter()
    for op in ops:
        if op.op == "get":
            store.get(op.key)
        else:
            store.set(op.key, op.value)
    return time.perf_counter() - start


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


def _mac_cache_budget(pairs: int) -> int:
    # Size the cache to hold the whole working set's MAC lists: one MAC
    # (16 B) per resident pair plus per-bucket/per-set bookkeeping,
    # rounded up generously — the point of the on/off comparison is the
    # all-hits regime (paper Fig. 15's "enough EPC" end).
    return max(256 * 1024, pairs * 64)


def _measure(mode: str, pairs: int, ops: int, batch_size: int, seed: int) -> dict:
    mac_cache_bytes = _mac_cache_budget(pairs) if "maccache" in mode else 0
    store = _build_store(pairs, mac_cache_bytes)
    stream, op_list = _ops_list(pairs, ops, seed)
    _load(store, stream)
    if mode == "sequential":
        wall = _run_sequential(store, op_list)
    else:
        wall = _run_batched(store, op_list, batch_size)
    stats = store.stats()
    reads = sum(1 for op in op_list if op.op == "get")
    result = {
        "mode": mode,
        "wall_s": round(wall, 4),
        "kops": round(len(op_list) / wall / 1000.0, 1),
        "reads": reads,
        "batches": stats.batches,
        "batch_ops": stats.batch_ops,
        "set_verifications_saved": stats.batch_verifications_saved,
        "set_updates_saved": stats.batch_set_updates_saved,
        "mac_cache_bytes": mac_cache_bytes,
        "mac_cache_hits": stats.mac_cache_hits,
        "mac_cache_misses": stats.mac_cache_misses,
        "mac_cache_evictions": stats.mac_cache_evictions,
        "stages_s": {
            "walk": round(stats.stage_walk_s, 4),
            "crypto": round(stats.stage_crypto_s, 4),
            "verify": round(stats.stage_verify_s, 4),
        },
    }
    store.close()
    return result


_MODES = ("sequential", "batched", "batched+maccache")


def run(pairs: int, ops: int, batch_size: int, seed: int) -> dict:
    modes = {}
    for mode in _MODES:
        modes[mode] = _measure(mode, pairs, ops, batch_size, seed)
        stages = modes[mode]["stages_s"]
        print(
            f"{mode:17s} {modes[mode]['wall_s']:8.3f} s  "
            f"{modes[mode]['kops']:8.1f} Kop/s  "
            f"(walk {stages['walk']:.2f} / crypto {stages['crypto']:.2f} "
            f"/ verify {stages['verify']:.2f} s, "
            f"mac-cache hits {modes[mode]['mac_cache_hits']})"
        )
    base = modes["sequential"]["wall_s"]
    return {
        "benchmark": "batch_pipeline",
        "workload": "RD95_Z (YCSB-B: 95% read / 5% update, zipfian 0.99)",
        "config": {
            "pairs": pairs,
            "ops": ops,
            "batch_size": batch_size,
            "partitions": _THREADS,
            "seed": seed,
        },
        "modes": modes,
        "speedup_batched": round(base / modes["batched"]["wall_s"], 2),
        # Cache-on vs cache-off at identical batching: the §4.3
        # verification cost the enclave-resident MAC cache removes.
        "speedup_maccache": round(
            modes["batched"]["wall_s"] / modes["batched+maccache"]["wall_s"], 2
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=20000)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer pairs and ops)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default: repo root)")
    args = parser.parse_args(argv)
    if args.quick:
        args.pairs, args.ops = 1000, 4000

    report = run(args.pairs, args.ops, args.batch_size, args.seed)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_batch_pipeline.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nspeedup batched           : {report['speedup_batched']:.2f}x")
    print(f"speedup mac cache on/off  : {report['speedup_maccache']:.2f}x")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
