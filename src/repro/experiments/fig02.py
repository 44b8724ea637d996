"""Figure 2 — memory access latencies with and without SGX.

The paper's microbenchmark issues one random read or write per 4 KB page
of a working set swept from 16 MB to 4 GB, under three placements:
``NoSGX`` (plain DRAM), ``SGX_Enclave`` (enclave memory — EPC paging
beyond ~93 MB) and ``SGX_Unprotected`` (untrusted memory accessed from
inside the enclave).

Expected shape: NoSGX and SGX_Unprotected stay flat (~100 ns);
SGX_Enclave reads run ~5.7x NoSGX while the set fits the EPC, then climb
to ~578x (reads) / ~685x (writes) at 4 GB.
"""

from __future__ import annotations

import random
from typing import List

from repro.experiments.common import (
    DEFAULT_SCALE,
    SEED,
    TableResult,
)
from repro.sim.cycles import MB, PAGE_SIZE
from repro.sim.enclave import Enclave
from repro.sim.memory import REGION_ENCLAVE, REGION_UNTRUSTED

WORKING_SET_MB = (16, 32, 48, 64, 96, 128, 256, 512, 1024, 2048, 4096)
MODES = ("NoSGX", "SGX_Enclave", "SGX_Unprotected")
_MEASUREMENT = bytes([2] * 32)


def _measure(
    mode: str, write: bool, wss_bytes: int, scale: float, accesses: int, seed: int
) -> float:
    """Average ns per random page access for one (mode, r/w, wss) cell."""
    # The paper's pointer-chasing microbenchmark is built so that "most
    # of the accesses cause cache misses" (§2.1): its working sets dwarf
    # the on-chip caches.  A scaled run cannot keep WSS >> LLC at the
    # small end of the sweep, so this experiment models the
    # cache-defeating access pattern with a minimal LLC.
    from dataclasses import replace

    from repro.sim.cycles import DEFAULT_COST_MODEL
    from repro.sim.enclave import Machine

    cost = replace(DEFAULT_COST_MODEL.scaled(scale, 1.0), llc_bytes=4096)
    machine = Machine(cost, num_threads=1, seed=seed)
    if mode == "NoSGX":
        ctx = machine.context(0, in_enclave=False)
        region = REGION_UNTRUSTED
    elif mode == "SGX_Unprotected":
        Enclave(machine, _MEASUREMENT)
        ctx = machine.context(0, in_enclave=True)
        region = REGION_UNTRUSTED
    else:
        Enclave(machine, _MEASUREMENT)
        ctx = machine.context(0, in_enclave=True)
        region = REGION_ENCLAVE
    base = machine.memory.alloc(wss_bytes, region)
    pages = max(1, wss_bytes // PAGE_SIZE)
    rng = random.Random(seed + 7)
    # Warm-up: when the set fits the EPC, sweep every page so no cold
    # first-touch fault leaks into the measurement; when it does not fit,
    # random touches reach the steady-state residency mix.
    def poke(page: int) -> None:
        # Random offset within the page: the paper's pointer chase does
        # not reuse cachelines, so neither should the model.
        offset = rng.randrange(0, PAGE_SIZE - 8)
        machine.memory.touch(ctx, base + page * PAGE_SIZE + offset, 8, write=write)

    if pages <= machine.epc.capacity_pages:
        for page in range(pages):
            poke(page)
    else:
        for _ in range(min(3 * pages, 4 * accesses)):
            poke(rng.randrange(pages))
    machine.reset_measurement()
    for _ in range(accesses):
        poke(rng.randrange(pages))
    return machine.elapsed_us() * 1000.0 / accesses


def run(
    scale: float = DEFAULT_SCALE, accesses: int = 2000, seed: int = SEED
) -> TableResult:
    """Regenerate Figure 2 (latency per operation, ns, log-scale axis)."""
    headers = ["WSS (MB)"] + [f"{m} {rw}" for rw in ("read", "write") for m in MODES]
    rows: List[list] = []
    for wss_mb in WORKING_SET_MB:
        wss = max(PAGE_SIZE, int(wss_mb * MB * scale))
        row: List = [wss_mb]
        for write in (False, True):
            for mode in MODES:
                row.append(_measure(mode, write, wss, scale, accesses, seed))
        rows.append(row)
    baseline_read = rows[0][1]
    top_read = rows[-1][2]
    top_write = rows[-1][5]
    notes = [
        f"scale={scale}: working sets and EPC both scaled; axis labels at paper scale",
        f"4GB enclave read = {top_read / baseline_read:.0f}x NoSGX (paper: 578x)",
        f"4GB enclave write = {top_write / rows[0][4]:.0f}x NoSGX (paper: 685x)",
    ]
    return TableResult("Figure 2", "Memory access latencies w/ and w/o SGX", headers, rows, notes)


if __name__ == "__main__":
    print(run().format())
