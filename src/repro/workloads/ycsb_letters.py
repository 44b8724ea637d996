"""The canonical YCSB core workloads A-F, mapped onto this suite.

The paper's Table 2 mixes are derived from YCSB; this module exposes the
original lettered catalog so downstream users can ask for "workload B"
directly, including **E (short scans)** — which the paper's hash index
cannot serve but the :class:`~repro.ext.rangestore.RangeShieldStore`
extension can.

| letter | mix | distribution | Table 2 analogue |
|---|---|---|---|
| A | 50% read / 50% update | zipfian | RD50_Z |
| B | 95% read / 5% update | zipfian | RD95_Z |
| C | 100% read | zipfian | RD100_Z |
| D | 95% read / 5% insert | latest | RD95_L |
| E | 95% scan / 5% insert | zipfian | (needs ordered index) |
| F | 50% read / 50% RMW | zipfian | RMW50_Z |
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.util import stable_seed
from repro.workloads.datasets import DataSpec
from repro.workloads.distributions import make_distribution
from repro.workloads.ycsb import (
    OP_SET,
    RD50_Z,
    RD95_L,
    RD95_Z,
    RD100_Z,
    RMW50_Z,
    Operation,
    OperationStream,
    WorkloadSpec,
)

OP_SCAN = "scan"

LETTER_SPECS: Dict[str, WorkloadSpec] = {
    "A": RD50_Z,
    "B": RD95_Z,
    "C": RD100_Z,
    "D": RD95_L,
    "F": RMW50_Z,
}


@dataclass(frozen=True)
class ScanOperation:
    """A YCSB-E short range scan: up to ``count`` keys from ``start``."""

    op: str
    start_key: bytes
    count: int


class ScanStream:
    """YCSB workload E: 95% short scans, 5% inserts, zipfian starts.

    Only stores with an ordered index can serve it; see
    :func:`run_scan_stream`.
    """

    def __init__(
        self,
        data: DataSpec,
        num_pairs: int,
        seed: int = 2019,
        max_scan_length: int = 100,
    ):
        self.data = data
        self.num_pairs = num_pairs
        self.max_scan_length = max_scan_length
        self._rng = random.Random(stable_seed(seed, "ycsb-e"))
        self._dist = make_distribution("zipfian", num_pairs, seed=stable_seed(seed, "e-dist"))
        self._next_insert = num_pairs

    def load_operations(self) -> Iterator[Operation]:
        for index in range(self.num_pairs):
            yield Operation(
                OP_SET, self.data.key_bytes(index), self.data.value_bytes(index)
            )

    def operations(self, count: int) -> Iterator[object]:
        for _ in range(count):
            if self._rng.random() < 0.95:
                start = self._dist.next()
                length = self._rng.randint(1, self.max_scan_length)
                yield ScanOperation(OP_SCAN, self.data.key_bytes(start), length)
            else:
                index = self._next_insert
                self._next_insert += 1
                yield Operation(
                    OP_SET,
                    self.data.key_bytes(index),
                    self.data.value_bytes(index),
                )


def letter_stream(
    letter: str, data: DataSpec, num_pairs: int, seed: int = 2019
):
    """Build the stream for a YCSB letter (A-F)."""
    letter = letter.upper()
    if letter == "E":
        return ScanStream(data, num_pairs, seed=seed)
    try:
        spec = LETTER_SPECS[letter]
    except KeyError:
        raise ValueError(f"unknown YCSB workload {letter!r} (A-F)") from None
    return OperationStream(spec, data, num_pairs, seed=seed)


def run_scan_stream(store, stream: ScanStream, count: int) -> int:
    """Drive an ordered store with workload E; returns rows scanned.

    ``store`` must provide ``range(start, end)`` and ``set`` — i.e. a
    :class:`~repro.ext.rangestore.RangeShieldStore`.
    """
    rows = 0
    for op in stream.operations(count):
        if isinstance(op, ScanOperation):
            for i, _pair in enumerate(store.range(op.start_key, b"\xff" * 16)):
                rows += 1
                if i + 1 >= op.count:
                    break
        else:
            store.set(op.key, op.value)
    return rows
