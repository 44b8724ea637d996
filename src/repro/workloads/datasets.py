"""Data-size configurations (paper Table 3) and key/value materialization.

The paper preloads 10 million pairs per data set: *small* (16 B keys,
16 B values, 320 MB), *medium* (16 B/128 B, 1.3 GB) and *large*
(16 B/512 B, 5.2 GB) — all past the 128 MB EPC.  Benchmarks shrink the
pair count by the global scale knob while keeping key/value sizes, so
per-entry costs stay faithful and only aggregate pressure scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

PAPER_NUM_PAIRS = 10_000_000


@dataclass(frozen=True)
class DataSpec:
    """One row of Table 3."""

    name: str
    key_size: int
    val_size: int

    def key_bytes(self, index: int) -> bytes:
        """Deterministic fixed-width key for item ``index``.

        Zero-padded so distinct indices can never collide (``k1`` padded
        with trailing zeros would equal ``k10`` padded one shorter).
        """
        raw = b"k" + str(index).zfill(self.key_size - 1).encode("ascii")
        if len(raw) > self.key_size:
            raise ValueError(f"index {index} does not fit a {self.key_size}B key")
        return raw

    def value_bytes(self, index: int, version: int = 0) -> bytes:
        """Deterministic value for item ``index`` at write ``version``."""
        seed = f"v{index}.{version}|".encode("ascii")
        reps = -(-self.val_size // len(seed))
        return (seed * reps)[: self.val_size]


SMALL = DataSpec("small", 16, 16)
MEDIUM = DataSpec("medium", 16, 128)
LARGE = DataSpec("large", 16, 512)

DATA_SPECS: Dict[str, DataSpec] = {d.name: d for d in (SMALL, MEDIUM, LARGE)}


def data_spec(name: str) -> DataSpec:
    """Look up a Table 3 configuration by name."""
    try:
        return DATA_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown data spec {name!r}; known: {sorted(DATA_SPECS)}"
        ) from None
