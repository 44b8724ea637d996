"""Key-popularity distributions for workload generation.

The paper's workloads (Table 2) draw keys from three distributions, the
same ones YCSB defines:

* **uniform** — every key equally likely;
* **zipfian** — skewness 0.99 (and 0.5 for the Fig. 12 append mix),
  using the Gray et al. bounded-Zipfian algorithm YCSB implements, with
  rank scrambling so hot keys spread across the key space;
* **latest** — zipfian over recency: the most recently inserted keys are
  the most popular (paper's RD95_L).
"""

from __future__ import annotations

import random

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes (YCSB's scramble)."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class UniformGenerator:
    """Uniform over ``[0, item_count)``."""

    def __init__(self, item_count: int, seed: int = 0):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)


class ZipfianGenerator:
    """Bounded Zipfian (Gray et al.), as implemented by YCSB.

    ``theta`` is the skew (YCSB default 0.99).  ``scrambled=True`` maps
    ranks through FNV so popular items are spread over the key space.
    """

    def __init__(
        self,
        item_count: int,
        theta: float = 0.99,
        seed: int = 0,
        scrambled: bool = True,
    ):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.item_count = item_count
        self.theta = theta
        self.scrambled = scrambled
        self._rng = random.Random(seed)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # For item_count <= 2 the closed form for eta degenerates to 0/0
        # (zeta(n) == zeta(2) when n == 2).  It is also never consulted:
        # with n <= 2, u * zetan < 1 + 0.5**theta for every u in [0, 1),
        # so the first two branches of _next_rank cover all ranks.
        denom = 1 - self._zeta2 / self._zetan
        self._eta = (
            0.0
            if denom == 0
            else (1 - (2.0 / item_count) ** (1 - theta)) / denom
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def _next_rank(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self._eta * u - self._eta + 1) ** self._alpha)

    def next(self) -> int:
        rank = min(self._next_rank(), self.item_count - 1)
        if self.scrambled:
            return fnv1a_64(rank) % self.item_count
        return rank


class LatestGenerator:
    """Zipfian over recency: item ``count-1`` is the hottest (YCSB latest)."""

    def __init__(self, item_count: int, theta: float = 0.99, seed: int = 0):
        self._zipf = ZipfianGenerator(item_count, theta, seed, scrambled=False)
        self.item_count = item_count

    def next(self) -> int:
        rank = self._zipf._next_rank()
        idx = self.item_count - 1 - min(rank, self.item_count - 1)
        return idx


def make_distribution(name: str, item_count: int, seed: int = 0, theta: float = 0.99):
    """Factory keyed by the Table 2 distribution names."""
    if name == "uniform":
        return UniformGenerator(item_count, seed)
    if name == "zipfian":
        return ZipfianGenerator(item_count, theta, seed)
    if name == "latest":
        return LatestGenerator(item_count, theta, seed)
    raise ValueError(f"unknown distribution {name!r}")
