"""Small shared utilities."""

from __future__ import annotations

import os
import zlib

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def usable_cpus() -> int:
    """CPUs this process may run on (never < 1): the affinity mask —
    which ``taskset``, a cgroup cpuset or ``docker --cpuset-cpus``
    narrow below the machine's size — else the machine's count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def fnv1a(data: bytes) -> int:
    """Deterministic 64-bit FNV-1a over bytes.

    Used wherever the simulation needs a fast non-cryptographic hash;
    Python's builtin ``hash`` is randomized per process and would make
    runs irreproducible.
    """
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed from strings/ints (crc32-folded)."""
    acc = 0
    for part in parts:
        if isinstance(part, int):
            part = str(part)
        acc = zlib.crc32(str(part).encode("utf-8"), acc)
    return acc & 0x7FFFFFFF
