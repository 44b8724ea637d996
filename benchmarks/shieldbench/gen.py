"""Inputs of shieldbench and the model every reply is checked against.

Everything the program under test receives is made here from the seed:
16-byte keys, a per-key value size drawn from the paper's Table 3 sizes,
value contents that name their key and write version, and the request
sequences (``repro.workloads.OperationStream`` supplies the operation
mix and the key popularity).  The same seed gives the same inputs.

A value is ``DataSpec.value_bytes``: ``v<index>.<version>|`` repeated to
the key's size, so a
reply can be decoded back to (key, version) and compared with what the
generator knows was sent and acknowledged for that key.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.util import stable_seed
from repro.workloads import (
    LARGE, MEDIUM, OP_GET, SMALL, OperationStream, WorkloadSpec,
)

# Paper Table 3 data sets (16 B keys; 16 / 128 / 512 B values) and the
# share of keys that take their value size from each.
DATA_SPECS = (SMALL, MEDIUM, LARGE)
SPEC_WEIGHTS = (50, 35, 15)
LOAD_BATCH = 256

GET, SET, MGET, MSET = "get", "set", "mget", "mset"


class Dataset:
    """The key space of one run: sizes fixed by (seed, key index)."""

    def __init__(self, seed: int, pairs: int):
        self.seed = seed
        self.pairs = pairs
        rng = random.Random(stable_seed(seed, "value-sizes"))
        self.specs = rng.choices(DATA_SPECS, SPEC_WEIGHTS, k=pairs)

    @staticmethod
    def key(index: int) -> bytes:
        return SMALL.key_bytes(index)

    def value(self, index: int, version: int) -> bytes:
        return self.specs[index].value_bytes(index, version)

    def user_bytes(self) -> int:
        """Key plus value bytes of the loaded data set."""
        return sum(spec.key_size + spec.val_size for spec in self.specs)

    def load_batches(self) -> Iterator[List[Tuple[bytes, bytes]]]:
        """Version-0 pairs in ``multi_set`` batches of LOAD_BATCH."""
        for start in range(0, self.pairs, LOAD_BATCH):
            stop = min(start + LOAD_BATCH, self.pairs)
            yield [(self.key(i), self.value(i, 0)) for i in range(start, stop)]


def decode_value(value: Optional[bytes]) -> Optional[Tuple[int, int]]:
    """(key index, version) a value claims, or None when it is malformed."""
    if not value or value[:1] != b"v":
        return None
    stamp, bar, _rest = value.partition(b"|")
    index, dot, version = stamp[1:].partition(b".")
    if not bar or not dot or not index.isdigit() or not version.isdigit():
        return None
    return int(index), int(version)


class Model:
    """What the generator knows about every key: last version sent and
    last version acknowledged.

    Each key has exactly one writing connection and a connection has one
    request outstanding, so ``sent - acked`` is 0 or 1 and a correct
    read returns a version between the ``acked`` seen before the request
    left and the ``sent`` seen after the reply arrived.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.planned = [0] * dataset.pairs   # versions handed out by the generator
        self.sent = [0] * dataset.pairs
        self.acked = [0] * dataset.pairs

    def read_ok(self, index: int, value: Optional[bytes], floor: int) -> bool:
        """Is ``value`` a legal reply to a read of ``index`` begun when
        the acknowledged version was ``floor``?"""
        decoded = decode_value(value)
        if decoded is None or decoded[0] != index:
            return False
        version = decoded[1]
        if not floor <= version <= self.sent[index]:
            return False
        return value == self.dataset.value(index, version)


class OpSource:
    """Request sequence of one connection.

    Single requests are ``(kind, index, version, key, value)``; batches
    are ``(kind, indices, versions, keys, items)``.  Keys and values are
    materialised here, outside any timed region.  Connection ``c`` of
    ``n`` writes only keys whose index is ``c`` modulo ``n`` (a write
    drawn for another key moves to the nearest one it owns), which keeps
    one writer per key; reads go wherever the distribution sends them.
    """

    def __init__(
        self,
        model: Model,
        mix: WorkloadSpec,
        seed: int,
        connection: int,
        connections: int,
    ):
        if model.dataset.pairs % connections:
            raise ValueError("pairs must be a multiple of the connection count")
        self.model = model
        self.connection = connection
        self.connections = connections
        self._stream = OperationStream(
            mix, SMALL, model.dataset.pairs,
            seed=stable_seed(seed, "connection", connection),
        )
        self._next_draw = self._draws().__next__

    def _draws(self) -> Iterator[Tuple[bool, int]]:
        """(is_read, key index) pairs without end."""
        while True:
            for op in self._stream.operations(1024):
                yield op.op == OP_GET, int(op.key[1:])

    def _own(self, index: int) -> int:
        return index - index % self.connections + self.connection

    def _next_version(self, index: int) -> int:
        planned = self.model.planned
        planned[index] += 1
        return planned[index]

    def singles(self, count: int) -> list:
        dataset = self.model.dataset
        ops = []
        for _ in range(count):
            is_read, index = self._next_draw()
            if is_read:
                ops.append((GET, index, 0, dataset.key(index), None))
            else:
                index = self._own(index)
                version = self._next_version(index)
                ops.append(
                    (SET, index, version, dataset.key(index),
                     dataset.value(index, version))
                )
        return ops

    def batches(self, count: int, width: int) -> list:
        """``count`` batches of ``width`` distinct keys; the first draw of
        a batch decides whether it reads or writes."""
        dataset = self.model.dataset
        ops = []
        for _ in range(count):
            is_read, first = self._next_draw()
            chosen = {first if is_read else self._own(first): None}
            while len(chosen) < width:
                _, index = self._next_draw()
                chosen.setdefault(index if is_read else self._own(index))
            indices = list(chosen)
            keys = [dataset.key(i) for i in indices]
            if is_read:
                ops.append((MGET, indices, None, keys, None))
            else:
                versions = [self._next_version(i) for i in indices]
                items = [
                    (key, dataset.value(i, v))
                    for key, i, v in zip(keys, indices, versions)
                ]
                ops.append((MSET, indices, versions, keys, items))
        return ops


def encode_ops(ops: Sequence[tuple]) -> list:
    """Wire form of an op list for the server child's layered replay:
    kinds, indices and versions only (the child rebuilds the bytes)."""
    return [[op[0], op[1], op[2]] for op in ops]


def decode_ops(dataset: Dataset, wire: Sequence[Sequence]) -> list:
    ops = []
    for kind, indices, versions in wire:
        if kind == GET:
            ops.append((GET, indices, 0, dataset.key(indices), None))
        elif kind == SET:
            ops.append((SET, indices, versions, dataset.key(indices),
                        dataset.value(indices, versions)))
        else:
            keys = [dataset.key(i) for i in indices]
            items = None
            if kind == MSET:
                items = [(k, dataset.value(i, v))
                         for k, i, v in zip(keys, indices, versions)]
            ops.append((kind, indices, versions, keys, items))
    return ops
