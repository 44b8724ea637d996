"""Sharded (and optionally replicated) multi-node ShieldStore cluster.

The paper evaluates a single 4-core host ("due to the current lack of
SGX support in server-class multi-socket systems", §6.1) — but its
deployment story is cloud key-value storage, which shards.  This module
scales the design *out* the same way §5.3 scales it *up*: hash-disjoint
ownership, no cross-node coordination on the data path.

* each shard is an independent ShieldStore enclave on its own simulated
  machine, with its own master secret (one compromised platform never
  weakens another);
* clients route by consistent hashing over a virtual-node ring
  (:mod:`repro.ext.ring`, shared with replica placement), after
  attesting every shard's enclave;
* shards can be added or drained at runtime; only the keys whose ring
  ownership changes migrate, streamed through the client's attested
  sessions (re-encrypted per-shard — shards share no keys);
* every key lives on its ring preference list (owner + R-1 successors)
  as a versioned LWW record, and :class:`ShieldCluster` is the
  :class:`~repro.ext.replication.Coordinator` over those in-process
  shards: reads and writes take a ``consistency`` level (ONE or
  QUORUM), and :meth:`kill_node` models a node loss the survivors
  absorb — the in-process analogue of the TCP replication group.
  ``replicas=1`` is the same path with a one-node preference list and
  a quorum of one, at its stated price: every entry carries the 17-byte
  version header and a delete leaves a tombstone behind.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import StoreConfig
from repro.core.store import ShieldStore
from repro.errors import AttestationError, KeyNotFoundError, StoreError
from repro.ext.replication import (
    Coordinator,
    PeerUnavailableError,
    is_tombstone,
    newer,
    record_version,
)
from repro.ext.ring import HashRing
from repro.sim.attestation import AttestationService
from repro.sim.enclave import Machine

_VNODES = 64  # virtual nodes per shard on the hash ring


class ShardNode:
    """One cluster member: a machine, an enclave, a store.

    Also the coordinator's in-process endpoint: :meth:`vget` and
    :meth:`replicate` are what a :class:`~repro.ext.replication.PeerLink`
    answers over the wire, served straight from the bare ``store``.
    """

    def __init__(self, node_id: str, config: StoreConfig, seed: int):
        self.node_id = node_id
        self.machine = Machine(seed=seed)
        self.store = ShieldStore(config, machine=self.machine)
        self.attested = False
        self.alive = True

    @property
    def measurement(self) -> bytes:
        return self.store.enclave.measurement

    def vget(self, key: bytes) -> bytes:
        """The raw versioned record; ``KeyNotFoundError`` if never seen."""
        if not self.alive:
            raise PeerUnavailableError(f"node {self.node_id} is down")
        return self.store.get(key)

    def replicate(self, key: bytes, record: bytes) -> Tuple[bool, int]:
        """LWW-checked apply; returns (applied, surviving clock)."""
        try:
            held: Optional[bytes] = self.vget(key)
        except KeyNotFoundError:
            held = None
        if held is not None and not newer(record, held):
            return False, record_version(held)[0]
        self.store.set(key, record)
        return True, record_version(record)[0]


class ShieldCluster(Coordinator):
    """Client-side view of a sharded ShieldStore deployment."""

    def __init__(
        self,
        config: StoreConfig,
        attestation: AttestationService,
        num_nodes: int = 3,
        seed: int = 2019,
        replicas: int = 1,
        consistency: str = "quorum",
    ):
        if num_nodes < 1:
            raise StoreError("a cluster needs at least one node")
        if replicas < 1:
            raise StoreError("replicas must be at least 1")
        if replicas > num_nodes:
            raise StoreError("cannot place more replicas than nodes")
        # The coordinator is the version authority for every record.
        super().__init__("cluster-coordinator", consistency)
        self.config = config
        self.attestation = attestation
        self._seed = seed
        self._joins = 0  # never decreases: a drained node's seed is not reused
        self.replicas = replicas
        self.nodes: Dict[str, ShardNode] = {}
        self._ring = HashRing(_VNODES)
        self.keys_migrated = 0
        for i in range(num_nodes):
            self.add_node(f"node-{i}")

    # -- ring lookups -------------------------------------------------------
    def owner_of(self, key: bytes) -> ShardNode:
        """Consistent-hash lookup: first ring token at/after the key."""
        if not len(self._ring):
            raise StoreError("cluster has no nodes")
        return self.nodes[self._ring.owner(bytes(key))]

    def preference_nodes(self, key: bytes) -> List[ShardNode]:
        """The key's replica set, in ring successor order."""
        width = min(self.replicas, len(self._ring))
        return [
            self.nodes[node_id]
            for node_id in self._ring.preference_list(bytes(key), width)
        ]

    # -- membership -----------------------------------------------------------
    def _attest(self, node: ShardNode) -> None:
        """Client-side attestation of a shard before trusting it."""
        ctx = node.store.enclave.context()
        quote = self.attestation.quote(ctx, node.store.enclave, b"cluster-join")
        self.attestation.verify(quote, node.measurement)
        node.attested = True

    def add_node(self, node_id: str) -> ShardNode:
        """Attest and join a new shard, migrating its ring ranges in."""
        if node_id in self.nodes:
            raise StoreError(f"duplicate node id {node_id!r}")
        node = ShardNode(node_id, self.config, self._seed + self._joins)
        self._joins += 1
        self._attest(node)
        self.nodes[node_id] = node
        self._ring.add(node_id)
        self._place()
        return node

    def remove_node(self, node_id: str) -> int:
        """Drain a shard: move its keys to their new owners, then drop it."""
        node = self.nodes.get(node_id)
        if node is None:
            raise StoreError(f"unknown node {node_id!r}")
        if len(self.nodes) == 1:
            raise StoreError("cannot drain the last node")
        if len(self.nodes) - 1 < self.replicas:
            raise StoreError("draining would leave fewer nodes than replicas")
        items = list(node.store.iter_items())
        self._ring.remove(node_id)
        del self.nodes[node_id]
        return self._place(extra=items)

    def kill_node(self, node_id: str) -> ShardNode:
        """Lose a node *without* draining it (crash, not decommission).

        The node stays on the ring (preference lists are stable), but
        answers nothing; with ``replicas > 1`` the surviving replicas
        keep serving the key range.
        """
        node = self.nodes.get(node_id)
        if node is None:
            raise StoreError(f"unknown node {node_id!r}")
        node.alive = False
        return node

    def _survey(self, extra=()):
        """LWW winner per key over every live shard (plus ``extra``
        records streamed off a drained node), and who holds each key."""
        winners: Dict[bytes, bytes] = {}
        holders: Dict[bytes, List[ShardNode]] = {}
        for node in self.nodes.values():
            if not node.alive:
                continue
            for key, record in node.store.iter_items():
                holders.setdefault(key, []).append(node)
                if newer(record, winners.get(key)):
                    winners[key] = record
        for key, record in extra:
            if newer(record, winners.get(key)):
                winners[key] = record
        return winners, holders

    def _place(self, extra=()) -> int:
        """Re-place every record after a membership change.

        Makes each key's winning record present on exactly its
        preference list: LWW-applied where it should live (only real
        copies count as moved), dropped where it no longer should.
        Linear in data size, which matches the migration story:
        rebalances stream through the trusted client, they are not a
        data-path operation.
        """
        winners, holders = self._survey(extra)
        moved = 0
        for key, record in winners.items():
            targets = self.preference_nodes(key)
            for node in targets:
                if node.alive:
                    moved += node.replicate(key, record)[0]
            for node in holders.get(key, ()):
                if node not in targets:
                    node.store.delete(key)
        self.keys_migrated += moved
        return moved

    # -- data path: the Coordinator hooks over ring placement -------------------
    def _endpoints(self, key: bytes) -> List[ShardNode]:
        """The key's replica set, each member attested before use."""
        targets = self.preference_nodes(key)
        for node in targets:
            if not node.attested:
                raise AttestationError(f"node {node.node_id} was never attested")
        return targets

    def __len__(self) -> int:
        """Live (non-tombstone) keys, each counted once."""
        winners, _holders = self._survey()
        return sum(not is_tombstone(record) for record in winners.values())

    # -- introspection ------------------------------------------------------
    def shard_sizes(self) -> Dict[str, int]:
        """Live keys per shard (balance check)."""
        return {
            node_id: sum(
                not is_tombstone(record)
                for _key, record in node.store.iter_items()
            )
            for node_id, node in self.nodes.items()
        }

    def total_elapsed_us(self) -> float:
        """Busiest shard's simulated time (cluster wall-clock)."""
        return max(node.machine.elapsed_us() for node in self.nodes.values())
