"""Replication: LWW records, partition faults, quorum I/O, anti-entropy.

The convergence and chaos classes assert the headline robustness
property end to end over real TCP nodes: acked QUORUM writes survive a
single node kill plus a healed partition plus random frame drops, and
post-heal anti-entropy converges every replica to byte-identical
MAC-verified state.
"""

import os
import random
import shutil
import threading
from pathlib import Path

import pytest

from repro.errors import KeyNotFoundError, ProtocolError, SnapshotError, StoreError
from repro.ext.replication import (
    CONSISTENCY_ONE,
    FLAG_TOMBSTONE,
    RECORD_OVERHEAD,
    LamportClock,
    PeerUnavailableError,
    ReplicaClient,
    ReplicatedStore,
    ReplicationGroup,
    is_tombstone,
    node_origin,
    pack_record,
    record_version,
    unpack_record,
)
from repro.net.tcp import TCPShieldClient
from repro.sim import faults
from repro.sim.faults import FaultPlan, FaultPlanError, FaultRule


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def pair():
    group = ReplicationGroup(num_nodes=2)
    yield group
    group.close()


@pytest.fixture
def trio():
    group = ReplicationGroup(num_nodes=3)
    yield group
    group.close()


class TestRecords:
    def test_roundtrip(self):
        raw = pack_record(0, 7, node_origin("a"), b"payload")
        assert len(raw) == RECORD_OVERHEAD + len(b"payload")
        flags, clock, origin, payload = unpack_record(raw)
        assert (flags, clock, origin, payload) == (
            0, 7, node_origin("a"), b"payload"
        )

    def test_tombstone_flag(self):
        live = pack_record(0, 1, 1, b"v")
        dead = pack_record(FLAG_TOMBSTONE, 2, 1, b"")
        assert not is_tombstone(live)
        assert is_tombstone(dead)

    def test_version_orders_by_clock_then_origin(self):
        assert record_version(pack_record(0, 2, 1, b"")) > record_version(
            pack_record(0, 1, 9, b"")
        )
        assert record_version(pack_record(0, 2, 5, b"")) > record_version(
            pack_record(0, 2, 3, b"")
        )

    def test_short_record_is_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_record(b"\x00" * (RECORD_OVERHEAD - 1))

    def test_origin_is_stable_and_distinct(self):
        assert node_origin("node-0") == node_origin("node-0")
        assert node_origin("node-0") != node_origin("node-1")
        assert 0 <= node_origin("node-0") < 2 ** 64


class TestLamportClock:
    def test_tick_is_monotonic(self):
        clock = LamportClock()
        assert [clock.tick() for _ in range(3)] == [1, 2, 3]

    def test_witness_jumps_past_remote(self):
        clock = LamportClock()
        assert clock.witness(41) == 41
        assert clock.tick() == 42
        assert clock.witness(10) == 42  # stale remote never rewinds
        assert clock.tick() == 43


class TestPartitionRules:
    def test_requires_two_nonempty_groups(self):
        with pytest.raises(FaultPlanError, match="group"):
            FaultPlan([FaultRule(point="tcp.client.*", kind="partition",
                                 groups=[["a"]])])
        with pytest.raises(FaultPlanError, match="group"):
            FaultPlan([FaultRule(point="tcp.client.*", kind="partition",
                                 groups=[["a"], []])])

    def test_rejects_non_tcp_points(self):
        with pytest.raises(FaultPlanError, match="tcp"):
            FaultPlan([FaultRule(point="wal.*", kind="partition",
                                 groups=[["a"], ["b"]])])

    def test_rejects_negative_heal(self):
        with pytest.raises(FaultPlanError, match="heal"):
            FaultPlan([FaultRule(point="tcp.client.*", kind="partition",
                                 groups=[["a"], ["b"]], heal_after_s=-1)])

    def test_groups_reserved_for_partition_rules(self):
        with pytest.raises(FaultPlanError, match="partition"):
            FaultPlan([FaultRule(point="tcp.client.send", kind="drop",
                                 groups=[["a"], ["b"]])])

    def test_cuts_only_cross_group_links(self):
        plan = FaultPlan([FaultRule(point="tcp.client.*", kind="partition",
                                    groups=[["a", "b"], ["c"]])])
        plan.activate()
        cut = plan.decide("tcp.client.send", link=("a", "c"))
        assert cut is not None and cut[0].kind == "partition"
        assert plan.decide("tcp.client.send", link=("a", "b")) is None
        assert plan.decide("tcp.client.send", link=("a", "x")) is None
        assert plan.decide("tcp.client.send", link=None) is None

    def test_heal_restores_the_link(self):
        plan = FaultPlan([FaultRule(point="tcp.client.*", kind="partition",
                                    groups=[["a"], ["b"]])])
        plan.activate()
        assert plan.decide("tcp.client.send", link=("a", "b")) is not None
        plan.heal()
        assert plan.decide("tcp.client.send", link=("a", "b")) is None
        snap = plan.snapshot()
        assert snap["partitions"] == {"rules": 1, "healed": True}


class TestGroupBasics:
    def test_write_through_fanout(self, pair):
        store0 = pair.nodes["node-0"].store
        store1 = pair.nodes["node-1"].store
        store0.set(b"k", b"v")
        pair.flush_all()
        assert store1.get(b"k") == b"v"
        assert record_version(store0.get_versioned(b"k")) == record_version(
            store1.get_versioned(b"k")
        )

    def test_delete_replicates_as_tombstone(self, pair):
        store0 = pair.nodes["node-0"].store
        store1 = pair.nodes["node-1"].store
        store0.set(b"k", b"v")
        store0.delete(b"k")
        pair.flush_all()
        with pytest.raises(KeyNotFoundError):
            store1.get(b"k")
        assert is_tombstone(store1.get_versioned(b"k"))
        assert pair.converged()

    def test_concurrent_writes_converge_to_one_winner(self, pair):
        store0 = pair.nodes["node-0"].store
        store1 = pair.nodes["node-1"].store
        store0.set(b"k", b"from-0")
        store1.set(b"k", b"from-1")
        pair.flush_all()
        assert pair.sync_all() >= 0
        assert pair.converged()
        assert store0.get(b"k") == store1.get(b"k")

    def test_replication_counters_flow(self, pair):
        store0 = pair.nodes["node-0"].store
        for i in range(5):
            store0.set(b"c%d" % i, b"v")
        pair.flush_all()
        assert store0.stats().replicated_out >= 5
        assert pair.nodes["node-1"].store.stats().replicated_in >= 5
        snap = store0.stats().snapshot_dict()
        assert "replicated_out" in snap and "sync_rounds" in snap

    def test_served_writes_reach_a_restarted_peer(self, pair):
        """Writes served while a peer is down reach it after its
        restart: one anti-entropy pass repairs what fan-out missed."""
        pair.kill("node-1")
        client = _plain_client(pair, "node-0")
        written = {b"dk%02d" % i: b"dv%02d" % i for i in range(24)}
        try:
            for key, value in written.items():
                client.set(key, value)
        finally:
            client.close()
        pair.restart("node-1")
        pair.sync_all()
        assert pair.converged()
        revived = pair.nodes["node-1"].store
        for key, value in written.items():
            assert revived.get(key) == value


class _StubLink:
    """A peer link that records which thread replicates through it."""

    alive = True

    def __init__(self):
        self.threads = []

    def replicate(self, key, record):
        self.threads.append(threading.current_thread().name)

    def close(self):
        pass


class _DeadLink:
    """A peer link whose peer is gone: a call fails and marks it dead."""

    alive = True

    def __init__(self):
        self.calls = 0

    def replicate(self, key, record):
        self.calls += 1
        self.alive = False
        raise PeerUnavailableError("peer n1 unreachable: stub")

    def close(self):
        pass


class TestFanOutThread:
    def test_writes_never_fan_out_on_the_writers_thread(self):
        from repro.core import shield_opt
        from repro.core.store import ShieldStore

        store = ReplicatedStore(
            ShieldStore(shield_opt(num_buckets=32, num_mac_hashes=8)), "n0"
        )
        link = store.peers["n1"] = _StubLink()
        try:
            store.set(b"k", b"v")  # no replicator yet: the write queues
            assert link.threads == []
            store.start()
            store.flush()
            assert link.threads == ["shieldstore-repl-n0"]
        finally:
            store.close()

    def test_a_dead_link_is_not_called_and_misses_are_counted(self):
        from repro.core import shield_opt
        from repro.core.store import ShieldStore

        store = ReplicatedStore(
            ShieldStore(shield_opt(num_buckets=32, num_mac_hashes=8)), "n0"
        )
        link = store.peers["n1"] = _DeadLink()
        try:
            for i in range(5):
                store.set(b"k%d" % i, b"v")
            store.flush()
            assert link.calls == 1
            assert store.stats().fanout_missed == 5
        finally:
            store.close()


class TestQuorumClient:
    def test_quorum_set_get_delete(self, trio):
        client = trio.client("qc")
        client.set(b"k", b"v")
        assert client.get(b"k") == b"v"
        assert client.contains(b"k")
        client.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            client.get(b"k")
        assert not client.contains(b"k")
        assert client.stats.quorum_writes >= 2
        assert client.stats.quorum_reads >= 2
        client.close()

    def test_unknown_consistency_rejected(self, trio):
        client = trio.client("qc")
        with pytest.raises(StoreError, match="consistency"):
            client.get(b"k", consistency="linearizable")
        client.close()

    def test_quorum_reads_survive_one_kill(self, trio):
        client = trio.client("qc")
        acked = {}
        for i in range(30):
            key, value = b"rk%02d" % i, b"rv%02d" % i
            client.set(key, value)
            acked[key] = value
        trio.kill("node-1")
        for key, value in acked.items():
            assert client.get(key) == value
        # Writes keep working too: 2 of 3 replicas is still a majority.
        client.set(b"after-kill", b"ok")
        assert client.get(b"after-kill") == b"ok"
        client.close()

    def test_quorum_fails_below_majority_but_one_succeeds(self, trio):
        client = trio.client("qc")
        trio.kill("node-1")
        trio.kill("node-2")
        with pytest.raises(StoreError):
            client.set(b"k", b"v")
        assert client.stats.quorum_failures >= 1
        client.set(b"k", b"v", consistency=CONSISTENCY_ONE)
        assert client.get(b"k", consistency=CONSISTENCY_ONE) == b"v"
        client.close()

    def test_fresh_client_write_over_a_later_clock_is_not_lost(self, trio):
        """Every replica holds ``k`` at a later clock than a new
        client's: its set is refused everywhere until it re-mints above
        the clock the replicas answer with."""
        writer = trio.nodes["node-0"].store
        for i in range(5):
            writer.set(b"k", b"old-%d" % i)
        trio.flush_all()
        trio.sync_all()
        client = trio.client("fresh")
        client.set(b"k", b"new")
        assert client.stats.quorum_writes == 1
        assert client.get(b"k") == b"new"
        trio.flush_all()
        trio.sync_all()
        assert trio.converged()
        for node in trio.live_nodes():
            assert node.store.get(b"k") == b"new"
        client.close()

    def test_restarted_node_refills_from_peers(self, trio):
        client = trio.client("qc")
        trio.kill("node-2")
        acked = {}
        for i in range(20):
            key, value = b"hk%02d" % i, b"hv%02d" % i
            client.set(key, value)
            acked[key] = value
        trio.restart("node-2")
        trio.sync_all(rounds=3)
        assert trio.converged()
        revived = trio.nodes["node-2"].store
        for key, value in acked.items():
            assert revived.get(key) == value
        client.close()


def _plain_client(group, node_id):
    """A served client of one member, as an application reaches it."""
    return TCPShieldClient(
        group.nodes[node_id].address, group.attestation, group.measurement,
        os.urandom(32),
    )


class TestDurableMembers:
    """Every member is a durable node over its own directory: a kill
    keeps its disk, and a restart recovers from it."""

    def test_restarted_member_mints_later_clocks(self, trio):
        """A store rewrapped after a restart witnesses its records'
        largest clock and counts their tombstones: a write after the
        restart beats every write before it, on every node."""
        client = _plain_client(trio, "node-0")
        for i in range(5):
            client.set(b"k", b"old-%d" % i)
        client.set(b"gone", b"v")
        client.delete(b"gone")
        client.close()
        trio.sync_all()
        trio.kill("node-0")
        trio.restart("node-0")
        client = _plain_client(trio, "node-0")
        client.set(b"k", b"new")
        client.close()
        trio.sync_all()
        assert trio.converged()
        for node in trio.live_nodes():
            assert node.store.get(b"k") == b"new"
            assert len(node.store) == 1  # the tombstone is no live key

    def test_restarted_member_holds_what_it_acked(self, trio):
        client = trio.client("qc")
        acked = {}
        for i in range(20):
            key, value = b"ak%02d" % i, b"av%02d" % i
            client.set(key, value)
            acked[key] = value
        client.close()
        trio.kill("node-2")
        revived = trio.restart("node-2").store  # no sync: its own disk only
        for key, value in acked.items():
            assert revived.get(key) == value

    def test_a_tampered_record_is_a_start_up_refusal(self, tmp_path):
        """Rewrapping a recovered store reads each record, verified: a
        flipped entry byte in the checkpoint refuses the start-up the way
        a bad checkpoint does, rather than escaping as ``IntegrityError``."""
        from repro.core import shield_opt
        from repro.node import Node
        from repro.sim import AttestationService

        shape = (shield_opt(num_buckets=64, num_mac_hashes=16),
                 AttestationService(b"test-attestation-secret"), str(tmp_path))
        node = Node(*shape, node_id="n0", master_secret=bytes(32))
        node.start()
        node.store.set(b"k", b"v")
        blob = bytearray(Path(node.close()).read_bytes())
        blob[-25] ^= 0x01  # an entry's ciphertext, which open_store does not read
        Path(node.daemon.last_path).write_bytes(blob)
        Node(*shape, master_secret=bytes(32)).close(checkpoint=False)
        with pytest.raises(SnapshotError, match="failed verification"):
            Node(*shape, node_id="n0", master_secret=bytes(32))

    def test_stale_copy_of_a_member_rejoins_as_a_full_member(self, trio, tmp_path):
        """SECURITY.md, "One replica among several": a member put back
        from an old copy of its whole directory (checkpoint, counter
        file, log), as a re-provisioned machine whose platform counter
        does not object would be, serves stale ``ONE`` reads of acked
        writes until anti-entropy overwrites it.  This pins today's
        behaviour; ROADMAP item 11 is where it changes."""
        client = trio.client("qc")
        keys = [b"sk%02d" % i for i in range(10)]
        for key in keys:
            client.set(key, b"before")
        trio.nodes["node-2"].daemon.run_once()
        member_dir, copy = os.path.join(trio.directory, "node-2"), tmp_path / "node-2"
        shutil.copytree(member_dir, copy)
        for key in keys:
            client.set(key, b"after")  # QUORUM-acked
        client.close()
        trio.kill("node-2")
        shutil.rmtree(member_dir)
        shutil.copytree(copy, member_dir)
        stale = trio.restart("node-2")
        reader = ReplicaClient(
            [("node-2", stale.address)], trio.attestation, trio.measurement,
            consistency=CONSISTENCY_ONE, name="one-reader",
        )
        try:
            assert [reader.get(key) for key in keys] == [b"before"] * len(keys)
        finally:
            reader.close()
        trio.sync_all()
        assert trio.converged()
        for key in keys:
            assert stale.store.get(key) == b"after"


class TestConvergenceProperty:
    """Satellite property: divergent interleavings (drops + partition +
    concurrent writers) converge to byte-identical verified state."""

    def test_partitioned_concurrent_writers_converge(self, pair):
        plan = FaultPlan([
            FaultRule(point="tcp.client.*", kind="partition",
                      groups=[["wa", "node-0"], ["wb", "node-1"]]),
            FaultRule(point="tcp.client.send", kind="drop",
                      probability=0.05),
        ], seed=2019)
        # Writers at ONE: each can only reach its side of the cut, so
        # the replicas genuinely diverge while the partition holds.
        ca = pair.client("wa", consistency=CONSISTENCY_ONE, max_retries=4)
        cb = pair.client("wb", consistency=CONSISTENCY_ONE, max_retries=4)
        rng = random.Random(7)
        written = set()
        faults.install(plan)
        try:
            for step in range(40):
                key = b"pk%02d" % rng.randrange(16)  # overlapping keyset
                written.add(key)
                writer, tag = ((ca, b"a") if rng.random() < 0.5
                               else (cb, b"b"))
                try:
                    writer.set(key, b"%s-%03d" % (tag, step))
                except StoreError:
                    pass  # dropped frames may starve even ONE; unacked
        finally:
            plan.heal()
            faults.uninstall()
        assert pair.sync_all(rounds=3) >= 0
        assert pair.converged()
        store0 = pair.nodes["node-0"].store
        store1 = pair.nodes["node-1"].store
        for key in written:
            # Byte-identical records on both sides (clock, origin and
            # payload), each read back through MAC verification.
            assert store0.get_versioned(key) == store1.get_versioned(key)
        ca.close()
        cb.close()


class TestChaosAcceptance:
    """The acceptance scenario: 3 nodes, one killed, a healed partition
    and 5% frame drops — zero acked QUORUM writes lost, replicas
    byte-identical after anti-entropy."""

    def test_no_acked_quorum_write_lost(self):
        group = ReplicationGroup(num_nodes=3, link_deadline_s=0.5)
        plan = FaultPlan([
            # Isolate node-0 from its peers (client traffic unaffected:
            # the writer is in neither group).
            FaultRule(point="tcp.client.*", kind="partition",
                      groups=[["node-0"], ["node-1", "node-2"]]),
            FaultRule(point="tcp.client.send", kind="drop",
                      probability=0.05),
        ], seed=11)
        client = group.client("chaos-client", max_retries=4)
        acked = {}

        def write(key, value):
            try:
                client.set(key, value)
            except StoreError:
                return  # never acked; allowed to be lost
            acked[key] = value

        try:
            for i in range(20):  # calm phase
                write(b"ck%03d" % i, b"calm-%03d" % i)
            faults.install(plan)
            try:
                for i in range(20, 50):  # partition + drops
                    write(b"ck%03d" % i, b"cut-%03d" % i)
                group.kill("node-2")  # SIGKILL stand-in mid-chaos
                for i in range(50, 70):
                    write(b"ck%03d" % i, b"kill-%03d" % i)
            finally:
                plan.heal()
                faults.uninstall()
            group.restart("node-2")
            group.sync_all(rounds=3)
            assert group.converged()
            assert len(acked) >= 30  # the scenario actually acked writes
            lost = [key for key, value in acked.items()
                    if client.get(key) != value]
            assert lost == []
            # Every live replica holds every acked write locally too.
            for node in group.live_nodes():
                for key, value in acked.items():
                    assert node.store.get(key) == value
        finally:
            client.close()
            group.close()
