"""Comparator systems: semantics and the cost relationships they model."""

import pytest

from repro.baselines import (
    EleosStore,
    GrapheneMemcachedStore,
    InsecureStore,
    NaiveSgxStore,
)
from repro.errors import EnclaveError, KeyNotFoundError, UnsupportedConfigError
from repro.sim import Attacker, Machine
from repro.sim.cycles import PAGE_SIZE


ALL_BASELINES = [
    lambda m: InsecureStore(m, num_buckets=256),
    lambda m: NaiveSgxStore(m, num_buckets=256),
    lambda m: GrapheneMemcachedStore(m, num_buckets=256),
    lambda m: GrapheneMemcachedStore(m, num_buckets=256, secure=False),
    lambda m: EleosStore(m, num_buckets=256),
]


@pytest.fixture(params=range(len(ALL_BASELINES)))
def system(request):
    return ALL_BASELINES[request.param](Machine(num_threads=2))


class TestSemantics:
    def test_set_get(self, system):
        system.set(b"key", b"value")
        assert system.get(b"key") == b"value"

    def test_missing(self, system):
        with pytest.raises(KeyNotFoundError):
            system.get(b"missing")

    def test_overwrite(self, system):
        system.set(b"key", b"v1")
        system.set(b"key", b"v2-longer")
        assert system.get(b"key") == b"v2-longer"
        assert len(system) == 1

    def test_append(self, system):
        system.set(b"log", b"a")
        assert system.append(b"log", b"b") == b"ab"
        assert system.append(b"new", b"x") == b"x"

    def test_many_keys(self, system):
        for i in range(150):
            system.set(f"key-{i}".encode(), f"val-{i}".encode())
        for i in range(150):
            assert system.get(f"key-{i}".encode()) == f"val-{i}".encode()


class TestThreatModelPlacement:
    """Where §3.3's adversary finds a comparator's records: NoSGX keeps
    them in plaintext in untrusted memory, the naive Baseline keeps the
    whole table inside the enclave."""

    KEY, VALUE = b"user:42", b"alice-secret"

    def _untrusted_dump(self, attacker):
        return b"".join(
            attacker.read(base, size)
            for base, size in attacker.untrusted_allocations()
        )

    def _new_allocations(self, machine, write):
        before = set(machine.memory._allocs)
        write()
        return [a for base, a in machine.memory._allocs.items() if base not in before]

    def test_insecure_store_is_plaintext_to_the_attacker(self):
        machine = Machine()
        store = InsecureStore(machine, num_buckets=256)
        attacker = Attacker(machine.memory)
        entries = self._new_allocations(
            machine, lambda: store.set(self.KEY, self.VALUE)
        )
        assert [a.region for a in entries] == ["untrusted"]
        dump = self._untrusted_dump(attacker)
        assert self.KEY in dump and self.VALUE in dump
        record = attacker.read(entries[0].base, entries[0].size)
        assert record.endswith(self.KEY + self.VALUE)

    def test_naive_sgx_store_is_refused_to_the_attacker(self):
        machine = Machine()
        store = NaiveSgxStore(machine, num_buckets=256)
        attacker = Attacker(machine.memory)
        entries = self._new_allocations(
            machine, lambda: store.set(self.KEY, self.VALUE)
        )
        assert [a.region for a in entries] == ["enclave"]
        for base, size in ((store.table.table_base, 8), (entries[0].base, 16)):
            with pytest.raises(EnclaveError):
                attacker.read(base, size)
        # The bytes are there, behind the processor's refusal.
        record = machine.memory.raw_read(entries[0].base, entries[0].size)
        assert record.endswith(self.KEY + self.VALUE)
        dump = self._untrusted_dump(attacker)
        assert self.KEY not in dump and self.VALUE not in dump


class TestCostRelationships:
    def _measure(self, factory, pairs=600, value=b"v" * 256):
        machine = Machine()
        system = factory(machine)
        for i in range(pairs):
            system.set(f"key-{i}".encode(), value)
        machine.reset_measurement()
        for i in range(pairs):
            system.get(f"key-{i}".encode())
        return machine.elapsed_us()

    def test_naive_sgx_slower_than_insecure_beyond_epc(self):
        """With the table past the (scaled) EPC, paging dominates."""
        from dataclasses import replace

        from repro.sim.cycles import CostModel

        tiny_epc = replace(
            CostModel(), epc_effective_bytes=16 * PAGE_SIZE, llc_bytes=PAGE_SIZE
        )

        def insecure(m):
            return InsecureStore(m, num_buckets=512)

        def naive(m):
            return NaiveSgxStore(m, num_buckets=512)

        insecure_us = self._run_with(tiny_epc, insecure)
        naive_us = self._run_with(tiny_epc, naive)
        assert naive_us > insecure_us * 10

    @staticmethod
    def _run_with(cost, factory, pairs=300):
        import random

        machine = Machine(cost)
        system = factory(machine)
        for i in range(pairs):
            system.set(f"key-{i}".encode(), b"v" * 256)
        machine.reset_measurement()
        order = list(range(pairs))
        random.Random(7).shuffle(order)  # random access defeats paging
        for i in order:
            system.get(f"key-{i}".encode())
        return machine.elapsed_us()

    def test_graphene_pays_libos_tax(self):
        plain = self._measure(lambda m: NaiveSgxStore(m, num_buckets=1024))
        graphene = self._measure(
            lambda m: GrapheneMemcachedStore(m, num_buckets=1024)
        )
        assert graphene > plain

    def test_graphene_maintainer_hurts_multithread(self):
        def run(threads):
            machine = Machine(num_threads=threads)
            system = GrapheneMemcachedStore(machine, num_buckets=1024)
            for i in range(400):
                system.set(f"key-{i}".encode(), b"v")
            machine.reset_measurement()
            for i in range(400):
                system.get(f"key-{i}".encode())
            return 400 / machine.elapsed_us()

    # throughput at 4 threads should not be ~4x the 1-thread one
        assert run(4) < 3.0 * run(1)


class TestEleos:
    def test_capacity_limit(self):
        machine = Machine()
        eleos = EleosStore(machine, max_data_bytes=4096, num_buckets=16)
        eleos.set(b"a", b"x" * 1000)
        with pytest.raises(UnsupportedConfigError):
            eleos.set(b"b", b"x" * 4000)

    def test_bad_page_size(self):
        with pytest.raises(UnsupportedConfigError):
            EleosStore(Machine(), page_bytes=2048)

    def test_software_faults_counted(self):
        machine = Machine()
        eleos = EleosStore(machine, cache_bytes=8 * 4096, num_buckets=64)
        for i in range(100):
            eleos.set(f"key-{i}".encode(), b"v" * 3000)
        assert eleos.software_faults > 0

    def test_small_cache_slower_than_big_cache(self):
        def run(cache_pages):
            machine = Machine()
            eleos = EleosStore(
                machine, cache_bytes=cache_pages * 4096, num_buckets=256
            )
            for i in range(200):
                eleos.set(f"key-{i}".encode(), b"v" * 2000)
            machine.reset_measurement()
            for i in range(200):
                eleos.get(f"key-{i}".encode())
            return machine.elapsed_us()

        assert run(4) > run(4096)

    def test_chain_walk_touches_pages(self):
        machine = Machine()
        eleos = EleosStore(machine, num_buckets=1, cache_bytes=4 * 4096)
        for i in range(50):
            eleos.set(f"key-{i}".encode(), b"v" * 500)
        faults_before = eleos.software_faults
        eleos.get(b"key-0")  # tail of a 50-long chain: many page touches
        assert eleos.software_faults > faults_before
