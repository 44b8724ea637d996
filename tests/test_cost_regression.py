"""Golden cost pins: canonical operations' simulated costs.

The calibration in DESIGN.md §5 took real effort to land inside the
paper's bands; these pins make *any* drift in the charging paths visible
immediately.  The bounds are deliberately loose (±35%) — they catch
accidental double-charging or dropped charges, not tuning.
"""

import pytest

from repro.core import ShieldStore, shield_opt
from repro.sim import Enclave, Machine
from repro.sim.memory import REGION_UNTRUSTED


def cycles_of(action, machine):
    machine.reset_measurement()
    action()
    return machine.clock.elapsed_cycles()


class TestPrimitiveCosts:
    def test_untrusted_dram_touch(self):
        machine = Machine()
        ctx = machine.context(0)
        base = machine.memory.alloc(4096, REGION_UNTRUSTED)
        cost = cycles_of(lambda: machine.memory.touch(ctx, base, 8, False), machine)
        assert cost == pytest.approx(360, rel=0.01)  # one DRAM miss

    def test_llc_hit(self):
        machine = Machine()
        ctx = machine.context(0)
        base = machine.memory.alloc(4096, REGION_UNTRUSTED)
        machine.memory.touch(ctx, base, 8, False)
        cost = cycles_of(lambda: machine.memory.touch(ctx, base, 8, False), machine)
        assert cost == pytest.approx(14, rel=0.01)

    def test_epc_fault(self):
        machine = Machine()
        enclave = Enclave(machine, bytes(32))
        ctx = enclave.context()
        base = enclave.alloc(8192)
        cost = cycles_of(lambda: machine.memory.touch(ctx, base, 8, False), machine)
        # fault (206k) + MEE read of the line.
        assert 206_000 <= cost <= 209_000

    def test_ecall(self):
        machine = Machine()
        enclave = Enclave(machine, bytes(32))
        cost = cycles_of(lambda: enclave.enter(0), machine)
        assert cost == 8_000

    def test_aes_512_bytes(self):
        machine = Machine()
        ctx = machine.context(0)
        cost = cycles_of(lambda: ctx.charge_aes(512), machine)
        assert cost == 160 + 32 * 36


class TestStoreOperationCosts:
    """Pinned at num_buckets=1024, 200 x 64B pairs, fast suite."""

    @pytest.fixture
    def store(self):
        s = ShieldStore(shield_opt(num_buckets=1024, num_mac_hashes=512))
        for i in range(200):
            s.set(f"key-{i:03d}".encode(), b"v" * 64)
        # Warm the LLC with one pass so pins measure steady state.
        for i in range(200):
            s.get(f"key-{i:03d}".encode())
        return s

    def test_get_cost_pin(self, store):
        cost = cycles_of(lambda: store.get(b"key-050"), store.machine)
        assert 3_000 < cost < 13_000, cost

    def test_set_update_cost_pin(self, store):
        cost = cycles_of(lambda: store.set(b"key-050", b"w" * 64), store.machine)
        assert 6_000 < cost < 22_000, cost

    def test_insert_cost_pin(self, store):
        cost = cycles_of(lambda: store.set(b"brand-new-key", b"w" * 64), store.machine)
        # Insert pays the two-step search + MAC-bucket prepend.
        assert 5_000 < cost < 30_000, cost

    def test_miss_cost_pin(self, store):
        from repro.errors import KeyNotFoundError

        def miss():
            with pytest.raises(KeyNotFoundError):
                store.get(b"definitely-absent")

        cost = cycles_of(miss, store.machine)
        assert 800 < cost < 15_000, cost

    def test_relative_order(self, store):
        get = cycles_of(lambda: store.get(b"key-060"), store.machine)
        update = cycles_of(lambda: store.set(b"key-060", b"x" * 64), store.machine)
        assert update > get  # writes re-encrypt + update integrity state
